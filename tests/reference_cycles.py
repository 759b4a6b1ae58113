"""Reference chain order: the backtracking search the library's one replaced.

Kept as a differential oracle for ``mdreloc.cycles._chain_order``.  It
keeps one shared ``order``/``remaining`` pair, undoes each failed choice
and re-sorts ``remaining``, so it shares no code with the recursive
first-fit it checks.  Items need only a ``cns`` set.
"""

from __future__ import annotations


def reference_chain_order(cycles: list) -> list | None:
    """Reorder so consecutive items share a CN; None if impossible.

    Prefers the given order, deviating as little (and as early-greedily)
    as possible, so the result is deterministic.
    """
    n = len(cycles)
    if n <= 1:
        return list(cycles)

    order: list[int] = []
    remaining = list(range(n))

    def backtrack() -> bool:
        if not remaining:
            return True
        for idx in list(remaining):
            if order and not (cycles[order[-1]].cns & cycles[idx].cns):
                continue
            order.append(idx)
            remaining.remove(idx)
            if backtrack():
                return True
            remaining.append(idx)
            remaining.sort()
            order.pop()
        return False

    if not backtrack():
        return None
    return [cycles[i] for i in order]
