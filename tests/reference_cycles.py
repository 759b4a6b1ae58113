"""Reference cycle code: differential oracles for ``mdreloc.cycles``.

``reference_chain_order`` is the backtracking search the library's
``_chain_order`` replaced.  It keeps one shared ``order``/``remaining``
pair, undoes each failed choice and re-sorts ``remaining``, so it shares
no code with the recursive first-fit it checks.  Items need only a
``cns`` set.

``reference_minimum_cycle_basis`` is the basis as it was when it
rejected disconnected input with its own breadth-first search
(``components``, kept here) and stopped the elimination after the
expected number of cycles; the library now reads connectivity off the
rank of all simple cycles.
"""

from __future__ import annotations

from itertools import islice

from mdreloc.cycles import CycleBasis, _chain_order, _independent, enumerate_cycles
from mdreloc.tanner import TannerGraph


def components(g: TannerGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components as sorted (vns, cns), isolated nodes included."""
    nbrs = {("v", v): [("c", c) for c, _ in g.vn_adj[v]] for v in g.vns}
    nbrs.update({("c", c): [("v", v) for v, _ in g.cn_adj[c]] for c in g.cns})
    unvisited, out = set(nbrs), []
    while unvisited:
        stack = [min(unvisited)]
        unvisited.discard(stack[0])
        found = []
        while stack:
            found.append(stack.pop())
            for nxt in nbrs[found[-1]]:
                if nxt in unvisited:
                    unvisited.discard(nxt)
                    stack.append(nxt)
        found.sort()
        out.append((tuple(n for k, n in found if k == "v"), tuple(n for k, n in found if k == "c")))
    return out


def reference_minimum_cycle_basis(subgraph: TannerGraph) -> CycleBasis:
    """Minimum-length cycle basis of a connected, CN-degree-2 subgraph.

    Greedy selection over all enumerated cycles sorted by length is
    optimal for total basis length (the cycle space is a matroid).  The
    returned basis is presented in canonical order and arranged so that
    consecutive basis cycles share at least one check node.
    """
    for cn in subgraph.cns:
        if subgraph.cn_degree(cn) != 2:
            raise ValueError(f"cn {cn} has degree {subgraph.cn_degree(cn)}, expected 2")
    if len(components(subgraph)) > 1:
        raise ValueError("subgraph must be connected")

    n_basic = len(subgraph.cns) - len(subgraph.vns) + 1
    universe = tuple(sorted(e[2] for e in subgraph.edges))
    if n_basic <= 0:
        return CycleBasis((), universe)

    candidates = enumerate_cycles(subgraph, max_len=2 * len(subgraph.vns))
    # Same-length ties resolved toward later canonical traversals: among the
    # shortest cycles this prefers the ones threaded through high-id edges,
    # which keeps the low-id edges available as basis-private checks.
    candidates.sort(key=lambda c: (c.length,) + tuple(-e for e in c.entry_ids))

    chosen = list(islice(_independent(candidates), n_basic))
    if len(chosen) != n_basic:
        raise ValueError(f"found only {len(chosen)} independent cycles, expected {n_basic}")

    chosen.sort(key=lambda c: (c.length, c.entry_ids))
    ordered = _chain_order(chosen)
    if ordered is None:
        raise ValueError("no ordering with consecutive cycles sharing a check node")
    return CycleBasis(tuple(ordered), universe)


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
