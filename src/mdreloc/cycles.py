"""Cycle enumeration and GF(2) cycle-space tools for Tanner graphs.

A cycle is stored as its traversal: an even-length sequence of
(cn, vn, entry_id) steps in which consecutive steps alternately share a
check node and a variable node.  Cycles are kept in a canonical rotation
(smallest entry-id first, smaller neighbouring entry-id second) so that
enumeration output, basis selection, and golden tests are deterministic.

Over GF(2) a cycle is its edge set, kept as one integer mask with bit e
set for entry-id e; symmetric difference of edge sets is XOR of masks.
One elimination routine, ``_independent``, serves both the rank and the
greedy basis selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tanner import TannerGraph


def _independent(cycles):
    """Yield each cycle whose edge mask is independent of those yielded before.

    Gaussian elimination over GF(2): a mask is reduced against the pivot
    rows kept so far, keyed by top bit; a non-zero remainder is a new row.
    """
    pivots: dict[int, int] = {}
    for cyc in cycles:
        mask = cyc.mask
        while mask and (top := mask.bit_length() - 1) in pivots:
            mask ^= pivots[top]
        if mask:
            pivots[top] = mask
            yield cyc


def cycle_space_rank(cycles) -> int:
    """Rank over GF(2) of the cycles' edge masks."""
    return sum(1 for _ in _independent(cycles))


def canonical_steps(steps):
    """Canonical rotation/reflection of a traversal.

    Starts at the smallest entry-id and proceeds toward the smaller of its
    two neighbouring entry-ids, which fixes a unique representative of the
    2L rotations and reflections.
    """
    steps = list(steps)
    length = len(steps)
    eids = [s[2] for s in steps]
    start = eids.index(min(eids))
    fwd = eids[(start + 1) % length]
    back = eids[(start - 1) % length]
    if fwd <= back:
        order = [steps[(start + j) % length] for j in range(length)]
    else:
        order = [steps[(start - j) % length] for j in range(length)]
    return tuple(order)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle, stored as canonical traversal steps."""

    steps: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        length = len(self.steps)
        if length < 4 or length % 2:
            raise ValueError(f"cycle length must be even and >= 4, got {length}")
        for i in range(length):
            cn0, vn0, _ = self.steps[i]
            cn1, vn1, _ = self.steps[(i + 1) % length]
            if (cn0 == cn1) == (vn0 == vn1):
                raise ValueError("consecutive steps must share exactly one endpoint")
        # Together with the pairwise check above, these counts force every
        # node to appear on exactly two adjacent steps, i.e. the traversal
        # alternates CN-sharing and VN-sharing strictly.
        cns = [s[0] for s in self.steps]
        vns = [s[1] for s in self.steps]
        if len(set(cns)) != length // 2 or len(set(vns)) != length // 2:
            raise ValueError("cycle revisits a node")

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def entry_ids(self) -> tuple[int, ...]:
        return tuple(s[2] for s in self.steps)

    @cached_property
    def mask(self) -> int:
        """The edge set over GF(2): bit e is set for entry-id e."""
        return sum(1 << eid for eid in set(self.entry_ids))

    @cached_property
    def cns(self) -> frozenset[int]:
        return frozenset(s[0] for s in self.steps)


def enumerate_cycles(g: TannerGraph, max_len: int) -> list[Cycle]:
    """All simple cycles of length <= max_len, canonically ordered.

    Each cycle is found exactly once: the search roots at the cycle's
    smallest variable node and only walks VNs with larger ids, and of the
    two traversal directions only the one whose first CN id is smaller
    than its last is emitted.
    """
    if max_len < 4 or max_len % 2:
        raise ValueError("max_len must be an even number >= 4")
    found: list[tuple[tuple[int, int, int], ...]] = []

    for root in sorted(g.vns):
        used_vns: set[int] = set()
        used_cns: set[int] = set()

        def from_cn(cn: int, steps: list):
            depth = len(steps)
            for vn, eid in g.cn_adj[cn]:
                if vn == root:
                    if depth + 1 >= 4 and depth + 1 <= max_len and steps[0][0] < cn:
                        found.append(tuple(steps + [(cn, vn, eid)]))
                elif vn > root and vn not in used_vns and depth + 3 <= max_len:
                    used_vns.add(vn)
                    steps.append((cn, vn, eid))
                    from_vn(vn, steps)
                    steps.pop()
                    used_vns.remove(vn)

        def from_vn(vn: int, steps: list):
            if len(steps) + 2 > max_len:
                return
            for cn, eid in g.vn_adj[vn]:
                if cn not in used_cns:
                    used_cns.add(cn)
                    steps.append((cn, vn, eid))
                    from_cn(cn, steps)
                    steps.pop()
                    used_cns.remove(cn)

        from_vn(root, [])

    cycles = [Cycle(canonical_steps(s)) for s in found]
    cycles.sort(key=lambda c: (c.length, c.entry_ids))
    return cycles


@dataclass(frozen=True)
class CycleBasis:
    """An ordered GF(2) basis of a subgraph's cycle space.

    ``universe`` is the sorted tuple of the subgraph's entry-ids; every
    basis cycle must use only these edges.
    """

    cycles: tuple[Cycle, ...]
    universe: tuple[int, ...]

    def __post_init__(self):
        outside = ~sum(1 << eid for eid in set(self.universe))
        if any(c.mask & outside for c in self.cycles):
            raise ValueError("cycle uses edges outside the universe")
        if cycle_space_rank(self.cycles) != len(self.cycles):
            raise ValueError("basis cycles are linearly dependent")

    @property
    def size(self) -> int:
        return len(self.cycles)


def _chain_order(cycles: list[Cycle], last: Cycle | None = None) -> list[Cycle] | None:
    """Reorder so consecutive cycles share a CN; None if impossible.

    Depth-first first fit: the cycles that share a CN with ``last`` (any
    cycle, at the start) are tried in the given order, each followed by a
    chain of the rest, so the result is the first chain in that order.
    """
    if not cycles:
        return []
    for i, cyc in enumerate(cycles):
        if last is None or last.cns & cyc.cns:
            rest = _chain_order(cycles[:i] + cycles[i + 1:], cyc)
            if rest is not None:
                return [cyc] + rest
    return None


def minimum_cycle_basis(subgraph: TannerGraph) -> CycleBasis:
    """Minimum-length cycle basis of a connected, CN-degree-2 subgraph.

    Greedy selection over all enumerated cycles sorted by length is
    optimal for total basis length (the cycle space is a matroid).  The
    returned basis is presented in canonical order and arranged so that
    consecutive basis cycles share at least one check node.
    """
    for cn in subgraph.cns:
        if subgraph.cn_degree(cn) != 2:
            raise ValueError(f"cn {cn} has degree {subgraph.cn_degree(cn)}, expected 2")

    universe = tuple(sorted(e[2] for e in subgraph.edges))
    n_vns = len(subgraph.vns)
    candidates = enumerate_cycles(subgraph, max_len=2 * n_vns) if n_vns > 1 else []
    # Same-length ties resolved toward later canonical traversals: among the
    # shortest cycles this prefers the ones threaded through high-id edges,
    # which keeps the low-id edges available as basis-private checks.
    candidates.sort(key=lambda c: (c.length,) + tuple(-e for e in c.entry_ids))

    # Every simple cycle is a candidate, so they span the cycle space, whose
    # rank is |C| - |V| + (number of components) here (|E| = 2|C|): the
    # rank is |C| - |V| + 1 exactly when the subgraph is connected.
    chosen = list(_independent(candidates))
    if len(chosen) != len(subgraph.cns) - n_vns + 1:
        raise ValueError("subgraph must be connected")

    chosen.sort(key=lambda c: (c.length, c.entry_ids))
    ordered = _chain_order(chosen)
    if ordered is None:
        raise ValueError("no ordering with consecutive cycles sharing a check node")
    return CycleBasis(tuple(ordered), universe)
