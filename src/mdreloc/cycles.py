"""Cycle enumeration and GF(2) cycle-space tools for Tanner graphs.

A cycle is stored as its traversal: an even-length sequence of
(cn, vn, entry_id) steps in which consecutive steps alternately share a
check node and a variable node.  Cycles are kept in a canonical rotation
(smallest entry-id first, smaller neighbouring entry-id second) so that
enumeration output, basis selection, and golden tests are deterministic.

Over GF(2) a cycle is the 0/1 indicator of its edges inside a fixed edge
universe; symmetric difference of edge sets is vector XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tanner import TannerGraph

GF2Vector = tuple[int, ...]


def _masks(vectors) -> list[int]:
    out = []
    for vec in vectors:
        mask = 0
        for i, bit in enumerate(vec):
            if bit:
                mask |= 1 << i
        out.append(mask)
    return out


def _reduce(mask: int, pivots: dict[int, int]) -> int:
    """Reduce a bitmask against pivot rows; 0 means dependent."""
    while mask:
        top = mask.bit_length() - 1
        if top not in pivots:
            return mask
        mask ^= pivots[top]
    return 0


def cycle_space_rank(vectors) -> int:
    """Rank over GF(2) of a collection of 0/1 vectors."""
    pivots: dict[int, int] = {}
    for mask in _masks(vectors):
        reduced = _reduce(mask, pivots)
        if reduced:
            pivots[reduced.bit_length() - 1] = reduced
    return len(pivots)


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
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.entry_ids)

    @cached_property
    def cns(self) -> frozenset[int]:
        return frozenset(s[0] for s in self.steps)

    @cached_property
    def vns(self) -> frozenset[int]:
        return frozenset(s[1] for s in self.steps)

    def vector(self, universe) -> GF2Vector:
        """0/1 indicator of this cycle's edges over an ordered edge universe."""
        edges = self.edge_set
        if not edges <= set(universe):
            raise ValueError("cycle uses edges outside the universe")
        return tuple(1 if eid in edges else 0 for eid in universe)


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

    ``universe`` is the sorted tuple of the subgraph's entry-ids; all basis
    vectors are expressed over it.
    """

    cycles: tuple[Cycle, ...]
    universe: tuple[int, ...]

    def __post_init__(self):
        if cycle_space_rank(self.vectors()) != len(self.cycles):
            raise ValueError("basis cycles are linearly dependent")

    @property
    def size(self) -> int:
        return len(self.cycles)

    def vectors(self) -> list[GF2Vector]:
        return [c.vector(self.universe) for c in self.cycles]


def _chain_order(cycles: list[Cycle]) -> list[Cycle] | None:
    """Reorder so consecutive cycles share a CN; None if impossible.

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
    if not _connected(subgraph):
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

    chosen: list[Cycle] = []
    pivots: dict[int, int] = {}
    for cyc in candidates:
        mask = _masks([cyc.vector(universe)])[0]
        reduced = _reduce(mask, pivots)
        if reduced:
            pivots[reduced.bit_length() - 1] = reduced
            chosen.append(cyc)
            if len(chosen) == n_basic:
                break
    if len(chosen) != n_basic:
        raise ValueError(f"found only {len(chosen)} independent cycles, expected {n_basic}")

    chosen.sort(key=lambda c: (c.length, c.entry_ids))
    ordered = _chain_order(chosen)
    if ordered is None:
        raise ValueError("no ordering with consecutive cycles sharing a check node")
    return CycleBasis(tuple(ordered), universe)


def _connected(g: TannerGraph) -> bool:
    nodes = [("c", c) for c in g.cns] + [("v", v) for v in g.vns]
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        kind, node = stack.pop()
        if kind == "c":
            nbrs = [("v", vn) for vn, _ in g.cn_adj[node]]
        else:
            nbrs = [("c", cn) for cn, _ in g.vn_adj[node]]
        for nxt in nbrs:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(nodes)
