"""Reference detached-check oracles: the bodies the library's kernels replaced.

Kept verbatim as differential oracles.  ``reference_min_detached_checks``
loops over checks for one relocation map, ``reference_exhaustive_fractions``
evaluates one class representative per Python iteration, and
``reference_full_enumeration_fractions`` materialises every raw assignment
as one int64 table.  All three find the fewest detached checks by
searching every VN shift (potential), where ``mdreloc.oracle`` reads it
off cycle hitting sets, and they share no chunking, dtype narrowing or
cycle-sum weights with it.  The full enumeration holds the
whole M^(2 d2) table in memory; keep the inputs small.
``reference_raw_histogram`` is the full enumeration's streamed histogram
before the low-digit code table: each assignment's code by div/mod of its
index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from mdreloc import (
    Cycle,
    EmpiricalFractions,
    RelocationMap,
    UasInstance,
    enumerate_cycles,
    minimum_cycle_basis,
)

from reference_activity import alternating_value_sum


@lru_cache(maxsize=32)
def _digit_table(m: int, width: int) -> np.ndarray:
    """All length-``width`` base-m digit strings, one per row, little-endian."""
    idx = np.arange(m**width, dtype=np.int64)
    table = np.empty((m**width, width), dtype=np.int64)
    for k in range(width):
        table[:, k] = (idx // m**k) % m
    table.setflags(write=False)
    return table


def _deg2_cn_edges(u: UasInstance) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Per degree-2 CN: ((vn_index, entry), (vn_index, entry)) within the instance."""
    g = u.graph
    vpos = {vn: i for i, vn in enumerate(u.vns)}
    out = []
    for cn in u.deg2_cns:
        ends = [(vpos[vn], eid) for vn, eid in g.cn_adj[cn] if vn in vpos]
        if len(ends) != 2:
            raise ValueError(f"check {cn} has induced degree {len(ends)}, expected 2")
        out.append((ends[0], ends[1]))
    return out


def _potentials(m: int, a: int) -> np.ndarray:
    """All VN shift assignments with the first VN pinned to 0, shape (m^(a-1), a)."""
    tail = _digit_table(m, a - 1)
    pots = np.zeros((tail.shape[0], a), dtype=np.int64)
    pots[:, 1:] = tail
    return pots


def reference_min_detached_checks(u: UasInstance, reloc: RelocationMap) -> int:
    m = reloc.m_copies
    pots = _potentials(m, u.a)
    detached = np.zeros(pots.shape[0], dtype=np.int64)
    for (iu, e1), (iv, e2) in _deg2_cn_edges(u):
        lhs = (reloc.values.item(e1) + pots[:, iu]) % m
        rhs = (reloc.values.item(e2) + pots[:, iv]) % m
        detached += lhs != rhs
    return int(detached.min())


def _spanning_tree_split(u: UasInstance) -> tuple[list[int], list[int]]:
    """Degree-2 CNs split into (tree, non-tree) over the VN contraction."""
    g = u.graph
    vset = set(u.vns)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in u.vns}
    for cn in u.deg2_cns:
        ends = [vn for vn, _ in g.cn_adj[cn] if vn in vset]
        adj[ends[0]].append((cn, ends[1]))
        adj[ends[1]].append((cn, ends[0]))
    seen = {u.vns[0]}
    tree: list[int] = []
    stack = [u.vns[0]]
    while stack:
        at = stack.pop()
        for cn, other in adj[at]:
            if other not in seen:
                seen.add(other)
                tree.append(cn)
                stack.append(other)
    if len(seen) != len(u.vns):
        raise ValueError("degree-2 subgraph is not connected")
    non_tree = sorted(set(u.deg2_cns) - set(tree))
    return sorted(tree), non_tree


def _fractions_from_counts(
    m: int, total: int, beta: "np.ndarray", basis_inactive: int, all_inactive: int
) -> EmpiricalFractions:
    n_active = int((beta == 0).sum())
    n_one = int((beta == 1).sum())
    n_deep = int((beta >= 2).sum())
    return EmpiricalFractions(
        m_copies=m,
        classes=total,
        f_active=Fraction(n_active, total),
        f_inactive=Fraction(total - n_active, total),
        f_one_detached=Fraction(n_one, total),
        f_deep_inactive=Fraction(n_deep, total),
        f_basis_inactive=Fraction(basis_inactive, total),
        f_all_cycles_inactive=Fraction(all_inactive, total),
    )


def reference_exhaustive_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    sub = u.deg2_subgraph()
    basis = minimum_cycle_basis(sub)
    cycles = enumerate_cycles(sub, max_len=2 * len(u.deg2_cns))
    _, non_tree = _spanning_tree_split(u)
    designated = []
    for cn in non_tree:
        eids = [eid for vn, eid in u.graph.cn_adj[cn] if vn in set(u.vns)]
        designated.append(min(eids))

    m = m_copies
    n_f = len(non_tree)
    cn_edges = _deg2_cn_edges(u)
    pots = _potentials(m, u.a)
    table = _digit_table(m, n_f)

    total = table.shape[0]
    beta = np.empty(total, dtype=np.int64)
    basis_inactive = 0
    all_inactive = 0
    for row in range(total):
        values = dict(zip(designated, table[row].tolist()))
        value = lambda eid: values.get(eid, 0)
        detached = np.zeros(pots.shape[0], dtype=np.int64)
        for (iu, e1), (iv, e2) in cn_edges:
            lhs = (value(e1) + pots[:, iu]) % m
            rhs = (value(e2) + pots[:, iv]) % m
            detached += lhs != rhs
        beta[row] = detached.min()
        sums = [alternating_value_sum(c, value) % m for c in basis.cycles]
        basis_inactive += all(s != 0 for s in sums)
        all_sums = [alternating_value_sum(c, value) % m for c in cycles]
        all_inactive += all(s != 0 for s in all_sums)
    return _fractions_from_counts(m, total, beta, basis_inactive, all_inactive)


def reference_full_enumeration_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    m = m_copies
    eids = [eid for _, _, eid in u.deg2_subgraph().edges]
    pos = {eid: k for k, eid in enumerate(eids)}
    sub = u.deg2_subgraph()
    basis = minimum_cycle_basis(sub)
    cycles = enumerate_cycles(sub, max_len=2 * len(u.deg2_cns))

    assigns = _digit_table(m, len(eids))
    total = assigns.shape[0]
    pots = _potentials(m, u.a)

    detached = np.zeros((total, pots.shape[0]), dtype=np.int16)
    for (iu, e1), (iv, e2) in _deg2_cn_edges(u):
        lhs = (assigns[:, pos[e1], None] + pots[None, :, iu]) % m
        rhs = (assigns[:, pos[e2], None] + pots[None, :, iv]) % m
        detached += lhs != rhs
    beta = detached.min(axis=1)

    def signed_sums(cycle: Cycle) -> np.ndarray:
        w = np.zeros(len(eids), dtype=np.int64)
        for i, (_, _, eid) in enumerate(cycle.steps):
            w[pos[eid]] += 1 if i % 2 else -1
        return (assigns @ w) % m

    basis_active = [signed_sums(c) == 0 for c in basis.cycles]
    basis_inactive = int((~np.logical_or.reduce(basis_active)).sum()) if basis_active else total
    all_active = [signed_sums(c) == 0 for c in cycles]
    all_inactive = int((~np.logical_or.reduce(all_active)).sum()) if all_active else total
    return _fractions_from_counts(m, total, beta, basis_inactive, all_inactive)


def reference_raw_histogram(m: int, k: int, block_cells: int) -> np.ndarray:
    """Raw assignments per check-difference code, streamed from their indices."""
    raw, step = m ** (2 * k), max(m * m, block_cells // 16)
    pair_diff = np.subtract.outer(np.arange(m), np.arange(m)).ravel() % m
    counts = np.zeros(m**k, dtype=np.int64)
    for start in range(0, raw, step):
        idx = np.arange(start, min(start + step, raw))
        codes = sum(pair_diff[idx // m ** (2 * c) % (m * m)] * m**c for c in range(k))
        counts += np.bincount(codes, minlength=m**k)
    return counts
