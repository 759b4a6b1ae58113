"""Brute-force verifiers for relocation activity, fractions, and averages.

Everything in this module recomputes results from first principles so it
can sit on the other side of an equality check from the closed forms and
the designer:

* ``min_detached_checks`` searches all copy alignments of an absorbing
  set directly instead of evaluating cycle sums.
* ``exhaustive_fractions`` measures the arrangement fractions over all
  M^n_f assignment classes; ``full_enumeration_fractions`` does the same
  over every single assignment, to validate the class reduction.
* ``enumerate_md_uas`` recounts absorbing sets on an assembled MD matrix
  with the ordinary subgraph enumerator, no relocation shortcuts.
* ``monte_carlo_avg`` estimates the expected surviving-instance count
  under uniform random relocation.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .absorbing import (
    UasConfig,
    UasInstance,
    basic_cycle_count,
    classify_config,
    enumerate_uas,
)
from .analysis import expected_md_instances
from .cycles import Cycle, enumerate_cycles, minimum_cycle_basis
from .relocation import (
    RelocationMap,
    alternating_value_sum,
    assemble_md,
    md_edge_copies,
)
from .tanner import BinaryMatrix, TannerGraph, build_graph


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


def min_detached_checks(u: UasInstance, reloc: RelocationMap) -> int:
    """Fewest degree-2 checks lost over all copy alignments of the set.

    A potential assigns each VN of the instance a copy shift (the first
    VN is pinned to 0; a global shift never changes anything).  A check
    with edges to VNs x and y is kept by a potential s when
    R(c,x) + s(x) = R(c,y) + s(y) mod M, i.e. both edges land in the same
    copy of the check.  The minimum number of checks not kept is 0
    exactly when the set reappears intact in every copy.
    """
    m = reloc.m_copies
    pots = _potentials(m, u.a)
    detached = np.zeros(pots.shape[0], dtype=np.int64)
    for (iu, e1), (iv, e2) in _deg2_cn_edges(u):
        lhs = (reloc.value(e1) + pots[:, iu]) % m
        rhs = (reloc.value(e2) + pots[:, iv]) % m
        detached += lhs != rhs
    return int(detached.min())


# ---------------------------------------------------------------------------
# Arrangement-fraction measurement


@dataclass(frozen=True)
class EmpiricalFractions:
    """Measured arrangement fractions (exact rationals over the class count).

    ``f_one_detached`` is the fraction of arrangements fixable by losing a
    single check; together with ``f_active`` and ``f_deep_inactive`` it
    partitions the space by the minimum detached-check count (0, 1, >=2).
    """

    m_copies: int
    classes: int
    f_active: Fraction
    f_inactive: Fraction
    f_one_detached: Fraction
    f_deep_inactive: Fraction
    f_basis_inactive: Fraction
    f_all_cycles_inactive: Fraction


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


def exhaustive_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    """Measure the fractions over all M^n_f assignment classes.

    Assignments of the degree-2 edges are equivalent when they differ by
    a per-VN copy shift; each class is hit by the same number of raw
    assignments, and one representative per class is obtained by giving a
    chosen entry of each non-tree check an arbitrary value and setting
    everything else to 0.  ``full_enumeration_fractions`` checks this
    reduction against raw enumeration.
    """
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


def full_enumeration_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    """Measure the fractions over every raw assignment of the degree-2 edges.

    Exponential in the edge count (M^(2 d2)); used to validate the class
    reduction at small sizes, not for routine analysis.
    """
    m = m_copies
    eids = list(u.deg2_entry_ids)
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


# ---------------------------------------------------------------------------
# MD-side recount and profiling


def enumerate_md_uas(h_md: BinaryMatrix, config: UasConfig) -> int:
    """Count (a, d1) instances directly on an assembled MD matrix."""
    return len(enumerate_uas(build_graph(h_md), config))


@dataclass(frozen=True)
class MdObjectProfile:
    """Shape of what an instance's edges become across the M copies.

    ``components`` holds (vn_count, degree1_cn_count) per connected
    component of the induced MD subgraph, sorted.
    """

    vn_count: int
    deg1_cn_count: int
    connected: bool
    components: tuple[tuple[int, int], ...]


def md_instance_subgraph(u: UasInstance, reloc: RelocationMap) -> TannerGraph:
    """The M copies of the instance's own edges, labeled as in the MD matrix.

    CN copy i of host row r gets id i * n_rows + r, VN copy j of host
    column c gets id j * n_cols + c, matching the assembled MD matrix so
    the two constructions can be compared entry for entry.
    """
    g = u.graph
    m = reloc.m_copies
    n_rows, n_cols = reloc.matrix.n_rows, reloc.matrix.n_cols
    placed = []
    for eid in u.entry_ids:
        cn, vn = g.edge_by_id[eid]
        for ci, cj in md_edge_copies(reloc.value(eid), m):
            placed.append((ci * n_rows + cn, cj * n_cols + vn))
    placed.sort()
    edges = tuple((r, c, i) for i, (r, c) in enumerate(placed))
    cns = tuple(sorted({r for r, _ in placed}))
    vns = tuple(sorted({c for _, c in placed}))
    return TannerGraph(cns, vns, edges)


def md_object_profile(u: UasInstance, reloc: RelocationMap) -> MdObjectProfile:
    """Connected-component profile of the instance's MD subgraph."""
    g = md_instance_subgraph(u, reloc)
    unvisited = {("v", v) for v in g.vns} | {("c", c) for c in g.cns}
    comps = []
    while unvisited:
        start = min(unvisited)
        stack = [start]
        unvisited.discard(start)
        vn_count = 0
        deg1 = 0
        while stack:
            kind, node = stack.pop()
            if kind == "v":
                vn_count += 1
                nbrs = [("c", cn) for cn, _ in g.vn_adj[node]]
            else:
                if g.cn_degree(node) == 1:
                    deg1 += 1
                nbrs = [("v", vn) for vn, _ in g.cn_adj[node]]
            for nxt in nbrs:
                if nxt in unvisited:
                    unvisited.discard(nxt)
                    stack.append(nxt)
        comps.append((vn_count, deg1))
    comps.sort()
    return MdObjectProfile(
        vn_count=sum(v for v, _ in comps),
        deg1_cn_count=sum(d for _, d in comps),
        connected=len(comps) == 1,
        components=tuple(comps),
    )


# ---------------------------------------------------------------------------
# Monte Carlo

_MC_STRIDE = 1_000_003


def _random_relocation(matrix: BinaryMatrix, m: int, seed: int) -> RelocationMap:
    rng = random.Random(seed)
    reloc = RelocationMap(m, matrix, granularity="entry")
    for r, c in matrix.entries:
        reloc.assign_entry(r, c, rng.randrange(m))
    return reloc


def _mc_chunk(args) -> list[int]:
    matrix, config, m, seed, start, stop = args
    counts = []
    for t in range(start, stop):
        reloc = _random_relocation(matrix, m, seed * _MC_STRIDE + t)
        counts.append(enumerate_md_uas(assemble_md(matrix, reloc), config))
    return counts


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    mean: float
    std_error: float
    host_instances: int
    expected: Fraction


def _assert_cycle_disjoint(instances) -> None:
    cycle_sets = []
    for inst in instances:
        sub = inst.deg2_subgraph()
        cyc = enumerate_cycles(sub, max_len=2 * len(inst.deg2_cns))
        cycle_sets.append({frozenset(c.entry_ids) for c in cyc})
    for i in range(len(cycle_sets)):
        for j in range(i + 1, len(cycle_sets)):
            if cycle_sets[i] & cycle_sets[j]:
                raise ValueError(f"instances {i} and {j} share a cycle")


def monte_carlo_avg(
    host: BinaryMatrix,
    config: UasConfig,
    m_copies: int,
    trials: int,
    seed: int = 0,
    threads: int = 1,
) -> MonteCarloResult:
    """Mean surviving-instance count under uniform random entry relocation.

    Valid as an estimator of ``expected_md_instances`` only for
    configurations that are non-regenerable and stand-alone; both are
    checked, the first via the structural classifier and the second by
    verifying the host's instances share no cycles pairwise.  The
    standard error needs at least 2 trials.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if threads < 1:
        raise ValueError(f"need at least 1 thread, got {threads}")
    cls = classify_config(config)
    if cls.non_regenerable is not True or cls.stand_alone is not True:
        raise ValueError(f"config {config.name} is not certified stand-alone non-regenerable")
    instances = enumerate_uas(build_graph(host), config)
    if not instances:
        raise ValueError(f"host contains no {config.name} instances to average over")
    _assert_cycle_disjoint(instances)

    chunk = max(1, trials // (threads * 4))
    ranges = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    jobs = [(host, config, m_copies, seed, s, e) for s, e in ranges]
    counts: list[int] = []
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(_mc_chunk, jobs):
                counts.extend(part)
    else:
        for job in jobs:
            counts.extend(_mc_chunk(job))

    arr = np.asarray(counts, dtype=np.float64)
    mean = float(arr.mean())
    std_error = float(arr.std(ddof=1) / np.sqrt(trials))
    return MonteCarloResult(
        trials=trials,
        mean=mean,
        std_error=std_error,
        host_instances=len(instances),
        expected=expected_md_instances(
            len(instances), basic_cycle_count(config), m_copies
        ),
    )
