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
  under uniform random relocation, scoring blocks of trials on the host
  with one potential solve per instance instead of recounting MD matrices.

The first three share one detached-check kernel, ``_detached_check_counts``.
Assignments stream through it in blocks of at most ``_BLOCK_CELLS``
(assignment, potential) cells, so its memory is bounded for every a and
M; a run of more than ``MAX_CHECK_PAIRS`` such pairs is refused with
``ValueError`` before any work.
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
from .cycles import enumerate_cycles, minimum_cycle_basis
from .relocation import RelocationMap, check_copies, md_edge_copies
from .tanner import BinaryMatrix, TannerGraph, build_graph


# Cells per block: (assignment, potential) pairs in the detached-check kernel,
# where blocks split rows and, for wider rows, potentials; (trial, entry)
# values in the Monte Carlo draw.  Either way memory stays bounded.
_BLOCK_CELLS = 1 << 18
# Larger runs would not finish, so the kernel refuses them before any work.
MAX_CHECK_PAIRS = 1 << 32


def _digits(m: int, width: int, start: int, stop: int) -> np.ndarray:
    """Base-m digit strings of the numbers start..stop-1, one per row, little-endian."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, width), dtype=np.min_scalar_type(m - 1))
    for k in range(width):
        out[:, k] = (idx // m**k) % m
    return out


def _deg2_cn_edges(u: UasInstance) -> list[tuple[int, int, int, int]]:
    """Per degree-2 CN: (vn_index, vn_index, entry, entry) within the instance.

    Entries are positions in ``u.deg2_entry_ids``, the columns of a row.
    """
    g = u.graph
    vpos = {vn: i for i, vn in enumerate(u.vns)}
    epos = {eid: k for k, eid in enumerate(u.deg2_entry_ids)}
    out = []
    for cn in u.deg2_cns:
        ends = [(vpos[vn], eid) for vn, eid in g.cn_adj[cn] if vn in vpos]
        if len(ends) != 2:
            raise ValueError(f"check {cn} has induced degree {len(ends)}, expected 2")
        (iu, e1), (iv, e2) = ends
        out.append((iu, iv, epos[e1], epos[e2]))
    return out


@lru_cache(maxsize=8)
def _targets(m: int, a: int, pairs: tuple[tuple[int, int], ...], start: int, stop: int):
    """s(y) - s(x) mod M for each VN pair (x, y), over potentials start..stop-1."""
    s = np.zeros((stop - start, a), dtype=np.min_scalar_type(m - 1))
    s[:, 1:] = _digits(m, a - 1, start, stop)
    out = np.empty((len(pairs), stop - start), dtype=s.dtype)
    for k, (x, y) in enumerate(pairs):
        out[k] = (s[:, y].astype(np.int64) - s[:, x]) % m
    out.setflags(write=False)
    return out


def _detached_check_counts(u: UasInstance, m: int, total: int, rows_at, weights=()):
    """Histogram over ``total`` assignment rows of the fewest detached checks.

    ``rows_at(start, stop)`` gives rows start..stop-1 over ``u.deg2_entry_ids``.
    A potential gives each VN a copy shift s (the first VN pinned to 0; a
    global shift changes nothing).  A check with edges e1 at VN x and e2
    at VN y is kept when R(e1) + s(x) = R(e2) + s(y) mod M (both edges in
    one copy of the check), i.e. R(e1) - R(e2) = s(y) - s(x): one row
    difference against one potential target.  Also counts, per matrix of
    signed cycle weights, the rows on which every cycle sum is nonzero.
    """
    checks = _deg2_cn_edges(u)
    n_pots = m ** (u.a - 1)
    if total * n_pots > MAX_CHECK_PAIRS:
        raise ValueError(f"{total} assignments x {n_pots} potentials at M={m}"
                         f" exceed the checking limit of {MAX_CHECK_PAIRS}")
    pairs = tuple((x, y) for x, y, _, _ in checks)
    vdt, cdt = np.min_scalar_type(m - 1), np.min_scalar_type(len(checks))
    pot_step = min(n_pots, _BLOCK_CELLS)
    row_step = _BLOCK_CELLS // pot_step
    hist = np.zeros(len(checks) + 1, dtype=np.int64)
    inactive = [0] * len(weights)
    for r0 in range(0, total, row_step):
        rows = rows_at(r0, min(r0 + row_step, total))
        diffs = [((rows[:, i].astype(np.int64) - rows[:, j]) % m).astype(vdt)
                 for *_, i, j in checks]
        beta = np.full(len(rows), len(checks), dtype=cdt)
        for p0 in range(0, n_pots, pot_step):
            p1 = min(p0 + pot_step, n_pots)
            detached = np.zeros((len(rows), p1 - p0), dtype=cdt)
            for diff, target in zip(diffs, _targets(m, u.a, pairs, p0, p1)):
                detached += diff[:, None] != target
            np.minimum(beta, detached.min(axis=1), out=beta)
        hist += np.bincount(beta, minlength=len(hist))
        for i, w in enumerate(weights):
            inactive[i] += int(((rows.astype(w.dtype) @ w) % m != 0).all(axis=1).sum())
    return hist, inactive


def min_detached_checks(u: UasInstance, reloc: RelocationMap) -> int:
    """Fewest degree-2 checks lost over all copy alignments of the set.

    The minimum is 0 exactly when the set reappears intact in every copy
    (see ``_detached_check_counts`` for the search over alignments).
    """
    row = np.array([[reloc.value(eid) for eid in u.deg2_entry_ids]], dtype=np.int64)
    hist, _ = _detached_check_counts(u, reloc.m_copies, 1, lambda start, stop: row)
    return int(np.flatnonzero(hist)[0])


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
    """Degree-2 CNs split into (tree, non-tree) over the VN contraction.

    Tree CNs come in discovery order from the first VN, so each joins a
    VN already reached to a new one; non-tree CNs are sorted.
    """
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
    return tree, non_tree


def _measured_fractions(u: UasInstance, m: int, total: int, rows_at) -> EmpiricalFractions:
    """Fractions over ``total`` assignment rows streamed by ``rows_at``.

    Each cycle becomes a column of signed step weights over the row's
    entries, so a row times the column is its alternating value sum.
    """
    sub = u.deg2_subgraph()
    pos = {eid: k for k, eid in enumerate(u.deg2_entry_ids)}
    weights = []
    for cycles in (minimum_cycle_basis(sub).cycles, enumerate_cycles(sub, 2 * len(u.deg2_cns))):
        w = np.zeros((len(pos), len(cycles)), np.int16 if len(pos) * m < 2**15 else np.int64)
        for j, cycle in enumerate(cycles):
            for i, (_, _, eid) in enumerate(cycle.steps):
                w[pos[eid], j] += 1 if i % 2 else -1
        weights.append(w)
    hist, (basis_inactive, all_inactive) = _detached_check_counts(u, m, total, rows_at, weights)
    n_active, n_one, n_deep = int(hist[0]), int(hist[1:2].sum()), int(hist[2:].sum())
    counts = (n_active, total - n_active, n_one, n_deep, basis_inactive, all_inactive)
    return EmpiricalFractions(m, total, *(Fraction(c, total) for c in counts))


def exhaustive_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    """Measure the fractions over all M^n_f assignment classes.

    Assignments of the degree-2 edges are equivalent when they differ by
    a per-VN copy shift; each class is hit by the same number of raw
    assignments, and one representative per class is obtained by giving a
    chosen entry of each non-tree check an arbitrary value and setting
    everything else to 0.  ``full_enumeration_fractions`` checks this
    reduction against raw enumeration.
    """
    m = m_copies
    _, non_tree = _spanning_tree_split(u)
    pos = {eid: k for k, eid in enumerate(u.deg2_entry_ids)}
    vset = set(u.vns)
    designated = [pos[min(e for vn, e in u.graph.cn_adj[cn] if vn in vset)] for cn in non_tree]

    def rows_at(start: int, stop: int) -> np.ndarray:
        rows = np.zeros((stop - start, len(pos)), dtype=np.min_scalar_type(m - 1))
        rows[:, designated] = _digits(m, len(designated), start, stop)
        return rows

    return _measured_fractions(u, m, m ** len(designated), rows_at)


def full_enumeration_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    """Measure the fractions over every raw assignment of the degree-2 edges.

    Exponential in the edge count (M^(2 d2)); used to validate the class
    reduction at small sizes, not for routine analysis.  The assignments
    are generated block by block from their index, so memory stays
    bounded; every assignment still meets every potential.
    """
    m, width = m_copies, len(u.deg2_entry_ids)
    return _measured_fractions(u, m, m**width, lambda start, stop: _digits(m, width, start, stop))


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


def _potential_plan(u: UasInstance):
    """(tree, loops) that decide whether ``u`` survives a relocation.

    Each step is (x, y, e1, e2) over VN positions and host entry ids and
    reads s(y) = s(x) + R(e1) - R(e2) mod M (see ``_detached_check_counts``).
    With the first VN pinned to 0, the tree steps in discovery order solve
    the one candidate potential; the set stays intact exactly when every
    loop (non-tree check) agrees with it.
    """
    eids = u.deg2_entry_ids
    by_cn = {cn: (x, y, eids[k1], eids[k2])
             for cn, (x, y, k1, k2) in zip(u.deg2_cns, _deg2_cn_edges(u))}
    tree_cns, loop_cns = _spanning_tree_split(u)
    solved, tree = {0}, []
    for cn in tree_cns:
        x, y, e1, e2 = by_cn[cn]
        if x not in solved:
            x, y, e1, e2 = y, x, e2, e1
        solved.add(y)
        tree.append((x, y, e1, e2))
    return tree, [by_cn[cn] for cn in loop_cns]


def _draw_values(n_entries: int, m: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Relocation values of trials start..stop-1, one column per host entry id."""
    rows = []
    for t in range(start, stop):
        rng = random.Random(seed * _MC_STRIDE + t)
        rows.append([rng.randrange(m) for _ in range(n_entries)])
    return np.array(rows, dtype=np.int64)


def _mc_chunk(args) -> np.ndarray:
    """Surviving-instance counts of one trial range, in blocks of bounded size.

    An intact host instance reappears once in each of the M copies.
    """
    plans, n_entries, m, seed, start, stop = args
    step = max(1, _BLOCK_CELLS // n_entries)
    counts = []
    for t0 in range(start, stop, step):
        r = _draw_values(n_entries, m, seed, t0, min(t0 + step, stop)).T
        active = np.zeros(r.shape[1], dtype=np.int64)
        for tree, loops in plans:
            s = {0: 0}
            for x, y, e1, e2 in tree:
                s[y] = s[x] + r[e1] - r[e2]
            intact = np.ones(r.shape[1], dtype=bool)
            for x, y, e1, e2 in loops:
                intact &= (s[x] + r[e1] - r[e2] - s[y]) % m == 0
            active += intact
        counts.append(m * active)
    return np.concatenate(counts)


def _mc_counts(host: BinaryMatrix, instances, m: int, seed: int, start: int, stop: int,
               threads: int = 1) -> np.ndarray:
    """Per-trial surviving-instance counts of trials start..stop-1.

    Trial t draws one value per host entry, in entry order, from
    ``random.Random(seed * _MC_STRIDE + t)``, so every chunking and thread
    count sees the same relocations.
    """
    plans = [_potential_plan(u) for u in instances]
    chunk = max(1, (stop - start) // (threads * 4))
    jobs = [(plans, len(host.entries), m, seed, s, min(s + chunk, stop))
            for s in range(start, stop, chunk)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_mc_chunk, jobs))
    else:
        parts = [_mc_chunk(job) for job in jobs]
    return np.concatenate(parts)


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
    verifying the host's instances share no cycles pairwise.  Then a
    trial's MD count is M times the host instances left intact, which
    ``_potential_plan`` decides without building the MD matrix.  Results
    do not depend on ``threads``.  M must be an odd prime; the standard
    error needs at least 2 trials.
    """
    check_copies(m_copies)
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

    counts = _mc_counts(host, instances, m_copies, seed, 0, trials, threads)
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
