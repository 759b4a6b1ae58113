"""Brute-force verifiers for relocation activity, fractions, and averages.

These results sit on the other side of an equality check from the
closed forms and the designer, but not all from first principles:
``monte_carlo_avg`` and ``md_object_profile`` score with
``relocation.intact``, and the detached-check counts below take their
steps from ``relocation.activity_plans``.  Per-edge references in the
tests check those paths (``tests/reference_mc.py``, ``reference_md.py``
and ``reference_fractions.py``, which keeps the potential searches).

* ``min_detached_checks`` finds the fewest checks an absorbing set loses
  over all copy alignments.
* ``exhaustive_fractions`` measures the arrangement fractions by brute force
  over all M^n_f assignment classes; ``full_enumeration_fractions`` does the
  same over every single assignment, to validate the class reduction.
* ``enumerate_md_uas`` recounts absorbing sets on an assembled MD matrix
  with the ordinary subgraph enumerator, no relocation shortcuts.
* ``monte_carlo_avg`` estimates the expected surviving-instance count
  under uniform random relocation, scoring blocks of trials on the host
  by fundamental-cycle sums instead of recounting MD matrices.
* ``md_object_profile`` reads the shape of an instance's lift off the
  same fundamental-cycle sums; the tests compare it with a per-edge lift.

The first three take β, the fewest detached checks, from cycle hitting
sets (``_fewest_cuts``), not from a search of the M^(a-1) copy alignments.
The fractions stream check-difference rows through ``_detached_check_counts``
in blocks of at most ``_BLOCK_CELLS`` (row, step or cycle) cells.  Runs of
more than MAX_CHECK_PAIRS (assignment, potential) pairs are refused with
``ValueError`` before any work: the search's limit, kept as the contract.
Plan steps, cycle signs and subset tables are memoized per instance object.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

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
from .relocation import (
    _BLOCK_CELLS,
    RelocationMap,
    activity_plans,
    check_copies,
    intact,
)
from .tanner import BinaryMatrix, build_graph

MAX_CHECK_PAIRS = 1 << 32


def _digits(m: int, width: int, start: int, stop: int, lead: int = 0) -> np.ndarray:
    """Base-m digit strings of the numbers start..stop-1, one per row after ``lead`` zeros, little-endian."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((stop - start, lead + width), dtype=np.min_scalar_type(m - 1))
    for k in range(width):
        out[:, lead + k] = (idx // m**k) % m
    return out


def _check_pair_limit(assignments: int, m: int, a: int) -> None:
    """Refuses more than ``MAX_CHECK_PAIRS`` pairs of an assignment and one of its M^(a-1) potentials."""
    if assignments * m ** (a - 1) > MAX_CHECK_PAIRS:
        raise ValueError(f"{assignments} assignments x {m ** (a - 1)} potentials at M={m}"
                         f" exceed the checking limit of {MAX_CHECK_PAIRS}")


def _fewest_cuts(bad: np.ndarray, avoid, cap: int) -> np.ndarray:
    """β per row of ``bad`` (true where a cycle's sum is nonzero mod M), capped at ``cap``.

    Copy shifts keep every check outside a set F whole exactly when each
    cycle avoiding F sums to 0 (a voltage lift repeats a subgraph only
    then), so β is the fewest plan steps meeting every bad cycle.  β <= j
    when ``bad @ avoid(j)`` has a zero column, and then for all larger j,
    so β counts the failing sizes, tried until no row fails.
    """
    beta, bad = np.zeros(len(bad), dtype=np.int64), bad.astype(np.float32)
    for j in range(cap):
        miss = (bad @ avoid(j)).all(axis=1)
        if not miss.any():
            break
        beta += miss
    return beta


def _detached_check_counts(u: UasInstance, steps, m: int, total: int, rows_at, counts, weights):
    """Histogram of β in 0, 1, >= 2 over ``total`` check-difference rows, and two inactive counts.

    ``rows_at(start, stop)`` gives rows start..stop-1 of d = R(e1) - R(e2)
    mod M per step (x, y, e1, e2) of ``u``'s plan ``steps``, with
    multiplicities ``counts`` (1 each when None).  One matmul per block with
    ``weights``, the (basis, all-cycle) pair of sign matrices, gives every
    cycle sum; ``_fewest_cuts`` reads β off the all-cycle sums, and the rows
    whose sums are all nonzero are counted per matrix.  Both tallies add up
    multiplicities.
    """
    _check_pair_limit(total, m, u.a)
    w = np.concatenate(weights, axis=1, dtype=np.int16 if len(steps) * m < 2**15 else np.int64)
    n_basis, row_step = weights[0].shape[1], max(1, _BLOCK_CELLS // (len(steps) + w.shape[1]))
    hist, inactive, avoid = np.zeros(3, dtype=np.int64), [0, 0], _avoid(u)
    for r0 in range(0, total, row_step):
        rows = rows_at(r0, min(r0 + row_step, total))
        mult = 1 if counts is None else counts[r0:r0 + len(rows)]
        bad = (rows.astype(w.dtype) @ w) % m != 0
        for i, cycles in enumerate((bad[:, :n_basis], bad[:, n_basis:])):
            inactive[i] += int((cycles.all(axis=1) * mult).sum())
        np.add.at(hist, _fewest_cuts(bad[:, n_basis:], avoid, 2), mult)
    return hist, inactive


def _last_instance(build):
    """Memoize ``build(u)`` for the last instance object passed, matched with ``is``.

    Instance equality ignores the graph, so equal instances of two graphs
    do not share an entry; holding the object keeps its id from reuse.
    """
    last = (None, None)

    def cached(u: UasInstance):
        nonlocal last
        held, value = last
        if held is not u:
            value = build(u)
            last = u, value
        return value

    return cached


@_last_instance
def _plan_steps(u: UasInstance) -> tuple[tuple[int, int, int, int], ...]:
    """The instance's plan steps (x, y, e1, e2), tree steps then loops."""
    return tuple(map(tuple, activity_plans([u])[0][0].tolist()))


def _sign_columns(u: UasInstance, cycles) -> np.ndarray:
    """e1's sign per plan step (rows) in each cycle (columns).

    A cycle meets both edges of each of its checks, with opposite signs, so
    a check-difference row times a cycle's column is its alternating value sum.
    """
    steps = _plan_steps(u)
    w = np.zeros((len(steps), len(cycles)), np.int8)
    for j, cycle in enumerate(cycles):
        sign = {eid: 1 if i % 2 else -1 for i, (_, _, eid) in enumerate(cycle.steps)}
        w[:, j] = [sign.get(e1, 0) for *_, e1, _ in steps]
        assert all(sign.get(e2, 0) == -sign.get(e1, 0) for *_, e1, e2 in steps)
    return w


# Sign columns of the minimum cycle basis, and of every cycle from ``enumerate_cycles`` alone.
_basis_signs = _last_instance(lambda u: _sign_columns(u, minimum_cycle_basis(u.deg2_subgraph()).cycles))
_all_cycle_signs = _last_instance(lambda u: _sign_columns(u, enumerate_cycles(u.deg2_subgraph(), 2 * u.a)))


@_last_instance
def _avoid(u: UasInstance):
    """``avoid(j)``: float32 (cycles, j-subsets of plan steps), 1 where a cycle uses none of the subset."""
    uses = _all_cycle_signs(u) != 0
    subsets = lambda j: np.array(list(combinations(range(len(uses)), j)), dtype=np.intp)
    return cache(lambda j: (~uses[subsets(j)].any(axis=1)).T.astype(np.float32))


def min_detached_checks(u: UasInstance, reloc: RelocationMap) -> int:
    """Fewest degree-2 checks lost over all copy alignments of the set.

    That is the fewest checks meeting every cycle whose sum is nonzero mod M
    (``_fewest_cuts``), 0 exactly when the set reappears intact in every
    copy, and never more than the n_f loop steps, which meet every cycle.
    """
    steps, v, m = _plan_steps(u), reloc.values, reloc.m_copies
    _check_pair_limit(1, m, u.a)
    bad = np.array([(v[e1] - v[e2]) % m for *_, e1, e2 in steps]) @ _all_cycle_signs(u) % m != 0
    return int(_fewest_cuts(bad[None], _avoid(u), len(steps) - u.a + 1)[0])


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


def _measured_fractions(u: UasInstance, m: int, total: int, rows_at,
                        counts=None) -> EmpiricalFractions:
    """Fractions over ``total`` check-difference rows streamed by ``rows_at``; β is capped at 2."""
    weights = (_basis_signs(u), _all_cycle_signs(u))
    hist, inactive = _detached_check_counts(u, _plan_steps(u), m, total, rows_at, counts, weights)
    n, n_active = int(hist.sum()), int(hist[0])
    tallies = (n_active, n - n_active, int(hist[1]), int(hist[2:].sum()), *inactive)
    return EmpiricalFractions(m, n, *(Fraction(c, n) for c in tallies))


def exhaustive_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    """Measure the fractions over all M^n_f assignment classes.

    Assignments of the degree-2 edges are equivalent when they differ by
    a per-VN copy shift, and each class is hit by the same number of raw
    assignments.  A shift moves the check differences by a potential, so
    each class has one difference vector that is 0 on the a - 1 tree steps
    and the class index's base-M digits on the n_f loops; the full
    enumeration checks this reduction against raw assignments.
    """
    m, n_f = m_copies, len(u.deg2_cns) - u.a + 1
    return _measured_fractions(u, m, m**n_f, lambda start, stop: _digits(m, n_f, start, stop, u.a - 1))


def full_enumeration_fractions(u: UasInstance, m_copies: int) -> EmpiricalFractions:
    """Measure the fractions over every raw assignment of the degree-2 edges.

    Exponential in the edge count (M^(2 d2)); used to validate the class
    reduction at small sizes, not for routine analysis.  Assignment i has
    one base-M^2 digit R(e1) * M + R(e2) per plan step.  Its code sum d_c M^c
    is a high prefix's code plus one entry of a table of low-digit codes (at most
    max(M^2, _BLOCK_CELLS // 16)); prefix blocks in index order fill the histogram.
    """
    m, k = m_copies, len(u.deg2_cns)
    raw, step = m ** (2 * k), max(m * m, _BLOCK_CELLS // 16)
    _check_pair_limit(raw, m, u.a)
    pair_diff = np.subtract.outer(np.arange(m), np.arange(m)).ravel() % m
    low, n_low = pair_diff, 1
    while n_low < k and len(low) * m * m <= step:
        low, n_low = np.add.outer(pair_diff * m**n_low, low).ravel(), n_low + 1
    prefixes, per_block = raw // len(low), step // len(low)
    counts = np.zeros(m**k, dtype=np.int64)
    for start in range(0, prefixes, per_block):
        idx = np.arange(start, min(start + per_block, prefixes))
        high = sum(pair_diff[idx // m ** (2 * c) % (m * m)] * m ** (n_low + c) for c in range(k - n_low))
        counts += np.bincount(np.add.outer(high, low).ravel(), minlength=m**k)
    return _measured_fractions(u, m, m**k, lambda start, stop: _digits(m, k, start, stop), counts)


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


def md_object_profile(u: UasInstance, reloc: RelocationMap) -> MdObjectProfile:
    """Connected-component profile of the instance's part of the MD matrix.

    The MD graph is a Z_M voltage lift of the host, so the instance lifts
    to one component per coset of the subgroup of Z_M its cycle sums
    generate.  M is an odd prime, so that subgroup is trivial, giving M
    disjoint copies, exactly when every fundamental-cycle sum is 0
    (``intact``), and all of Z_M, giving one object of M * a VNs,
    otherwise.  Every lifted check keeps its host degree, so no MD matrix
    is built.
    """
    a, d1, m = u.a, u.d1, reloc.m_copies
    if intact(activity_plans([u]), reloc.values[:, None], m)[0, 0]:
        return MdObjectProfile(m * a, m * d1, False, ((a, d1),) * m)
    return MdObjectProfile(m * a, m * d1, True, ((m * a, m * d1),))


# ---------------------------------------------------------------------------
# Monte Carlo

_MC_STRIDE = 1_000_003
_WORD_MARGIN = 4


def _draw_values(n_entries: int, m: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Relocation values of trials start..stop-1, one column per host entry id.

    Trial t reads ``random.Random(seed * _MC_STRIDE + t)`` as ``randrange(m)``
    would per entry (m < 2^32): the top k = m.bit_length() bits of each 32-bit
    word, skipping values of m or more, from one ``getrandbits`` block of the
    expected word count plus ``_WORD_MARGIN`` * (1 + sqrt(n_entries)), about three
    standard deviations.  A trial that runs short is read again with twice the words.
    """
    rng, k, out = random.Random(), m.bit_length(), np.empty((stop - start, n_entries), dtype=np.int64)
    todo, words = np.arange(start, stop), (n_entries << k) // m + _WORD_MARGIN * (1 + int(n_entries**0.5))
    while len(todo):
        buf = bytearray()
        for t in todo.tolist():
            rng.seed(seed * _MC_STRIDE + t)
            buf += rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        raw = np.frombuffer(buf, "<u4").reshape(len(todo), words)
        keep = raw < np.uint32(m << 32 - k)
        full = keep.sum(axis=1) >= n_entries
        keep &= (keep.cumsum(axis=1, dtype=np.min_scalar_type(words)) <= n_entries) & full[:, None]
        out[todo[full] - start] = (raw[keep] >> np.uint32(32 - k)).reshape(-1, n_entries)
        todo, words = todo[~full], 2 * words
    return out


def _mc_chunk(args) -> np.ndarray:
    """Surviving-instance counts of one job's trials, drawn and scored at once.

    An intact host instance reappears once in each of the M copies.
    """
    plans, n_entries, m, seed, start, stop = args
    return m * intact(plans, _draw_values(n_entries, m, seed, start, stop).T, m).sum(axis=0)


def _mc_counts(host: BinaryMatrix, instances, m: int, seed: int, start: int, stop: int,
               threads: int = 1) -> np.ndarray:
    """Per-trial surviving-instance counts of trials start..stop-1.

    Jobs hold at most ``_BLOCK_CELLS`` (trial, entry) values and about an
    even share of the trials per thread.  Trial t draws one value per host
    entry, in entry order, from ``random.Random(seed * _MC_STRIDE + t)``,
    so every job size and thread count sees the same relocations.
    """
    plans, n_entries = activity_plans(instances), len(host.entries)
    chunk = max(1, min(_BLOCK_CELLS // n_entries, -(-(stop - start) // threads)))
    jobs = [(plans, n_entries, m, seed, s, min(s + chunk, stop))
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
    owner = {}
    for j, inst in enumerate(instances):
        for cycle in enumerate_cycles(inst.deg2_subgraph(), 2 * inst.a):
            i = owner.setdefault(cycle.mask, j)
            if i != j:
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
    ``relocation.intact``'s fundamental-cycle sums decide without building
    the MD matrix.  Results do not depend on ``threads``.  The standard
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
