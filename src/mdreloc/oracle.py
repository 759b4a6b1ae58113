"""Brute-force verifiers for relocation activity, fractions, and averages.

These results sit on the other side of an equality check from the
closed forms and the designer, but not all from first principles:
``monte_carlo_avg`` and ``md_object_profile`` score with
``relocation.intact``, and the detached-check searches below take their
steps from ``relocation.activity_plans``.  Per-edge references in the
tests check those paths (``tests/reference_mc.py``, ``reference_md.py``
and ``reference_fractions.py``).

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
* ``md_object_profile`` reads the shape of an instance's lift off the
  same potential solve; the tests compare it with a per-edge lift.

The first three share one detached-check kernel, ``_detached_check_counts``,
which scores vectors of check differences R(e1) - R(e2) with multiplicities;
the full enumeration histograms its raw assignments into them.  Rows stream
through it in blocks of at most ``_BLOCK_CELLS`` (row, potential) cells, so
its memory is bounded for every a and M; a run of more than MAX_CHECK_PAIRS
(assignment, potential) pairs is refused with ``ValueError`` before any work.
Steps constant over a block (all of ``min_detached_checks``'s one row; the
tree steps and high loop digits of exhaustive rows) are scored once per
potential.  The plan steps, and the fractions' cycle sign columns, come from
memos kept per instance object, so a sweep over M plans once.
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
from .relocation import (
    _BLOCK_CELLS,
    RelocationMap,
    activity_plans,
    check_copies,
    intact,
)
from .tanner import BinaryMatrix, build_graph

# ``_BLOCK_CELLS`` bounds the (assignment, potential) pairs of a detached-check
# block and the (trial, entry) values of a Monte Carlo job.
# Larger runs would not finish, so the kernel refuses them before any work.
MAX_CHECK_PAIRS = 1 << 32


def _digits(m: int, width: int, start: int, stop: int) -> np.ndarray:
    """Base-m digit strings of the numbers start..stop-1, one per row, little-endian."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, width), dtype=np.min_scalar_type(m - 1))
    for k in range(width):
        out[:, k] = (idx // m**k) % m
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


def _potential_count(assignments: int, m: int, a: int) -> int:
    """M^(a-1) potentials per assignment; refuses more than ``MAX_CHECK_PAIRS`` pairs."""
    if assignments * m ** (a - 1) > MAX_CHECK_PAIRS:
        raise ValueError(f"{assignments} assignments x {m ** (a - 1)} potentials at M={m}"
                         f" exceed the checking limit of {MAX_CHECK_PAIRS}")
    return m ** (a - 1)


def _detached_check_counts(a: int, steps, m: int, total: int, rows_at, counts=None, weights=()):
    """Histogram over ``total`` check-difference rows of the fewest detached checks.

    ``steps`` is a potential plan over ``a`` VNs, tree steps then loops.
    ``rows_at(start, stop)`` gives rows start..stop-1, one d = R(e1) - R(e2)
    mod M per step (x, y, e1, e2), with multiplicities ``counts`` (1 each
    when None).  A potential gives each VN a copy shift s (the first VN
    pinned to 0; a global shift changes nothing).  The step's check is kept
    when R(e1) + s(x) = R(e2) + s(y) mod M (both edges in one copy of the
    check), i.e. d = s(y) - s(x).  A step on which every row of a block
    holds the same d is scored once per potential into a base count; only
    the other steps are compared over the block's (row, potential) cells.
    Also counts, per matrix of signed step weights, the rows on which every
    cycle sum is nonzero.  Both tallies add up multiplicities.
    """
    n_pots = _potential_count(total, m, a)
    pairs, cdt = tuple((x, y) for x, y, _, _ in steps), np.min_scalar_type(len(steps))
    pot_step, row_step = min(n_pots, _BLOCK_CELLS), max(1, _BLOCK_CELLS // n_pots)
    hist, inactive = np.zeros(len(steps) + 1, dtype=np.int64), [0] * len(weights)
    for r0 in range(0, total, row_step):
        rows = rows_at(r0, min(r0 + row_step, total))
        mult = 1 if counts is None else counts[r0:r0 + len(rows)]
        beta = np.full(len(rows), len(steps), dtype=cdt)
        fixed = (rows == rows[0]).all(axis=0)
        for p0 in range(0, n_pots, pot_step):
            p1 = min(p0 + pot_step, n_pots)
            targets = _targets(m, a, pairs, p0, p1)
            detached = np.empty((len(rows), p1 - p0), dtype=cdt)
            detached[:] = (rows[0, fixed][:, None] != targets[fixed]).sum(axis=0, dtype=cdt)
            for k in np.flatnonzero(~fixed):
                detached += rows[:, k, None] != targets[k]
            np.minimum(beta, detached.min(axis=1), out=beta)
        np.add.at(hist, beta, mult)
        for i, w in enumerate(weights):
            inactive[i] += int((((rows.astype(w.dtype) @ w) % m != 0).all(axis=1) * mult).sum())
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
    """The instance's potential plan as (x, y, e1, e2) steps, tree steps then loops."""
    return tuple(map(tuple, np.concatenate(activity_plans([u]), axis=1)[0].tolist()))


@_last_instance
def _cycle_signs(u: UasInstance) -> tuple[np.ndarray, np.ndarray]:
    """e1's sign per plan step (rows) in each cycle, for the minimum basis and for all cycles.

    A cycle meets both edges of each of its checks, with opposite signs, so
    a check-difference row times a cycle's column is its alternating value sum.
    """
    steps, sub, signs = _plan_steps(u), u.deg2_subgraph(), []
    for cycles in (minimum_cycle_basis(sub).cycles, enumerate_cycles(sub, 2 * u.a)):
        w = np.zeros((len(steps), len(cycles)), np.int8)
        for j, cycle in enumerate(cycles):
            sign = {eid: 1 if i % 2 else -1 for i, (_, _, eid) in enumerate(cycle.steps)}
            w[:, j] = [sign.get(e1, 0) for *_, e1, _ in steps]
            assert all(sign.get(e2, 0) == -sign.get(e1, 0) for *_, e1, e2 in steps)
        signs.append(w)
    return tuple(signs)


def min_detached_checks(u: UasInstance, reloc: RelocationMap) -> int:
    """Fewest degree-2 checks lost over all copy alignments of the set.

    The minimum is 0 exactly when the set reappears intact in every copy
    (see ``_detached_check_counts`` for the search over alignments).
    """
    steps, v, m = _plan_steps(u), reloc.values, reloc.m_copies
    row = np.array([[(v[e1] - v[e2]) % m for *_, e1, e2 in steps]])
    hist, _ = _detached_check_counts(u.a, steps, m, 1, lambda start, stop: row)
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


def _measured_fractions(u: UasInstance, m: int, total: int, rows_at,
                        counts=None) -> EmpiricalFractions:
    """Fractions over ``total`` check-difference rows streamed by ``rows_at``.

    The cycle sign columns are widened to a dtype that holds a row's sums at this M.
    """
    steps = _plan_steps(u)
    weights = [w.astype(np.int16 if len(steps) * m < 2**15 else np.int64) for w in _cycle_signs(u)]
    hist, inactive = _detached_check_counts(u.a, steps, m, total, rows_at, counts, weights)
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
    return _measured_fractions(u, m, m**n_f, lambda start, stop: np.pad(
        _digits(m, n_f, start, stop), ((0, 0), (u.a - 1, 0))))


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
    _potential_count(raw, m, u.a)
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
    generate.  M is an odd prime (``check_copies``), so that subgroup is
    trivial, giving M disjoint copies, exactly when ``intact`` passes, and
    all of Z_M, giving one object of M * a VNs, otherwise.  Every lifted
    check keeps its host degree, so no MD matrix is built.
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
    ``relocation.intact`` decides without building the MD matrix.  Results
    do not depend on ``threads``.  M must be an odd prime below 2^32 (one
    32-bit word per drawn value); the standard error needs at least 2 trials.
    """
    check_copies(m_copies)
    if m_copies >= 2**32:
        raise ValueError(f"number of copies {m_copies} must be below 2^32 for the draw")
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
