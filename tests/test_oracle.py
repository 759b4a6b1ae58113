"""Exhaustive and Monte Carlo oracles versus the closed-form formulas."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction as Fr
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
import mdreloc.oracle as oracle

import reference_md
from conftest import array_host, arrangement_1, arrangement_2, k4_host, shared_cycle_host
from reference_activity import alternating_value_sum, is_uas_active
from reference_mc import _mc_chunk as reference_mc_chunk, reference_draw_values
from reference_fractions import (
    reference_exhaustive_fractions,
    reference_full_enumeration_fractions,
    reference_min_detached_checks,
    reference_raw_histogram,
)


class TestMinDetachedChecks:
    def test_reference_arrangements(self, uas_4_2, inst_4_2):
        assert md.min_detached_checks(inst_4_2, arrangement_1(uas_4_2.incidence)) == 0
        assert md.min_detached_checks(inst_4_2, arrangement_2(uas_4_2.incidence)) == 2

    def test_zero_map(self, uas_4_2, inst_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        assert md.min_detached_checks(inst_4_2, reloc) == 0

    def test_single_entry_detaches_one(self, uas_4_2, inst_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        reloc.assign_entry(0, 0, 1)
        assert md.min_detached_checks(inst_4_2, reloc) == 1

    def test_zero_iff_active(self, uas_4_2, inst_4_2, basis_4_2):
        # spot-check the equivalence on a few structured maps
        for entries, ells in (
            (((4, 1), (4, 3)), (1, 1)),
            (((4, 1), (4, 3)), (2, 1)),
            (((0, 0), (1, 1)), (1, 2)),
            (((2, 3),), (2,)),
        ):
            reloc = md.RelocationMap(3, uas_4_2.incidence)
            for (r, c), ell in zip(entries, ells):
                reloc.assign_entry(r, c, ell)
            beta = md.min_detached_checks(inst_4_2, reloc)
            assert (beta == 0) == is_uas_active(basis_4_2, reloc)


class TestExhaustive:
    def test_two_cycle_set_at_m3(self, inst_4_2):
        ex = md.exhaustive_fractions(inst_4_2, 3)
        assert ex.classes == 9
        assert ex.f_active == Fr(1, 9)
        assert ex.f_inactive == Fr(8, 9)
        assert ex.f_one_detached == Fr(2, 3)
        assert ex.f_deep_inactive == Fr(2, 9)
        assert ex.f_basis_inactive == Fr(4, 9)
        assert ex.f_all_cycles_inactive == Fr(2, 9)

    @pytest.mark.parametrize("m_copies", [3, 5, 7])
    def test_matches_closed_forms(self, inst_4_2, inst_4_4, basis_4_2, basis_4_4, m_copies):
        for inst, basis in ((inst_4_2, basis_4_2), (inst_4_4, basis_4_4)):
            ex = md.exhaustive_fractions(inst, m_copies)
            rep = md.fraction_report_for_basis(basis, m_copies)
            assert ex.f_active == rep.f_active
            assert ex.f_inactive == rep.f_inactive
            assert ex.f_basis_inactive == rep.f_basis_inactive
            assert ex.f_deep_inactive == rep.f_deep_inactive
            assert ex.f_inactive - ex.f_one_detached == rep.f_deep_inactive
            assert ex.f_all_cycles_inactive <= rep.f_all_cycles_inactive_bound

    def test_bound_tight_only_when_all_cycles_in_span_shape(self, inst_4_2, inst_4_4,
                                                            basis_4_2, basis_4_4):
        ex = md.exhaustive_fractions(inst_4_2, 5)
        rep = md.fraction_report_for_basis(basis_4_2, 5)
        assert ex.f_all_cycles_inactive == rep.f_all_cycles_inactive_bound == Fr(12, 25)
        ex = md.exhaustive_fractions(inst_4_4, 5)
        rep = md.fraction_report_for_basis(basis_4_4, 5)
        assert ex.f_all_cycles_inactive == Fr(16, 125)
        assert rep.f_all_cycles_inactive_bound == Fr(24, 125)

    def test_full_enumeration_agrees(self, inst_4_2):
        reduced = md.exhaustive_fractions(inst_4_2, 3)
        full = md.full_enumeration_fractions(inst_4_2, 3)
        assert full.classes == 3**10
        for field in ("f_active", "f_inactive", "f_one_detached",
                      "f_deep_inactive", "f_basis_inactive", "f_all_cycles_inactive"):
            assert getattr(full, field) == getattr(reduced, field), field


@lru_cache(maxsize=None)
def six_vn_instance() -> md.UasInstance:
    """The first (6,2,γ3) instance of array_host(3,7,11): a=6, 8 checks, n_f=3."""
    host = md.build_graph(md.expand_qc(array_host(3, 7, 11)))
    return md.enumerate_uas(host, md.UasConfig(6, 2, 3))[0]


@pytest.fixture(scope="module")
def inst_6_2():
    return six_vn_instance()


BLOCK_SIZES = [1, 27, 100, 1000]


@lru_cache(maxsize=None)
def reference_fractions_of(name, m_copies):
    inst = six_vn_instance() if name == "6_2" else md.canonical_uas(name).instance()
    return inst, reference_exhaustive_fractions(inst, m_copies)


@pytest.mark.differential
class TestAgainstReference:
    """The chunked kernel against the per-check, per-row and int64 bodies it replaced.

    A kernel block holds max(1, cells // M^(a-1)) rows, and cells below
    M^(a-1) also split the potentials.  A one-row block has every step
    constant; a few exhaustive rows keep the tree steps and the high loop
    digits constant; the whole full enumeration of 4_2_g3 at M=3 varies
    every step.  The tests that patch nothing run the default size.
    """

    @pytest.mark.parametrize("m_copies", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("name", ["4_2_g3", "4_4_g4"])
    def test_reference_sets(self, name, m_copies):
        inst = md.canonical_uas(name).instance()
        assert md.exhaustive_fractions(inst, m_copies) == reference_exhaustive_fractions(
            inst, m_copies
        )

    @pytest.mark.parametrize("m_copies", [3, 5, 7])
    def test_six_vn_instance(self, inst_6_2, m_copies):
        ex = md.exhaustive_fractions(inst_6_2, m_copies)
        assert ex.classes == m_copies**3
        assert ex == reference_exhaustive_fractions(inst_6_2, m_copies)

    def test_full_enumeration(self, inst_4_2):
        full = md.full_enumeration_fractions(inst_4_2, 3)
        assert full.classes == 3**10
        assert full == reference_full_enumeration_fractions(inst_4_2, 3)

    @pytest.mark.parametrize("cells", [1, 5, 27, 100])
    def test_small_blocks_split_potentials(self, inst_4_4, inst_6_2, monkeypatch, cells):
        # Blocks narrower than the 27 (a=4) or 243 (a=6) potentials at M=3 make
        # the kernel carry its running minimum across potential blocks.
        expected = [reference_exhaustive_fractions(inst, 3) for inst in (inst_4_4, inst_6_2)]
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        assert [md.exhaustive_fractions(inst, 3) for inst in (inst_4_4, inst_6_2)] == expected

    # At M=5 and 7 only the larger sizes, so no case runs more than 6561 blocks.
    @pytest.mark.parametrize("m_copies, cells", [(3, c) for c in BLOCK_SIZES]
                             + [(5, c) for c in BLOCK_SIZES[2:]] + [(7, c) for c in BLOCK_SIZES[3:]])
    @pytest.mark.parametrize("name", ["4_2_g3", "4_4_g4", "6_2"])
    def test_block_shapes(self, monkeypatch, name, m_copies, cells):
        inst, expected = reference_fractions_of(name, m_copies)
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        assert md.exhaustive_fractions(inst, m_copies) == expected

    @pytest.mark.parametrize("cells", [1, 5, 27, 100, 1000])
    def test_small_blocks_split_raw_stream(self, inst_4_2, monkeypatch, cells):
        # The raw stream goes in blocks of max(M^2, cells // 16) assignments and
        # the weighted kernel in blocks below or above the 27 potentials; at
        # 1000 cells the last block of each is partial.
        expected = reference_full_enumeration_fractions(inst_4_2, 3)
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        assert md.full_enumeration_fractions(inst_4_2, 3) == expected

    @staticmethod
    @lru_cache(maxsize=None)
    def step_weights(name, m_copies):
        """(plan steps, all-cycle weight matrix) the fraction sweep hands the kernel."""
        kernel = oracle._detached_check_counts
        with mock.patch.object(oracle, "_detached_check_counts", wraps=kernel) as spy:
            md.exhaustive_fractions(md.canonical_uas(name).instance(), m_copies)
        _, steps, *_, (_, all_cycles) = spy.call_args.args
        return steps, all_cycles

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["4_2_g3", "4_4_g4"]),
        m_copies=st.sampled_from([3, 5, 7]),
        data=st.data(),
    )
    def test_step_weights_give_cycle_sums(self, name, m_copies, data):
        fix = md.canonical_uas(name)
        inst = fix.instance()
        reloc = md.RelocationMap(m_copies, fix.incidence)
        for r, c in fix.incidence.entries:
            reloc.assign_entry(r, c, data.draw(st.integers(0, m_copies - 1)))
        steps, weights = self.step_weights(name, m_copies)
        diffs = [(reloc.values.item(e1) - reloc.values.item(e2)) % m_copies for *_, e1, e2 in steps]
        sums = [sum(d * int(w) for d, w in zip(diffs, col)) for col in weights.T]
        cycles = md.enumerate_cycles(inst.deg2_subgraph(), 2 * len(inst.deg2_cns))
        assert len(cycles) == len(sums) > 0
        for cycle, total in zip(cycles, sums):
            assert total % m_copies == alternating_value_sum(cycle, reloc.values.item) % m_copies

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["4_2_g3", "4_4_g4"]),
        m_copies=st.sampled_from([3, 5, 7]),
        data=st.data(),
    )
    def test_min_detached_checks(self, name, m_copies, data):
        fix = md.canonical_uas(name)
        inst = fix.instance()
        reloc = md.RelocationMap(m_copies, fix.incidence)
        for r, c in fix.incidence.entries:
            reloc.assign_entry(r, c, data.draw(st.integers(0, m_copies - 1)))
        cells = data.draw(st.sampled_from(BLOCK_SIZES + [oracle._BLOCK_CELLS]))
        with mock.patch.object(oracle, "_BLOCK_CELLS", cells):
            assert md.min_detached_checks(inst, reloc) == reference_min_detached_checks(inst, reloc)


@pytest.mark.differential
class TestRawHistogramAgainstReference:
    """The low-digit code table plus high prefixes against each index's div/mod code."""

    # The table takes as many low digits as fit max(M^2, cells // 16) codes, so one
    # bincount block means it covers all k digits.  4_2_g3 has k=5, 4_4_g4 k=6.
    @pytest.mark.parametrize("name, m_copies, cells, blocks", [
        ("4_2_g3", 3, oracle._BLOCK_CELLS, 5),  # 4 of 5 digits, 9 prefixes in pairs
        ("4_2_g3", 3, 16 * 3**10, 1),  # all 5 digits
        ("4_2_g3", 3, 16 * 250, 243),  # 2 of 5 digits, 729 prefixes in threes
        ("4_2_g3", 3, 100, 6561),  # 1 digit, one prefix per block
        ("4_2_g3", 5, oracle._BLOCK_CELLS, 625),  # 3 of 5 digits
        ("4_4_g4", 3, oracle._BLOCK_CELLS, 41),  # 4 of 6 digits, 81 prefixes in pairs
        ("4_4_g4", 3, 16 * 3**12, 1),  # all 6 digits
    ])
    def test_counts_equal(self, monkeypatch, name, m_copies, cells, blocks):
        inst = md.canonical_uas(name).instance()
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        with mock.patch.object(oracle, "_measured_fractions", wraps=oracle._measured_fractions) as spy, \
                mock.patch.object(oracle.np, "bincount", wraps=np.bincount) as bincount:
            md.full_enumeration_fractions(inst, m_copies)
        assert bincount.call_count == blocks
        counts = spy.call_args.args[4]
        assert np.array_equal(counts, reference_raw_histogram(m_copies, len(inst.deg2_cns), cells))


@pytest.mark.differential
class TestDrawAgainstReference:
    """One getrandbits block per trial against one randrange call per entry."""

    @pytest.mark.parametrize("n_entries", [1, 12, 60, 231])
    # 2^32 - 5, the largest 32-bit prime, takes whole words.
    @pytest.mark.parametrize("m_copies", [3, 5, 7, 13, 101, 65537, 2**32 - 5])
    def test_values_equal(self, m_copies, n_entries):
        for seed in (0, 11, -4, 2**40 + 3):
            for start, stop in ((5, 45), (9, 9)):
                drawn = oracle._draw_values(n_entries, m_copies, seed, start, stop)
                expected = reference_draw_values(n_entries, m_copies, seed, start, stop)
                assert drawn.dtype == expected.dtype
                assert drawn.tolist() == expected.tolist()

    def test_short_blocks_drawn_again(self, monkeypatch):
        # Without a margin a block holds the expected word count, so trials run short.
        cases = [(n, m, seed) for n in (1, 12, 60, 231) for m in (3, 5, 65537) for seed in (0, -4)]
        expected = [reference_draw_values(n, m, seed, 3, 43).tolist() for n, m, seed in cases]
        calls = []

        class Counting(random.Random):
            def getrandbits(self, k):
                calls.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(oracle, "_WORD_MARGIN", 0)
        monkeypatch.setattr(oracle.random, "Random", Counting)
        for (n, m, seed), want in zip(cases, expected):
            calls.clear()
            assert oracle._draw_values(n, m, seed, 3, 43).tolist() == want
            assert len(calls) > 40


def own_steps(u):
    return np.concatenate(oracle.activity_plans([u]), axis=1)[0].tolist()


class TestInstanceMemo:
    """M-independent work is built once per instance object, never shared by equal instances."""

    def test_equal_instances_of_two_graphs(self, uas_4_2, inst_4_2):
        # Checks 0 and 4 are both degree 2, so swapping their rows keeps every
        # node id of the instance and moves its edges.
        inc = uas_4_2.incidence
        swap = {0: 4, 4: 0}
        rows = [(swap.get(r, r), c) for r, c in inc.entries]
        other = md.enumerate_uas(md.build_graph(md.BinaryMatrix.from_entries(inc.n_rows, inc.n_cols, rows)),
                                 uas_4_2.config)[0]
        assert other == inst_4_2 and own_steps(other) != own_steps(inst_4_2)
        for u in (inst_4_2, other, inst_4_2):
            assert list(map(list, oracle._plan_steps(u))) == own_steps(u)

    def test_sweep_builds_once(self):
        inst = md.canonical_uas("4_4_g4").instance()
        with mock.patch.object(oracle, "activity_plans", wraps=oracle.activity_plans) as plans, \
                mock.patch.object(oracle, "minimum_cycle_basis", wraps=oracle.minimum_cycle_basis) as basis, \
                mock.patch.object(oracle, "enumerate_cycles", wraps=oracle.enumerate_cycles) as cycles:
            for m_copies in (3, 5, 7, 11, 13):
                md.exhaustive_fractions(inst, m_copies)
        assert (plans.call_count, basis.call_count, cycles.call_count) == (1, 1, 1)

    def test_fresh_instance_plans_again(self, uas_4_2):
        first, second = uas_4_2.instance(), uas_4_2.instance()
        assert first == second and first is not second
        with mock.patch.object(oracle, "activity_plans", wraps=oracle.activity_plans) as plans:
            for u in (first, first, second):
                md.exhaustive_fractions(u, 3)
        assert plans.call_count == 2

    def test_detached_checks_skip_cycle_basis(self):
        # A 4-cycle host whose (4,2) instances have no chained minimum cycle basis.
        shifts = [0] * 8 + [1]
        host = md.expand_qc(md.QcMatrix.from_blocks(
            3, 3, 3, {(i, j): shifts[i * 3 + j] for i in range(3) for j in range(3)}))
        instances = md.enumerate_uas(md.build_graph(host), md.UasConfig(4, 2, 3))
        with pytest.raises(ValueError, match="consecutive cycles"):
            md.minimum_cycle_basis(instances[0].deg2_subgraph())
        reloc = md.RelocationMap(3, host)
        for k, (r, c) in enumerate(host.entries):
            reloc.assign_entry(r, c, k % 3)
        with mock.patch.object(oracle, "minimum_cycle_basis", wraps=oracle.minimum_cycle_basis) as basis:
            got = [md.min_detached_checks(u, reloc) for u in instances]
        assert basis.call_count == 0
        assert got == [reference_min_detached_checks(u, reloc) for u in instances]


class TestKernelLimits:
    def test_full_enumeration_of_4_4_bounded(self, inst_4_4):
        # Materialising every assignment as int64 peaks above 500 MB here.
        tracemalloc.start()
        try:
            full = md.full_enumeration_fractions(inst_4_4, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.classes == 3**12
        reduced = md.exhaustive_fractions(inst_4_4, 3)
        assert dataclasses.replace(full, classes=reduced.classes) == reduced
        assert peak < 64 * 2**20

    def test_oversized_run_refused(self, inst_4_2, uas_4_2):
        with pytest.raises(ValueError, match="checking limit"):
            md.exhaustive_fractions(inst_4_2, 10007)
        with pytest.raises(ValueError, match="checking limit"):
            md.full_enumeration_fractions(inst_4_2, 11)
        with pytest.raises(ValueError, match="checking limit"):
            md.min_detached_checks(inst_4_2, md.RelocationMap(10007, uas_4_2.incidence))


class TestMdProfiles:
    def test_intact_arrangement(self, uas_4_2, inst_4_2):
        prof = md.md_object_profile(inst_4_2, arrangement_1(uas_4_2.incidence))
        assert prof == md.MdObjectProfile(12, 6, False, ((4, 2), (4, 2), (4, 2)))

    def test_broken_arrangement(self, uas_4_2, inst_4_2):
        prof = md.md_object_profile(inst_4_2, arrangement_2(uas_4_2.incidence))
        assert prof == md.MdObjectProfile(12, 6, True, ((12, 6),))

    def test_zero_map_splits_into_copies(self, uas_4_2, inst_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        prof = md.md_object_profile(inst_4_2, reloc)
        assert prof.components == ((4, 2), (4, 2), (4, 2))

    def test_subgraph_embeds_in_assembled_matrix(self, uas_4_2, inst_4_2):
        reloc = arrangement_2(uas_4_2.incidence)
        sub = reference_md.md_instance_subgraph(inst_4_2, reloc)
        h_md = md.assemble_md(reloc)
        md_pairs = {(cn, vn) for cn, vn in h_md.entries}
        assert {(cn, vn) for cn, vn, _ in sub.edges} <= md_pairs
        assert len(sub.edges) == 3 * len(uas_4_2.incidence.entries)

    def test_subgraph_degrees(self, uas_4_2, inst_4_2):
        sub = reference_md.md_instance_subgraph(inst_4_2, arrangement_2(uas_4_2.incidence))
        assert all(len(sub.vn_adj[v]) == 3 for v in sub.vns)
        assert all(sub.cn_degree(c) in (1, 2) for c in sub.cns)


class TestMonteCarlo:
    def test_certification_required(self, uas_4_2):
        with pytest.raises(ValueError, match="not certified"):
            md.monte_carlo_avg(uas_4_2.incidence, md.UasConfig(4, 2, 3), 3, trials=10)

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError, match="no 4_0_g4 instances"):
            md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 4), 3, trials=10)

    @pytest.mark.parametrize("trials", [-1, 0, 1])
    def test_too_few_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="at least 2 trials"):
            md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 3, trials=trials)

    @pytest.mark.parametrize("m_copies", [2, 4, 9])
    def test_copies_not_odd_prime_rejected(self, m_copies):
        with pytest.raises(ValueError, match="must be an odd prime"):
            md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), m_copies, trials=10)

    def test_copies_beyond_one_word_rejected(self):
        # 2^32 + 15 is prime; randrange would read two words per value.
        with pytest.raises(ValueError, match=r"^number of copies 4294967311 must be below 2\^32 for the draw$"):
            md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 2**32 + 15, trials=10)

    def test_no_threads_rejected(self):
        with pytest.raises(ValueError, match="at least 1 thread"):
            md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 3, trials=10, threads=0)

    def test_shared_cycle_rejected(self):
        with pytest.raises(ValueError, match="^instances 0 and 1 share a cycle$"):
            md.monte_carlo_avg(shared_cycle_host(), md.UasConfig(4, 0, 3), 3, trials=10)

    def test_cycle_free_target(self):
        pair = md.BinaryMatrix.from_entries(1, 2, [(0, 0), (0, 1)])
        res = md.monte_carlo_avg(pair, md.UasConfig(2, 0, 1), 3, trials=5)
        assert (res.mean, res.std_error, res.host_instances) == (3.0, 0.0, 1)
        assert res.expected == 3

    def test_deterministic_given_seed(self):
        first = md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 3, trials=200, seed=9)
        again = md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 3, trials=200, seed=9)
        assert first == again

    def test_threads_bit_identical(self):
        serial = md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 3, trials=240, seed=4)
        pooled = md.monte_carlo_avg(
            k4_host(), md.UasConfig(4, 0, 3), 3, trials=240, seed=4, threads=2
        )
        assert serial == pooled

    def test_expected_value_recorded(self):
        res = md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 5, trials=50, seed=0)
        assert res.expected == Fr(1, 25)
        assert res.host_instances == 1
        assert res.trials == 50

    @pytest.mark.parametrize(
        "m_copies, mean, std_error",
        [(3, 0.1062, 0.0055439362841714105), (5, 0.0405, 0.004481962047851348)],
    )
    def test_criterion_7_stream_pinned(self, m_copies, mean, std_error):
        # The assemble-and-recount trials gave exactly these figures.
        res = md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), m_copies, trials=10_000, seed=11)
        assert (res.mean, res.std_error) == (mean, std_error)

    def test_large_m_accepted(self):
        res = md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 101, trials=10_000, seed=3)
        assert res.trials == 10_000
        assert res.expected == Fr(1, 101**2)


def two_k4_host() -> md.BinaryMatrix:
    """Two K4 blocks on the diagonal: two stand-alone (4,0) instances."""
    k4 = k4_host()
    entries = list(k4.entries) + [(r + k4.n_rows, c + k4.n_cols) for r, c in k4.entries]
    return md.BinaryMatrix.from_entries(2 * k4.n_rows, 2 * k4.n_cols, entries)


def k33_host() -> md.BinaryMatrix:
    """One check per edge of K3,3: a single stand-alone (6,0,3) instance.

    Its spanning tree is no star, so the potential solve must orient steps
    whose first VN is not yet solved.
    """
    pairs = [(i, j) for i in range(3) for j in range(3, 6)]
    return md.BinaryMatrix.from_entries(9, 6, [(r, v) for r, pair in enumerate(pairs) for v in pair])


HOSTS = {"k4": (k4_host(), md.UasConfig(4, 0, 3)), "two-k4": (two_k4_host(), md.UasConfig(4, 0, 3)),
         "k33": (k33_host(), md.UasConfig(6, 0, 3))}


class TestMonteCarloAgainstReference:
    """Per-trial counts of the potential solve against assembling and recounting."""

    @staticmethod
    def batched(name, m_copies, seed, start, stop, threads=1):
        host, config = HOSTS[name]
        instances = md.enumerate_uas(md.build_graph(host), config)
        return oracle._mc_counts(host, instances, m_copies, seed, start, stop, threads).tolist()

    @staticmethod
    def reference(name, m_copies, seed, start, stop):
        host, config = HOSTS[name]
        return reference_mc_chunk((host, config, m_copies, seed, start, stop))

    # K3,3 survives with probability M^-4, so 600 trials at M=7 would all read 0.
    @pytest.mark.parametrize(
        "name, m_copies", [(n, m) for n in HOSTS for m in (3, 5, 7) if (n, m) != ("k33", 7)]
    )
    def test_counts_equal(self, name, m_copies):
        expected = self.reference(name, m_copies, 7, 100, 700)
        assert self.batched(name, m_copies, 7, 100, 700) == expected
        assert any(expected)

    @pytest.mark.parametrize("name", ["k4", "two-k4"])
    def test_large_m(self, name):
        assert self.batched(name, 101, 2, 0, 20) == self.reference(name, 101, 2, 0, 20)

    @pytest.mark.parametrize("cells", [1, 30])
    def test_small_draw_blocks(self, monkeypatch, cells):
        # One trial (cells=1) or one to two trials (cells=30) per drawn block.
        expected = self.reference("two-k4", 3, 1, 10, 70)
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        assert self.batched("two-k4", 3, 1, 10, 70) == expected

    def test_threads_match_serial_and_reference(self):
        pooled = self.batched("two-k4", 3, 5, 0, 240, threads=2)
        assert pooled == self.batched("two-k4", 3, 5, 0, 240) == self.reference("two-k4", 3, 5, 0, 240)
