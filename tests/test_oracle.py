"""Exhaustive and Monte Carlo oracles versus the closed-form formulas."""

from fractions import Fraction as Fr

import pytest

import mdreloc as md

from conftest import arrangement_1, arrangement_2, k4_host


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
            assert (beta == 0) == md.is_uas_active(basis_4_2, reloc)


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
        sub = md.md_instance_subgraph(inst_4_2, reloc)
        h_md = md.assemble_md(uas_4_2.incidence, reloc)
        md_pairs = {(cn, vn) for cn, vn in h_md.entries}
        assert {(cn, vn) for cn, vn, _ in sub.edges} <= md_pairs
        assert len(sub.edges) == 3 * len(inst_4_2.entry_ids)

    def test_subgraph_degrees(self, uas_4_2, inst_4_2):
        sub = md.md_instance_subgraph(inst_4_2, arrangement_2(uas_4_2.incidence))
        assert all(sub.vn_degree(v) == 3 for v in sub.vns)
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

    def test_no_threads_rejected(self):
        with pytest.raises(ValueError, match="at least 1 thread"):
            md.monte_carlo_avg(k4_host(), md.UasConfig(4, 0, 3), 3, trials=10, threads=0)

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
