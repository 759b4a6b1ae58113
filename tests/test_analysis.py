"""Check-group analysis and the closed-form fraction formulas."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
from mdreloc.analysis import TSV_HEADER, tsv_row


class TestBasisIntersections:
    def test_two_cycle_reference(self, basis_4_2):
        info = md.basis_intersections(basis_4_2)
        assert [set(c.cns) for c in basis_4_2.cycles] == [{0, 3, 4}, {1, 2, 4}]
        assert info.exclusive_groups == ((0, 3), (1, 2))
        assert info.shared_groups == ((4,),)
        assert len(info.exclusive_groups) + len(info.shared_groups) == 3

    def test_three_cycle_reference(self, basis_4_4):
        info = md.basis_intersections(basis_4_4)
        assert info.exclusive_groups == ((0,), (1,), (5,))
        assert info.shared_groups == ((2,), (3,), (4,))
        assert len(info.exclusive_groups) + len(info.shared_groups) == 6

    def test_groups_are_disjoint(self, basis_4_4):
        info = md.basis_intersections(basis_4_4)
        flat = [c for grp in info.exclusive_groups + info.shared_groups for c in grp]
        assert len(flat) == len(set(flat))


class TestFractionReport:
    def test_two_cycle_values(self):
        rep = md.fraction_report(2, 5, 2, 1)
        assert rep.f_basis_inactive == Fr(16, 25)
        assert rep.f_all_cycles_inactive_bound == Fr(12, 25)
        assert rep.f_inactive == Fr(24, 25)
        assert rep.f_deep_inactive == Fr(12, 25)
        assert rep.f_active == Fr(1, 25)
        assert md.savings(rep) == (Fr(48), Fr(-16))

    def test_three_cycle_values(self):
        rep = md.fraction_report(3, 5, 3, 3)
        assert rep.f_basis_inactive == Fr(64, 125)
        assert rep.f_all_cycles_inactive_bound == Fr(24, 125)
        assert rep.f_inactive == Fr(124, 125)
        assert rep.f_deep_inactive == Fr(100, 125)
        assert md.savings(rep) == (Fr(80), Fr(144, 5))

    def test_matches_basis_driven_path(self, basis_4_2, basis_4_4):
        assert md.fraction_report_for_basis(basis_4_2, 5) == md.fraction_report(2, 5, 2, 1)
        assert md.fraction_report_for_basis(basis_4_4, 5) == md.fraction_report(3, 5, 3, 3)

    def test_single_cycle_has_no_deep_tail(self):
        rep = md.fraction_report(1, 7, 1, 0)
        assert rep.f_inactive == Fr(6, 7)
        assert rep.f_deep_inactive == 0
        assert rep.f_basis_inactive == Fr(6, 7)

    def test_bound_clamps_at_m_cycles(self):
        # the delta = M term contributes a zero factor, not a negative one
        rep = md.fraction_report(3, 3, 3, 3)
        assert rep.f_all_cycles_inactive_bound == 0
        deeper = md.fraction_report(4, 3, 4, 6)
        assert deeper.f_all_cycles_inactive_bound == 0

    def test_negative_deep_tail_is_flagged_not_clamped(self):
        rep = md.fraction_report(2, 3, 4, 1)
        assert rep.f_deep_inactive == Fr(8, 9) - Fr(10, 9)
        assert rep.deep_inactive_negative
        assert not md.fraction_report(2, 5, 2, 1).deep_inactive_negative

    def test_rejects_bad_m(self):
        for bad in (4, 9, 2, 1):
            with pytest.raises(ValueError):
                md.fraction_report(2, bad, 2, 1)
        for prime in (2**32 + 15, 2**61 - 1):
            with pytest.raises(ValueError, match=rf"^number of copies {prime} must be below 2\^32$"):
                md.fraction_report(2, prime, 2, 1)
        assert md.fraction_report(2, 2**32 - 5, 2, 1).f_active == Fr(1, (2**32 - 5) ** 2)

    def test_rejects_acyclic_input(self):
        with pytest.raises(ValueError):
            md.fraction_report(0, 5, 0, 0)

    @settings(max_examples=120, deadline=None)
    @given(
        n_f=st.integers(1, 5),
        m_copies=st.sampled_from([3, 5, 7, 11]),
        l2=st.integers(0, 6),
    )
    def test_ordering_invariants(self, n_f, m_copies, l2):
        rep = md.fraction_report(n_f, m_copies, n_f, l2)
        assert 0 <= rep.f_all_cycles_inactive_bound <= rep.f_basis_inactive
        assert rep.f_basis_inactive <= rep.f_inactive < 1
        assert rep.f_active + rep.f_inactive == 1
        assert rep.f_active == Fr(1, m_copies**n_f)


class TestExpectedInstances:
    def test_matches_power_law(self):
        assert md.expected_md_instances(1, 3, 3) == Fr(1, 9)
        assert md.expected_md_instances(1, 3, 5) == Fr(1, 25)
        assert md.expected_md_instances(27, 2, 3) == Fr(27, 3)
        assert md.expected_md_instances(5, 1, 7) == 5


class TestTsv:
    def test_reference_rows(self, basis_4_2, basis_4_4):
        row42 = tsv_row("4_2_g3", md.fraction_report_for_basis(basis_4_2, 5))
        assert row42 == "4_2_g3\t5\t2\t2\t1\t16/25\t12/25\t24/25\t12/25\t48\t-16"
        row44 = tsv_row("4_4_g4", md.fraction_report_for_basis(basis_4_4, 5))
        assert row44 == "4_4_g4\t5\t3\t3\t3\t64/125\t24/125\t124/125\t4/5\t80\t144/5"

    def test_header_and_assembly(self, basis_4_2):
        row = tsv_row("4_2_g3", md.fraction_report_for_basis(basis_4_2, 5))
        assert TSV_HEADER.split("\t") == [
            "config", "M", "n_f", "l1", "l2", "f_nof", "f_noc_bound",
            "f_nou", "f_not", "s1_pct", "s2_pct",
        ]
        assert len(row.split("\t")) == len(TSV_HEADER.split("\t"))
        assert "\n" not in TSV_HEADER + row
