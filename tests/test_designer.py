"""Greedy relocation designer: voting, selection, and closure."""

from fractions import Fraction as Fr

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
from mdreloc.designer import REPORT_TSV_HEADER, vote
from mdreloc.relocation import activity_plans, intact

from conftest import array_host, k4_host, lift_identity
from reference_designer import design_md as reference_design_md
from reference_designer import select_unit
from reference_designer import vote as reference_vote


def run_quiet(*args, **kwargs):
    """design_md with every Python warning an error: its notes go only into the report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return md.design_md(*args, **kwargs)


def broken(kept) -> dict[int, int]:
    """``{xi: instances broken by xi}`` from a verdict matrix of ``vote``."""
    return {xi: int((~col).sum()) for xi, col in enumerate(kept.T, start=1)}


class TestVote:
    @pytest.fixture
    def plans(self, inst_4_2):
        return activity_plans([inst_4_2])

    def test_single_entry_breaks_both_cycles(self, uas_4_2, basis_4_2, plans):
        zero = md.RelocationMap(3, uas_4_2.incidence)
        values = np.zeros(len(uas_4_2.incidence.entries), dtype=np.int64)
        for eid in (8, 0):
            assert broken(vote(plans, (eid,), values, 3)) == {1: 1, 2: 1}
            assert reference_vote(basis_4_2, (eid,), zero) == frozenset({1, 2})

    def test_paired_entries_cancel(self, uas_4_2, basis_4_2, plans):
        # both halves of the shared check shift together, so every cycle
        # keeps its zero sum and no value gets a vote
        zero = md.RelocationMap(3, uas_4_2.incidence)
        values = np.zeros(len(uas_4_2.incidence.entries), dtype=np.int64)
        assert broken(vote(plans, (8, 9), values, 3)) == {1: 0, 2: 0}
        assert reference_vote(basis_4_2, (8, 9), zero) == frozenset()

    def test_votes_respect_existing_values(self, uas_4_2, basis_4_2, plans):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        reloc.assign_entry(4, 3, 1)
        assert broken(vote(plans, (8,), reloc.values, 3)) == {1: 0, 2: 1}
        assert reference_vote(basis_4_2, (8,), reloc) == frozenset({2})

    def test_tally_counts_instances(self):
        # Every (4, 2) instance of a host against the per-instance reference votes.
        host = md.expand_qc(array_host(3, 5, 5))
        instances = md.enumerate_uas(md.build_graph(host), md.UasConfig(4, 2, 3))
        reloc = md.RelocationMap(5, host)
        reloc.assign_entry(*host.entries[3], 2)
        bases = [md.minimum_cycle_basis(inst.deg2_subgraph()) for inst in instances]
        for unit in [(0,), (3, 4), (10, 20, 30)]:
            kept = vote(activity_plans(instances), unit, reloc.values, 5)
            assert kept.shape == (len(instances), 4)
            for row, basis in zip(kept, bases):
                votes = reference_vote(basis, unit, reloc)
                assert row.tolist() == [xi not in votes for xi in range(1, 5)]


class TestLoop:
    @pytest.mark.parametrize(
        "shape, target, m_copies, entry, n_steps",
        [((4, 7, 7), (4, 4), 3, True, 35), ((3, 7, 11), (4, 2), 3, False, 3)],
    )
    def test_one_potential_solve_per_step(self, monkeypatch, shape, target, m_copies, entry, n_steps):
        calls = []

        def counted(plans, values, m):
            calls.append(values.shape)
            return intact(plans, values, m)

        monkeypatch.setattr("mdreloc.designer.intact", counted)
        config = md.UasConfig(*target, shape[0])
        host = array_host(*shape)
        rep = md.design_md(md.expand_qc(host) if entry else host, m_copies, config).report
        assert len(rep.steps) == n_steps
        assert len(calls) == n_steps

    def test_steps_match_full_resolve_and_reactivate(self):
        # The (5, 3) entry design on this host is the one whose prediction
        # undercounts the emitted matrix; its greedy loop re-activates
        # instances that earlier steps broke.
        host = md.expand_qc(array_host(3, 4, 5))
        config = md.UasConfig(5, 3, 3)
        res = md.design_md(host, 3, config)
        plans = activity_plans(md.enumerate_uas(md.build_graph(host), config))
        replay = md.RelocationMap(3, host)
        assigned = res.relocation.assigned_units
        assert len(assigned) == len(res.report.steps)
        before = np.ones(len(plans[0]), dtype=bool)
        reactivated = 0
        for (_, row, col, ell), step in zip(assigned, res.report.steps):
            assert step.unit == ("e", row, col) and step.chosen == ell
            replay.assign_entry(row, col, ell)
            after = intact(plans, replay.values[:, None], 3)[:, 0]
            assert (step.active_before, step.active_after) == (before.sum(), after.sum())
            reactivated += int((after & ~before).sum())
            before = after
        assert reactivated > 0


class TestSelectUnit:
    """The reference designer's unit choice, which ``design_md``'s argmax must match."""

    def test_highest_count_wins(self):
        counts = {("c", 0, 0): 1, ("c", 1, 1): 5, ("c", 0, 1): 3}
        assert select_unit(counts) == ("c", 1, 1)

    def test_ties_break_to_smallest_unit(self):
        counts = {("c", 0, 1): 2, ("c", 0, 0): 2, ("c", 1, 1): 1}
        assert select_unit(counts) == ("c", 0, 0)

    def test_all_zero_yields_none(self):
        assert select_unit({("c", 0, 0): 0, ("e", 1, 2): 0}) is None
        assert select_unit({}) is None


class TestToyDesign:
    def test_single_step_closure(self, uas_4_2):
        toy = lift_identity(uas_4_2.incidence)
        res = md.design_md(toy, 3, md.UasConfig(4, 2, 3))
        rep = res.report
        assert rep.od_instances == 1
        assert rep.baseline_md_instances == 3
        assert rep.final_active == 0
        assert rep.od_active_final == 0
        assert rep.total_units == 12
        assert rep.relocated_units == 1
        assert rep.relocated_fraction == Fr(1, 12)
        assert rep.aux_counts == (1, 0)
        assert rep.warnings == ()
        (step,) = rep.steps
        assert step.unit == ("c", 0, 0)
        assert step.involvement == 1
        assert step.votes == ((1, 1), (2, 1))
        assert step.chosen == 1
        assert (step.active_before, step.active_after) == (1, 0)

    def test_emitted_matrix_verifies(self, uas_4_2):
        toy = lift_identity(uas_4_2.incidence)
        res = md.design_md(toy, 3, md.UasConfig(4, 2, 3))
        assert md.enumerate_md_uas(res.h_md, md.UasConfig(4, 2, 3)) == 0
        assert md.check_regular_gamma(res.h_md) == 3

    def test_deterministic(self, uas_4_2):
        toy = lift_identity(uas_4_2.incidence)
        first = md.design_md(toy, 3, md.UasConfig(4, 2, 3))
        again = md.design_md(toy, 3, md.UasConfig(4, 2, 3))
        assert first.report == again.report
        assert first.h_md == again.h_md
        assert first.relocation.to_text() == again.relocation.to_text()


class TestClosure:
    @pytest.mark.parametrize(
        "rows,cols,p,config,m_copies",
        [
            (3, 3, 3, md.UasConfig(4, 2, 3), 3),
            (3, 3, 5, md.UasConfig(4, 2, 3), 3),
            (3, 5, 5, md.UasConfig(4, 2, 3), 3),
            (3, 3, 3, md.UasConfig(4, 2, 3), 5),
            (4, 4, 5, md.UasConfig(4, 4, 4), 3),
        ],
    )
    def test_design_removes_every_instance(self, rows, cols, p, config, m_copies):
        host = array_host(rows, cols, p)
        res = md.design_md(host, m_copies, config)
        rep = res.report
        assert rep.warnings == ()
        assert rep.final_active == md.enumerate_md_uas(res.h_md, config)
        assert rep.final_active == 0
        assert rep.baseline_md_instances == m_copies * rep.od_instances
        assert md.check_regular_gamma(res.h_md) == config.gamma
        assert md.check_no_4cycles(md.build_graph(res.h_md))
        assert sum(rep.aux_counts) == rep.relocated_units
        assert rep.relocated_fraction == Fr(rep.relocated_units, rep.total_units)
        assert len(rep.aux_counts) == m_copies - 1

    def test_entry_granularity_closure(self):
        host = md.expand_qc(array_host(3, 3, 3))
        config = md.UasConfig(4, 2, 3)
        res = md.design_md(host, 3, config)
        assert res.report.final_active == 0
        assert md.enumerate_md_uas(res.h_md, config) == 0
        assert all(u[0] == "e" for u in res.relocation.assigned_units)

    def test_relocation_reproduces_emitted_matrix(self):
        host = array_host(3, 3, 5)
        res = md.design_md(host, 3, md.UasConfig(4, 2, 3))
        assert res.relocation.matrix == md.expand_qc(host)
        rebuilt = md.assemble_md(res.relocation)
        assert rebuilt == res.h_md


class TestMeasuredCounts:
    """Defect D6 (ROADMAP.md): ``final_active`` predicts, the recount measures.

    The first five rows of the D6 table: relocation creates target
    objects that project onto no host instance, so the count on the
    emitted matrix can exceed the report.  Only ``final_active <=
    measured`` is pinned, which a report of the measured count keeps.
    """

    @pytest.mark.parametrize(
        "shape, target, m_copies, entry, host_count, measured",
        [
            ((3, 4, 5), (5, 3, 3), 3, True, 240, 6),
            ((3, 5, 5), (6, 2, 3), 5, False, 1050, 50),
            ((3, 5, 5), (6, 2, 3), 3, False, 1050, 105),
            ((3, 7, 11), (6, 2, 3), 3, False, 2519, 99),
            ((3, 11, 13), (4, 2, 3), 3, False, 1521, 0),
        ],
    )
    def test_d6_rows(self, shape, target, m_copies, entry, host_count, measured):
        config = md.UasConfig(*target)
        host = array_host(*shape)
        res = md.design_md(md.expand_qc(host) if entry else host, m_copies, config)
        assert res.report.od_instances == host_count
        assert md.enumerate_md_uas(res.h_md, config) == measured
        assert res.report.final_active <= measured


class TestPreconditions:
    @pytest.mark.parametrize(
        "host, target", [(k4_host(), (4, 2, 3)), (array_host(4, 5, 5), (6, 4, 4))], ids=["k4", "qc(4, 5, 5)"]
    )
    def test_one_host_search(self, monkeypatch, host, target):
        # The search that lists the target instances also gives the siblings
        # the notes name, so no sibling class is searched apart.
        calls = []

        def counted(graph, config):
            calls.append(config)
            return md.enumerate_uas(graph, config)

        monkeypatch.setattr("mdreloc.designer.enumerate_uas", counted)
        res = md.design_md(host, 3, md.UasConfig(*target))
        assert calls == [md.UasConfig(*target)]
        assert len(res.report.warnings) == 1

    def test_4cycle_host_warns_but_proceeds(self):
        doubled = md.QcMatrix.from_blocks(2, 2, 2, {(i, j): 0 for i in range(2) for j in range(2)})
        res = run_quiet(doubled, 3, md.UasConfig(2, 0, 2))
        assert any("4-cycle" in w for w in res.report.warnings)
        assert res.report.od_instances == 2
        assert res.report.final_active == 0

    def test_smaller_sibling_warns(self):
        res = run_quiet(k4_host(), 3, md.UasConfig(4, 2, 3))
        assert any("(4, 0)" in w for w in res.report.warnings)
        assert res.report.od_instances == 0

    def test_irregular_host_rejected(self):
        # K4 plus a fifth column of weight 1.
        host = k4_host()
        irregular = md.BinaryMatrix.from_entries(6, 5, list(host.entries) + [(0, 4)])
        with pytest.raises(ValueError, match="host column weights are irregular"):
            md.design_md(irregular, 3, md.UasConfig(4, 0, 3))

    def test_host_without_columns_rejected(self):
        with pytest.raises(ValueError, match="^host has no columns; target gamma 3 needs a regular host$"):
            md.design_md(md.BinaryMatrix(2, 0, ()), 3, md.UasConfig(4, 2, 3))

    def test_gamma_mismatch_rejected(self, uas_4_2):
        toy = lift_identity(uas_4_2.incidence)
        with pytest.raises(ValueError, match="column weight"):
            md.design_md(toy, 3, md.UasConfig(4, 4, 4))

    def test_copies_must_be_odd_prime(self, uas_4_2):
        toy = lift_identity(uas_4_2.incidence)
        for bad in (2, 4, 9):
            with pytest.raises(ValueError, match="odd prime"):
                md.design_md(toy, bad, md.UasConfig(4, 2, 3))

    @pytest.mark.parametrize("m", [2**32 + 15, 2**61 - 1], ids=["2^32+15", "2^61-1"])
    def test_copies_beyond_one_word_rejected(self, uas_4_2, m):
        # Both are prime; the vote would build (entries x (M - 1)) trial values.
        with pytest.raises(ValueError, match=rf"^number of copies {m} must be below 2\^32$"):
            md.design_md(lift_identity(uas_4_2.incidence), m, md.UasConfig(4, 2, 3))


class TestReportOutput:
    def test_tsv_shape(self, uas_4_2):
        res = md.design_md(lift_identity(uas_4_2.incidence), 3, md.UasConfig(4, 2, 3))
        text = md.report_tsv(res.report)
        header, row = text.splitlines()
        assert header == REPORT_TSV_HEADER
        cells = row.split("\t")
        assert len(cells) == len(header.split("\t"))
        assert cells[0] == "4_2_g3"
        assert cells[1] == "3"

    def test_log_narrative(self, uas_4_2):
        res = md.design_md(lift_identity(uas_4_2.incidence), 3, md.UasConfig(4, 2, 3))
        text = md.report_log(res.report)
        assert "target (4, 2)" in text
        assert "step 1" in text
        assert "final active instances: 0" in text


def assert_same_design(host, m_copies, config, entry_granularity):
    """design_md equals the cycle-basis reference on every reported field."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = md.design_md(md.expand_qc(host) if entry_granularity else host, m_copies, config)
        try:
            ref = reference_design_md(host, m_copies, config, entry_granularity=entry_granularity)
        except ValueError as exc:
            # On hosts with 4-cycles the reference can fail to order an
            # instance's minimum cycle basis; then check the final activity
            # against the fewest detached checks instead.
            assert "consecutive cycles" in str(exc)
            graph = md.build_graph(md.expand_qc(host))
            left = [md.min_detached_checks(u, got.relocation) == 0
                    for u in md.enumerate_uas(graph, config)]
            assert got.report.od_active_final == sum(left)
            return got
    assert got.report == ref.report
    assert got.relocation.to_text() == ref.relocation.to_text()
    assert got.h_md.entries == ref.h_md.entries
    return got


class TestAgainstReference:
    """The fundamental-cycle-sum designer against the cycle-basis loop it replaced."""

    # Every ladder host, target, M and granularity appears at least once; the
    # (5,3) and (6,2) rows include the designs CHANGES.md records for D6.
    @pytest.mark.parametrize(
        "shape, target, m_copies, entry",
        [
            ((3, 3, 3), (4, 2), 3, False),
            ((3, 3, 3), (4, 2), 3, True),
            ((3, 3, 3), (6, 0), 5, True),
            ((3, 4, 5), (5, 3), 3, True),
            ((3, 4, 5), (6, 2), 5, False),
            ((3, 5, 5), (4, 2), 5, True),
            ((3, 5, 5), (6, 0), 3, False),
            ((3, 5, 5), (6, 2), 5, False),
            ((3, 5, 7), (5, 3), 5, False),
            ((3, 5, 7), (6, 0), 3, True),
            ((3, 7, 11), (4, 2), 3, False),
            ((3, 7, 11), (4, 2), 5, True),
            ((3, 7, 11), (6, 2), 3, False),
            ((3, 11, 13), (4, 2), 3, False),
            ((4, 5, 5), (4, 4), 5, False),
            ((4, 7, 7), (4, 4), 3, True),
        ],
    )
    def test_ladder(self, shape, target, m_copies, entry):
        config = md.UasConfig(*target, shape[0])
        got = assert_same_design(array_host(*shape), m_copies, config, entry)
        assert got.report.steps

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.sampled_from([3, 5, 7]),
        cols=st.integers(3, 4),
        target=st.sampled_from([(4, 2), (5, 3), (6, 2), (6, 0)]),
        m_copies=st.sampled_from([3, 5]),
        entry=st.booleans(),
        data=st.data(),
    )
    def test_random_qc_hosts(self, p, cols, target, m_copies, entry, data):
        shifts = data.draw(st.lists(st.integers(0, p - 1), min_size=3 * cols, max_size=3 * cols))
        host = md.QcMatrix.from_blocks(
            p, 3, cols, {(i, j): shifts[i * cols + j] for i in range(3) for j in range(cols)}
        )
        assert_same_design(host, m_copies, md.UasConfig(*target, 3), entry)
