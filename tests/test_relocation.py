"""Relocation maps, cycle activity, and MD matrix assembly."""

import functools
import time
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
import mdreloc.relocation as relocation
from mdreloc.relocation import activity_plans, intact, involvement, unit_table

import reference_activity
import reference_md
from reference_primes import reference_is_prime
from reference_activity import alternating_value_sum, is_cycle_active, is_uas_active
from conftest import (
    arrangement_1,
    arrangement_2,
    array_host,
    assert_block_layout,
    designed_graph,
    induced_subgraph,
    irregular_hosts,
    k4_host,
    legal_configs,
    moved_entry_graph,
)


@functools.lru_cache
def activity_set(name):
    """A set's instance and the matrix its entry ids index: a reference set or a (6,2) instance."""
    if name == "6_2_g3":
        host = md.expand_qc(array_host(3, 4, 5))
        return md.enumerate_uas(md.build_graph(host), md.UasConfig(6, 2, 3))[0], host
    fix = md.canonical_uas(name)
    return fix.instance(), fix.incidence


# Carmichael numbers (Korselt's criterion) and strong pseudoprimes to the first
# 1, 2, 3, 4, 5, 6 and 9 primes; each passes the base-2 Fermat test.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 62745, 63973,
              75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409,
              314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461]
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       3825123056546413051]


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13}
        for n in range(-2, 15):
            assert relocation.is_prime(n) == (n in primes)

    @pytest.mark.differential
    def test_matches_trial_division_below_1e5(self):
        assert [relocation.is_prime(n) for n in range(-3, 10**5)] == [
            reference_is_prime(n) for n in range(-3, 10**5)
        ]

    @pytest.mark.differential
    def test_pseudoprimes_rejected(self):
        # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are prime.
        chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 2000)
                    if all(reference_is_prime(f * k + 1) for f in (6, 12, 18))]
        assert len(chernick) > 10 and max(chernick) > 10**12
        for n in CARMICHAEL + chernick + STRONG_PSEUDOPRIMES:
            assert pow(2, n - 1, n) == 1
            assert relocation.is_prime(n) is reference_is_prime(n) is False, n

    def test_large_values_known_from_their_factors(self):
        # A strong pseudoprime to the first 12 primes, caught by the 13th (41).
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not relocation.is_prime(318665857834031151167461)
        assert relocation.is_prime(2**61 - 1) and relocation.is_prime(2**64 - 59)
        assert not relocation.is_prime((2**31 - 1) * (10**9 + 7))


class TestRelocationMap:
    def test_composite_m_rejected(self, uas_4_2):
        for bad in (4, 6, 9, 1, 0):
            with pytest.raises(ValueError):
                md.RelocationMap(bad, uas_4_2.incidence)

    @pytest.mark.parametrize("m", [2**32 + 15, 2**61 - 1], ids=["2^32+15", "2^61-1"])
    def test_copies_beyond_one_word_rejected(self, uas_4_2, m):
        # Both are prime; the bound is tested first.
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^number of copies {m} must be below 2\^32$"):
            md.RelocationMap(m, uas_4_2.incidence)
        assert time.perf_counter() - t0 < 1.0

    def test_largest_32_bit_prime_accepted(self, uas_4_2):
        assert md.RelocationMap(2**32 - 5, uas_4_2.incidence).m_copies == 2**32 - 5

    def test_host_type_picks_the_unit(self):
        qc = array_host(3, 4, 5)
        circulant_map, entry_map = md.RelocationMap(3, qc), md.RelocationMap(3, md.expand_qc(qc))
        assert circulant_map.matrix is entry_map.matrix is md.expand_qc(qc)
        assert (circulant_map.qc, circulant_map.granularity) == (qc, "circulant")
        assert (entry_map.qc, entry_map.granularity) == (None, "entry")

    def test_even_prime_rejected(self, uas_4_2):
        with pytest.raises(ValueError, match="odd prime"):
            md.RelocationMap(2, uas_4_2.incidence)

    def test_defaults_to_zero(self, uas_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        assert reloc.values.tolist() == [0] * 12
        assert reloc.assigned_units == ()

    def test_assign_entry(self, uas_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        reloc.assign_entry(4, 1, 2)
        assert uas_4_2.incidence.entry_index[4, 1] == 8
        assert reloc.values[8] == 2
        assert reloc.assigned_units == (("e", 4, 1, 2),)
        assert np.flatnonzero(reloc.values).tolist() == [8]

    def test_zero_position_rejected(self, uas_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        with pytest.raises(ValueError, match="not a nonzero position"):
            reloc.assign_entry(0, 2, 1)

    def test_double_assignment_rejected(self, uas_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        reloc.assign_entry(4, 1, 1)
        with pytest.raises(ValueError, match="already assigned"):
            reloc.assign_entry(4, 1, 2)

    def test_zero_value_counts_as_assigned(self, uas_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        reloc.assign_entry(4, 1, 0)
        assert reloc.assigned_units == (("e", 4, 1, 0),)
        with pytest.raises(ValueError, match="already assigned"):
            reloc.assign_entry(4, 1, 2)
        assert reloc.values[8] == 0

    def test_values_are_read_only(self, uas_4_2):
        reloc = arrangement_2(uas_4_2.incidence)
        index = uas_4_2.incidence.entry_index
        assert {e: v for e, v in enumerate(reloc.values.tolist()) if v} == {
            index[r, c]: ell for _, r, c, ell in reloc.assigned_units}
        with pytest.raises(ValueError, match="read-only"):
            reloc.values[0] = 1

    def test_map_assigns_only_its_own_granularity(self):
        qc = array_host(2, 2, 3)
        m = md.expand_qc(qc)
        entry_map = md.RelocationMap(3, m)
        with pytest.raises(ValueError, match="entry granularity cannot assign block"):
            entry_map.assign_circulant(0, 1, 1)
        circulant_map = md.RelocationMap(3, qc)
        assert (entry_map.granularity, circulant_map.granularity) == ("entry", "circulant")
        assert set(circulant_map.units) == {("c", bi, bj) for bi, bj, _ in qc.circulants}
        with pytest.raises(ValueError, match="circulant granularity cannot assign entry"):
            circulant_map.assign_entry(0, 0, 1)
        assert entry_map.assigned_units == circulant_map.assigned_units == ()
        assert not entry_map.values.any() and not circulant_map.values.any()

    def test_zero_circulant_rejected(self):
        qc = md.QcMatrix.from_blocks(3, 2, 2, {(0, 0): 0, (0, 1): 1, (1, 0): 2})
        reloc = md.RelocationMap(3, qc)
        with pytest.raises(ValueError, match=r"^block \(1, 1\) is a zero circulant$"):
            reloc.assign_circulant(1, 1, 1)
        # the value range and the granularity are checked before the unit is looked up
        with pytest.raises(ValueError, match="out of range"):
            reloc.assign_circulant(1, 1, 3)
        with pytest.raises(ValueError, match="circulant granularity cannot assign entry"):
            reloc.assign_entry(0, 2, 1)
        assert reloc.assigned_units == () and not reloc.values.any()

    def test_value_out_of_range_rejected(self, uas_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        with pytest.raises(ValueError, match="out of range"):
            reloc.assign_entry(4, 1, 3)
        with pytest.raises(ValueError, match="out of range"):
            reloc.assign_entry(4, 1, -1)

    def test_circulant_granularity(self):
        qc = array_host(2, 2, 3)
        m = md.expand_qc(qc)
        reloc = md.RelocationMap(5, qc)
        reloc.assign_circulant(0, 1, 4)
        for r in range(3):
            assert reloc.values[m.entry_index[r, 3 + r % 3]] == 4
        assert np.count_nonzero(reloc.values) == 3
        assert reloc.assigned_units == (("c", 0, 1, 4),)
        with pytest.raises(ValueError):
            reloc.assign_circulant(0, 1, 2)


class TestRelocFile:
    def test_round_trip_entry(self, uas_4_2):
        reloc = arrangement_2(uas_4_2.incidence)
        parsed = md.parse_reloc(reloc.to_text(), uas_4_2.incidence)
        assert parsed.to_text() == reloc.to_text()
        assert parsed.m_copies == 3

    def test_round_trip_circulant(self):
        qc = array_host(2, 3, 3)
        reloc = md.RelocationMap(3, qc)
        reloc.assign_circulant(1, 2, 2)
        reloc.assign_circulant(0, 0, 1)
        parsed = md.parse_reloc(reloc.to_text(), qc)
        assert parsed.to_text() == reloc.to_text()

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty relocation file"),
        ("\n  \n", "line 1: empty relocation file"),
        ("reloc M=x granularity=entry\n", "line 1: malformed header 'reloc M=x granularity=entry'"),
        ("reloc M=3 grain=entry\n", "line 1: malformed header 'reloc M=3 grain=entry'"),
        ("reloc M=4 granularity=entry\n", "line 1: number of copies 4 must be an odd prime"),
        ("reloc M=4294967311 granularity=entry\n", r"line 1: number of copies 4294967311 must be below 2\^32"),
        ("reloc M=2305843009213693951 granularity=entry\n",
         r"line 1: number of copies 2305843009213693951 must be below 2\^32"),
        ("reloc M=3 granularity=entry\ne 4 1 3\n", r"line 2: relocation value 3 out of range \[0, 3\)"),
        ("reloc M=3 granularity=entry\ne 4 1\n", "line 2: expected 'c bi bj ell' or 'e row col ell', got 'e 4 1'"),
        ("reloc M=3 granularity=entry\ne 4 1 x\n", "line 2: expected integers in 'e row col ell', got 'e 4 1 x'"),
        ("reloc M=3 granularity=entry\n\nc 0 1.5 2\n",
         "line 3: expected integers in 'c bi bj ell', got 'c 0 1.5 2'"),
    ], ids=["empty", "blank", "header-value", "header-key", "copies", "copies-2^32+15", "copies-2^61-1",
            "value-range", "unit-form", "entry-token", "circulant-token"])
    def test_rejections(self, uas_4_2, text, message):
        with pytest.raises(md.ParseError, match=f"^{message}$"):
            md.parse_reloc(text, uas_4_2.incidence)

    def test_entry_map_of_a_qc_host_relocates_its_expansion(self):
        qc = array_host(2, 2, 3)
        parsed = md.parse_reloc("reloc M=3 granularity=entry\ne 0 3 2\n", qc)
        assert (parsed.granularity, parsed.qc) == ("entry", None)
        assert parsed.matrix is md.expand_qc(qc)
        assert parsed.values.tolist() == [2 if pos == (0, 3) else 0 for pos in parsed.matrix.entries]

    def test_header_required(self, uas_4_2):
        with pytest.raises(md.ParseError, match="line 1"):
            md.parse_reloc("e 4 1 1\n", uas_4_2.incidence)

    def test_bad_line_reported(self, uas_4_2):
        text = "reloc M=3 granularity=entry\ne 4 1\n"
        with pytest.raises(md.ParseError, match="line 2"):
            md.parse_reloc(text, uas_4_2.incidence)

    def test_non_ascii_byte_reports_line(self, uas_4_2):
        data = b"reloc M=3 granularity=entry\r\ne 4 1 1\r\n\xe9 0 0 1\r\n"
        with pytest.raises(md.ParseError, match="line 3: non-ASCII byte 0xe9") as err:
            md.parse_reloc(data, uas_4_2.incidence)
        assert err.value.line == 3

    def test_non_ascii_digit_in_str_reports_line(self, uas_4_2):
        text = "reloc M=3 granularity=entry\n\ne 4 1 1\ne 5 1 \u0662\n"
        with pytest.raises(md.ParseError, match="line 4: non-ASCII character U\\+0662") as err:
            md.parse_reloc(text, uas_4_2.incidence)
        assert err.value.line == 4

    def test_circulant_line_refused_by_entry_map(self):
        qc = array_host(2, 2, 3)
        text = "reloc M=3 granularity=entry\ne 0 0 1\n\nc 0 1 2\n"
        with pytest.raises(md.ParseError, match="line 4: a map of entry granularity"):
            md.parse_reloc(text, qc)

    def test_unknown_granularity_rejected(self, uas_4_2):
        text = "reloc M=3 granularity=block\n"
        with pytest.raises(md.ParseError, match=r"line 1: granularity must be one of \('circulant', 'entry'\)"):
            md.parse_reloc(text, uas_4_2.incidence)

    def test_circulant_line_needs_table(self, uas_4_2):
        text = "reloc M=3 granularity=circulant\nc 0 0 1\n"
        with pytest.raises(md.ParseError, match="line 1: circulant granularity needs the circulant table"):
            md.parse_reloc(text, uas_4_2.incidence)


class TestActivity:
    def test_hand_computed_sums(self, uas_4_2, basis_4_2):
        blue, red = basis_4_2.cycles
        reloc = arrangement_1(uas_4_2.incidence)
        # blue: +0 -0 +1 -1 +0 -0 ; red: +0 -0 +0 -0 +1 -1
        assert alternating_value_sum(blue, reloc.values.item) % 3 == 0
        assert alternating_value_sum(red, reloc.values.item) % 3 == 0
        assert is_uas_active(basis_4_2, reloc)

    def test_breaking_arrangement(self, uas_4_2, basis_4_2):
        reloc = arrangement_2(uas_4_2.incidence)
        sums = [alternating_value_sum(c, reloc.values.item) % 3 for c in basis_4_2.cycles]
        assert all(s != 0 for s in sums)
        assert not is_uas_active(basis_4_2, reloc)
        assert not any(is_cycle_active(c, reloc) for c in basis_4_2.cycles)

    def test_zero_map_is_active(self, uas_4_2, basis_4_2):
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        assert is_uas_active(basis_4_2, reloc)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_orientation_invariance(self, uas_4_2, basis_4_2, data):
        values = data.draw(
            st.lists(st.integers(0, 2), min_size=12, max_size=12)
        )
        reloc = md.RelocationMap(3, uas_4_2.incidence)
        for eid, ell in enumerate(values):
            if ell:
                r, c = uas_4_2.incidence.entries[eid]
                reloc.assign_entry(r, c, ell)
        cycle = data.draw(st.sampled_from(basis_4_2.cycles))
        shift = data.draw(st.integers(0, cycle.length - 1))
        steps = cycle.steps[shift:] + cycle.steps[:shift]
        if data.draw(st.booleans()):
            steps = steps[::-1]
        turned = alternating_value_sum(md.Cycle(steps), reloc.values.item)
        original = alternating_value_sum(cycle, reloc.values.item)
        assert (turned % 3 == 0) == (original % 3 == 0)
        assert turned % 3 in ((original % 3), (-original) % 3)


class TestIntact:
    """The fundamental-cycle-sum kernel against the cycle definition and the fewest detached checks."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["4_2_g3", "4_4_g4", "6_2_g3"]), m_copies=st.sampled_from([3, 5, 7]), data=st.data())
    def test_agrees_with_cycle_basis_and_detached_checks(self, name, m_copies, data):
        inst, matrix = activity_set(name)
        basis = md.minimum_cycle_basis(inst.deg2_subgraph())
        maps = []
        for _ in range(4):
            reloc = md.RelocationMap(m_copies, matrix)
            for eid in (eid for _, vn, eid in inst.graph.edges if vn in inst.vns):
                reloc.assign_entry(*matrix.entries[eid], data.draw(st.integers(0, m_copies - 1)))
            maps.append(reloc)
        values = np.stack([r.values for r in maps], axis=1)
        got = intact(activity_plans([inst]), values, m_copies)
        assert got.shape == (1, len(maps))
        for col, reloc in enumerate(maps):
            assert got[0, col] == is_uas_active(basis, reloc)
            assert got[0, col] == (md.min_detached_checks(inst, reloc) == 0)

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_blocks_split_instances(self, monkeypatch, cells):
        host = md.expand_qc(array_host(3, 5, 5))
        instances = md.enumerate_uas(md.build_graph(host), md.UasConfig(4, 2, 3))
        values = np.random.default_rng(3).integers(0, 5, size=(len(host.entries), 6))
        whole = intact(activity_plans(instances), values, 5)
        monkeypatch.setattr(relocation, "_BLOCK_CELLS", cells)
        assert (intact(activity_plans(instances), values, 5) == whole).all()
        reloc = md.RelocationMap(5, host)
        for eid, (r, c) in enumerate(host.entries):
            reloc.assign_entry(r, c, int(values[eid, 0]))
        expected = [is_uas_active(md.minimum_cycle_basis(u.deg2_subgraph()), reloc)
                    for u in instances]
        assert whole[:, 0].tolist() == expected
        assert 0 < sum(expected) < len(instances)

    def test_no_instances(self):
        assert intact(activity_plans([]), np.zeros((5, 3), dtype=np.int64), 3).shape == (0, 3)


class TestPotentialPlan:
    def test_degree_three_check_rejected(self):
        # Check 0 joins all three VNs; checks 1 and 2 chain them.
        m = md.BinaryMatrix.from_entries(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)])
        inst = md.UasInstance((0, 1, 2), (), (0, 1, 2), md.build_graph(m))
        with pytest.raises(ValueError, match="check 0 has induced degree 3, expected 2"):
            activity_plans([inst])

    def test_instances_of_two_graphs_rejected(self):
        fix = md.canonical_uas("4_2_g3")
        with pytest.raises(ValueError, match="planned instances must come from one graph"):
            activity_plans([fix.instance(), fix.instance()])

    def test_disconnected_degree2_part_rejected(self):
        # Two VN pairs, each joined by its own check.
        m = md.BinaryMatrix.from_entries(2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)])
        inst = md.UasInstance((0, 1, 2, 3), (), (0, 1), md.build_graph(m))
        with pytest.raises(ValueError, match="degree-2 subgraph is not connected"):
            activity_plans([inst])


class TestUnits:
    """The unit table and the instance x unit incidence the designer and analyze share."""

    @pytest.mark.parametrize("cols, p", [(3, 3), (5, 5)])
    def test_circulant_units_and_involvement(self, cols, p):
        qc = array_host(3, cols, p)
        host = md.expand_qc(qc)
        units = unit_table(qc)
        assert list(units) == sorted(("c", bi, bj) for bi, bj, _ in qc.circulants)
        for (_, bi, bj), eids in units.items():
            assert eids == tuple(host.entry_index[pos] for pos in qc.block_positions(bi, bj))
        instances = md.enumerate_uas(md.build_graph(host), md.UasConfig(4, 2, 3))
        touches = involvement(activity_plans(instances), units)
        assert touches.shape == (len(instances), len(units))
        for row, inst in zip(touches, instances):
            edges = [(cn, vn) for cn, vn, _ in inst.deg2_subgraph().edges]
            blocks = {("c", r // p, c // p) for r, c in edges}
            assert {unit for unit, hit in zip(units, row) if hit} == blocks

    def test_entry_units(self, uas_4_2, inst_4_2):
        matrix = uas_4_2.incidence
        units = unit_table(matrix)
        assert list(units) == sorted(units) == [("e", r, c) for r, c in matrix.entries]
        assert list(units.values()) == [(eid,) for eid in range(len(matrix.entries))]
        touches = involvement(activity_plans([inst_4_2]), units)
        assert np.flatnonzero(touches[0]).tolist() == [eid for *_, eid in inst_4_2.deg2_subgraph().edges]


@functools.lru_cache
def planned_classes(rows, cols, p):
    """(host, qc, instance lists): every non-empty (a, d1) class, a from 2 to 6, of an array host."""
    qc = array_host(rows, cols, p)
    host = md.expand_qc(qc)
    g = md.build_graph(host)
    found = (md.enumerate_uas(g, config) for config in legal_configs(range(2, 7), rows))
    return host, qc, [instances for instances in found if instances]


# (3, 4, 5) and (3, 5, 5) have girth 6; (4, 4, 4) has two VNs sharing two
# checks (4-cycles), so some degree-2 checks close loops of length 4.
PLANNED_HOSTS = [(3, 4, 5), (3, 5, 5), (4, 4, 4)]


@pytest.mark.differential
class TestPlansAgainstReference:
    """Plans read off the VN adjacency and involvement gathered from them, against their predecessors."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(PLANNED_HOSTS), m_copies=st.sampled_from([3, 5, 7]), data=st.data())
    def test_intact_verdicts_on_array_hosts(self, shape, m_copies, data):
        host, _, classes = planned_classes(*shape)
        instances = data.draw(st.sampled_from(classes))
        seed = data.draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).integers(0, m_copies, size=(len(host.entries), 4))
        got = intact(activity_plans(instances), values, m_copies)
        assert (got == reference_activity.intact(reference_activity.activity_plans(instances), values, m_copies)).all()

    @settings(max_examples=60, deadline=None)
    @given(host=irregular_hosts(), m_copies=st.sampled_from([3, 5]), seed=st.integers(0, 2**32 - 1))
    def test_intact_verdicts_on_irregular_hosts(self, host, m_copies, seed):
        m, gamma = host
        g = md.build_graph(m)
        values = np.random.default_rng(seed).integers(0, m_copies, size=(len(m.entries), 4))
        for config in legal_configs(range(2, 6), gamma):
            instances = md.enumerate_uas(g, config)
            got = intact(activity_plans(instances), values, m_copies)
            want = reference_activity.intact(reference_activity.activity_plans(instances), values, m_copies)
            assert (got == want).all(), config

    @pytest.mark.parametrize("shape", PLANNED_HOSTS)
    @pytest.mark.parametrize("granularity", relocation.GRANULARITIES)
    def test_involvement(self, shape, granularity):
        host, qc, classes = planned_classes(*shape)
        units = unit_table(qc if granularity == "circulant" else host)
        for instances in classes:
            got = involvement(activity_plans(instances), units)
            assert (got == reference_activity.involvement(instances, units)).all()

    def test_involvement_without_instances(self, uas_4_2):
        units = unit_table(uas_4_2.incidence)
        assert involvement(activity_plans([]), units).shape == (0, len(units))


@functools.lru_cache
def path_instances():
    """Tree-only sets (n_f = 0): windows of three VNs on a path of checks, two of them degree 2."""
    host = md.BinaryMatrix.from_entries(5, 6, [(r, c) for r in range(5) for c in (r, r + 1)])
    g = md.build_graph(host)
    instances = [md.UasInstance((i, i + 1, i + 2), tuple(c for c in (i - 1, i + 2) if 0 <= c < 5), (i, i + 1), g)
                 for i in range(4)]
    return host, instances


def explicit_cycles(u):
    """Every cycle of the instance's degree-2 subgraph, none for a tree."""
    return md.enumerate_cycles(u.deg2_subgraph(), max(4, 2 * u.a))


def activity_sets():
    """(name, host, instances): array-host classes, tree-only sets and the empty list."""
    for shape in PLANNED_HOSTS:
        host, _, classes = planned_classes(*shape)
        for instances in classes:
            yield f"{shape} {instances[0].a}_{instances[0].d1}", host, instances
    yield "paths", *path_instances()
    yield "empty", md.expand_qc(array_host(3, 4, 5)), []


@pytest.mark.differential
class TestCycleSumsAgainstReference:
    """The fundamental-cycle-sum kernel against the potential solve and explicit cycle sums."""

    @settings(max_examples=80, deadline=None)
    @given(m_copies=st.sampled_from([3, 5, 7]), cells=st.sampled_from([1, 7, 50, relocation._BLOCK_CELLS]),
           data=st.data())
    def test_intact(self, m_copies, cells, data):
        _, host, instances = data.draw(st.sampled_from(list(activity_sets())), label="set")
        cols = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).integers(0, m_copies, size=(len(host.entries), cols))
        with mock.patch.object(relocation, "_BLOCK_CELLS", cells):
            plans = activity_plans(instances)
            got = intact(plans, values, m_copies)
        assert got.shape == (len(instances), cols)
        want = reference_activity.intact(reference_activity.activity_plans(instances), values, m_copies)
        assert (got == want).all()
        rows = data.draw(st.lists(st.integers(0, len(instances) - 1), max_size=6)) if instances else []
        for i in rows:
            for col in range(cols):
                sums = [alternating_value_sum(c, values[:, col].item) for c in explicit_cycles(instances[i])]
                assert got[i, col] == all(s % m_copies == 0 for s in sums)

    def test_tree_only_sets_stay_intact(self):
        host, instances = path_instances()
        steps, cycles = activity_plans(instances)
        assert steps.shape == (4, 2, 4) and cycles.shape == (4, 0, 2)
        assert all(explicit_cycles(u) == [] for u in instances)
        values = np.random.default_rng(0).integers(0, 5, size=(len(host.entries), 3))
        assert intact((steps, cycles), values, 5).all()


def assert_plan_contract(instances, plans):
    """Each row holds its instance's own steps, in an order that solves the potential, and its cycles.

    One step per degree-2 check; x and y are positions in ``u.vns`` whose
    edges e1 and e2 meet at that check; the loops come in check-id order;
    every tree step reads a VN that the root or an earlier step solved,
    and the tree reaches every VN.  Each loop's cycle row has +1 on its
    own loop step, 0 on the other loops, and on the tree steps the signs
    of the tree path from the loop's y back to its x.
    """
    steps, cycles = plans
    n_tree = steps.shape[1] - cycles.shape[1]
    for u, row, cyc in zip(instances, steps.tolist(), cycles.tolist()):
        t, l = row[:n_tree], row[n_tree:]
        ends = {eid: (cn, vn) for vn in u.vns for cn, eid in u.graph.vn_adj[vn]}
        checks = []
        for x, y, e1, e2 in t + l:
            (c1, v1), (c2, v2) = ends[e1], ends[e2]
            assert (c1, v1, v2) == (c2, u.vns[x], u.vns[y])
            checks.append(c1)
        assert sorted(checks) == list(u.deg2_cns)
        assert checks[len(t):] == sorted(checks[len(t):])
        solved = {t[0][0] if t else 0}
        for x, y, *_ in t:
            assert x in solved and y not in solved
            solved.add(y)
        assert len(solved) == len(u.vns)
        # path[v]: +1 on the tree steps from the root to VN v.
        path = {t[0][0] if t else 0: [0] * len(t)}
        for k, (x, y, *_) in enumerate(t):
            path[y] = path[x][:k] + [1] + path[x][k + 1:]
        assert len(cyc) == len(l)
        for k, ((x, y, *_), signs) in enumerate(zip(l, cyc)):
            assert signs[n_tree + k] == 1
            assert signs[n_tree:] == [int(i == k) for i in range(len(l))]
            assert signs[:n_tree] == [px - py for px, py in zip(path[x], path[y])]


def assert_plans_as_reference(instances, units, m_copies, seed):
    """Plans give the reference plans' verdicts and involvement, and keep the contract."""
    plans = activity_plans(instances)
    n_entries = 1 + max(eid for eids in units.values() for eid in eids)
    values = np.random.default_rng(seed).integers(0, m_copies, size=(n_entries, 4))
    want = reference_activity.intact(reference_activity.activity_plans(instances), values, m_copies)
    assert (intact(plans, values, m_copies) == want).all()
    assert (involvement(plans, units) == reference_activity.involvement(instances, units)).all()
    assert_plan_contract(instances, plans)


def entry_units(g):
    """Entry units of a graph built from a matrix, one per edge."""
    return {("e", cn, vn): (eid,) for cn, vn, eid in g.edges}


@pytest.mark.differential
class TestPlanContractAgainstReference:
    """Plans of symmetric, stabilised and irregular instance lists, against per-instance reference walks."""

    @pytest.mark.parametrize("shape", PLANNED_HOSTS)
    @pytest.mark.parametrize("granularity", relocation.GRANULARITIES)
    def test_qc_hosts(self, shape, granularity):
        host, qc, classes = planned_classes(*shape)
        units = unit_table(qc if granularity == "circulant" else host)
        for seed, instances in enumerate(classes):
            assert_plans_as_reference(instances, units, 5, seed)

    @pytest.mark.parametrize("shape", PLANNED_HOSTS)
    def test_circulant_maps_give_one_verdict_per_orbit(self, shape):
        # A shift keeps every entry in its circulant, so under a circulant
        # map the images of a set, each planned on its own, share its verdict.
        host, qc, classes = planned_classes(*shape)
        units = list(unit_table(qc).values())
        unit_of = {eid: k for k, eids in enumerate(units) for eid in eids}
        g = classes[0][0].graph
        vmaps, cmaps = g.shift_group[0].tolist(), g.shift_group[1].tolist()
        assert len(vmaps) > 1
        assert all(unit_of[host.entry_index[cmap[cn], vmap[vn]]] == unit_of[eid]
                   for vmap, cmap in zip(vmaps, cmaps) for cn, vn, eid in g.edges)
        rng = np.random.default_rng(shape)
        for instances in classes:
            values = rng.integers(0, 5, size=(len(units), 8))[[unit_of[e] for e in range(len(unit_of))]]
            verdicts = intact(activity_plans(instances), values, 5)
            by_orbit = {}
            for u, row in zip(instances, verdicts.tolist()):
                orbit = min(tuple(sorted(vmap[v] for v in u.vns)) for vmap in vmaps)
                assert by_orbit.setdefault(orbit, row) == row, u.vns
            assert len(by_orbit) < len(instances)

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_blocks_give_the_unblocked_plans(self, monkeypatch, cells):
        host = md.build_graph(md.expand_qc(array_host(3, 5, 5)))
        moved = moved_entry_graph()
        assert len(moved.shift_group[0]) == 1
        lists = [md.enumerate_uas(host, md.UasConfig(4, 2, 3)), md.enumerate_uas(moved, md.UasConfig(6, 4, 3))]
        whole = [activity_plans(instances) for instances in lists]
        monkeypatch.setattr(relocation, "_BLOCK_CELLS", cells)
        for instances, (steps, cycles) in zip(lists, whole):
            got = activity_plans(instances)
            assert (got[0] == steps).all() and got[0].shape == steps.shape
            assert (got[1] == cycles).all() and got[1].shape == cycles.shape
            assert_plan_contract(instances, got)

    @pytest.mark.parametrize(
        "design, recounts",
        [
            ((3, 3, 3, (4, 2, 3), 3, False), [(4, 4, 3), (6, 4, 3), (6, 6, 3)]),
            ((3, 3, 3, (4, 2, 3), 3, True), [(5, 3, 3), (6, 2, 3)]),
            ((3, 4, 5, (4, 2, 3), 3, False), [(4, 4, 3), (5, 5, 3)]),
        ],
    )
    def test_designed_md_matrices(self, design, recounts):
        g = designed_graph(*design)
        vmaps = g.shift_group[0].tolist()
        stabilised = 0
        for seed, recount in enumerate(recounts):
            instances = md.enumerate_uas(g, md.UasConfig(*recount))
            assert instances, recount
            assert_plans_as_reference(instances, entry_units(g), design[4], seed)
            orbits = [len({tuple(sorted(vmap[v] for v in u.vns)) for vmap in vmaps}) for u in instances]
            stabilised += sum(n < len(vmaps) for n in orbits)
        # The (6,6) sets of the circulant (3,3,3) design include ones that
        # three of the nine shifts fix.
        assert stabilised or design != (3, 3, 3, (4, 2, 3), 3, False)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(PLANNED_HOSTS), m_copies=st.sampled_from([3, 5, 7]), data=st.data())
    def test_strict_subset_of_an_orbit(self, shape, m_copies, data):
        # Part of one orbit, then a few instances of any orbit (repeats
        # allowed), in any order.
        host, qc, classes = planned_classes(*shape)
        instances = data.draw(st.sampled_from(classes))
        u = data.draw(st.sampled_from(instances))
        images = {tuple(sorted(vmap[v] for v in u.vns)) for vmap in u.graph.shift_group[0].tolist()}
        orbit = [w for w in instances if w.vns in images]
        assert len(orbit) > 1
        part = data.draw(st.lists(st.sampled_from(orbit), min_size=1, max_size=len(orbit) - 1,
                                  unique_by=lambda w: w.vns))
        others = data.draw(st.lists(st.sampled_from(instances), max_size=4))
        subset = data.draw(st.permutations(part + others))
        seed = data.draw(st.integers(0, 2**32 - 1))
        assert_plans_as_reference(subset, unit_table(qc), m_copies, seed)

    def test_identity_group_graphs(self):
        host = md.build_graph(md.expand_qc(array_host(3, 4, 5)))
        sparse = induced_subgraph(host, range(3, 20), [c for c in host.cns if c % 4 != 1])
        for g in (moved_entry_graph(), sparse, md.build_graph(k4_host())):
            assert len(g.shift_group[0]) == 1
            found = [md.enumerate_uas(g, config) for config in legal_configs(range(2, 7), 3)]
            found = [instances for instances in found if instances]
            assert found
            for seed, instances in enumerate(found):
                assert_plans_as_reference(instances, entry_units(host if g is sparse else g), 3, seed)

    @settings(max_examples=60, deadline=None)
    @given(host=irregular_hosts(), m_copies=st.sampled_from([3, 5]), seed=st.integers(0, 2**32 - 1))
    def test_irregular_hosts(self, host, m_copies, seed):
        m, gamma = host
        g = md.build_graph(m)
        for config in legal_configs(range(2, 6), gamma):
            instances = md.enumerate_uas(g, config)
            if instances:
                assert_plans_as_reference(instances, unit_table(m), m_copies, seed)


class TestAssembly:
    @pytest.mark.parametrize("m_copies", [3, 5])
    def test_block_layout(self, uas_4_2, m_copies):
        host = uas_4_2.incidence
        reloc = md.RelocationMap(m_copies, host)
        reloc.assign_entry(4, 1, 1)
        reloc.assign_entry(2, 3, m_copies - 1)
        assert_block_layout(md.assemble_md(reloc), host, reloc)

    def test_column_weight_preserved(self, uas_4_2):
        h_md = md.assemble_md(arrangement_2(uas_4_2.incidence))
        assert md.check_regular_gamma(h_md) == 3
        assert len(h_md.entries) == 3 * len(uas_4_2.incidence.entries)


class TestMdCycleStructure:
    def test_intact_arrangement_keeps_short_cycles(self, uas_4_2, inst_4_2):
        reloc = arrangement_1(uas_4_2.incidence)
        sub = reference_md.md_instance_subgraph(inst_4_2, reloc)
        lengths = sorted(c.length for c in md.enumerate_cycles(sub, 20))
        assert lengths == [6, 6, 6, 6, 6, 6, 8, 8, 8]

    def test_broken_arrangement_stretches_cycles(self, uas_4_2, inst_4_2):
        reloc = arrangement_2(uas_4_2.incidence)
        sub = reference_md.md_instance_subgraph(inst_4_2, reloc)
        lengths = sorted(c.length for c in md.enumerate_cycles(sub, 20))
        assert min(lengths) == 12
        # the two 6-cycles wind through all three copies before closing
        assert lengths.count(18) == 2


def reference_profile(u, reloc):
    """The instance's profile read off the components of the per-edge reference lift."""
    g = reference_md.md_instance_subgraph(u, reloc)
    h = nx.Graph()
    h.add_nodes_from([("v", v) for v in g.vns] + [("c", c) for c in g.cns])
    h.add_edges_from((("c", cn), ("v", vn)) for cn, vn, _ in g.edges)
    comps = sorted((sum(kind == "v" for kind, _ in comp),
                    sum(kind == "c" and g.cn_degree(n) == 1 for kind, n in comp))
                   for comp in nx.connected_components(h))
    return md.MdObjectProfile(sum(v for v, _ in comps), sum(d for _, d in comps),
                              len(comps) == 1, tuple(comps))


def assert_same_lift(matrix, reloc, instances):
    """assemble_md and md_object_profile equal the per-edge reference lift."""
    h_md = md.assemble_md(reloc)
    assert h_md == reference_md.assemble_md(matrix, reloc)
    for inst in instances:
        assert md.md_object_profile(inst, reloc) == reference_profile(inst, reloc)
    return h_md


class TestAgainstReferenceLift:
    """The value-vector lift and the intact-derived profiles against the per-edge lift."""

    @pytest.mark.parametrize("shape, target, m_copies", [((3, 5, 5), (4, 2), 3), ((4, 5, 5), (4, 4), 5)])
    @pytest.mark.parametrize("entry", [False, True])
    def test_designed_matrices(self, shape, target, m_copies, entry):
        qc = array_host(*shape)
        config = md.UasConfig(*target, shape[0])
        res = md.design_md(md.expand_qc(qc) if entry else qc, m_copies, config)
        assert res.relocation.granularity == ("entry" if entry else "circulant")
        host = md.expand_qc(qc)
        instances = md.enumerate_uas(md.build_graph(host), config)
        assert assert_same_lift(host, res.relocation, instances) == res.h_md

    @settings(max_examples=30, deadline=None)
    @given(m_copies=st.sampled_from([3, 5, 7]), circulant=st.booleans(), data=st.data())
    def test_random_maps(self, m_copies, circulant, data):
        qc = array_host(3, 4, 5)
        host = md.expand_qc(qc)
        reloc = md.RelocationMap(m_copies, qc if circulant else host)
        assign = reloc.assign_circulant if circulant else reloc.assign_entry
        for unit in data.draw(st.permutations(list(reloc.units))):
            if data.draw(st.booleans()):
                assign(*unit[1:], data.draw(st.integers(0, m_copies - 1)))
        graph = md.build_graph(host)
        instances = [u for target in ((4, 2), (6, 2))
                     for u in md.enumerate_uas(graph, md.UasConfig(*target, 3))[:3]]
        assert_same_lift(host, reloc, instances)
