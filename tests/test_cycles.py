"""Cycle enumeration, canonical forms, and minimum cycle bases."""

import networkx as nx
import pytest

import mdreloc as md
from mdreloc.cycles import canonical_steps, cycle_space_rank

from conftest import array_host

BLUE_4_2 = (0, 1, 8, 9, 7, 6)
RED_4_2 = (2, 3, 4, 5, 9, 8)
DIAG_4_4 = (4, 5, 7, 6, 10, 11)


def cycle_xor(u, v):
    """Elementwise XOR; the GF(2) sum of two cycle vectors."""
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a ^ b for a, b in zip(u, v))


def nx_cycle_lengths(g: md.TannerGraph, max_len: int) -> list[int]:
    """Independent count of simple cycle lengths via networkx."""
    h = nx.Graph()
    for cn, vn, _ in g.edges:
        h.add_edge(("c", cn), ("v", vn))
    return sorted(len(c) for c in nx.simple_cycles(h, length_bound=max_len))


class TestCanonicalForm:
    def test_rotation_and_reflection_collapse(self, basis_4_2):
        steps = basis_4_2.cycles[0].steps
        for shift in range(len(steps)):
            rotated = steps[shift:] + steps[:shift]
            assert canonical_steps(rotated) == steps
            assert canonical_steps(rotated[::-1]) == steps

    def test_starts_at_smallest_entry(self, basis_4_4):
        for cycle in basis_4_4.cycles:
            eids = cycle.entry_ids
            assert eids[0] == min(eids)
            assert eids[1] <= eids[-1]


class TestCycleValidation:
    def test_odd_length_rejected(self, basis_4_2):
        with pytest.raises(ValueError, match="even"):
            md.Cycle(basis_4_2.cycles[0].steps[:3])

    def test_disconnected_steps_rejected(self, basis_4_2, basis_4_4):
        blue = basis_4_2.cycles[0].steps
        red = basis_4_2.cycles[1].steps
        with pytest.raises(ValueError):
            md.Cycle(blue[:2] + red[2:4] + blue[4:])

    def test_node_revisit_rejected(self, inst_4_4):
        g = inst_4_4.deg2_subgraph()
        cycles = md.enumerate_cycles(g, 8)
        eight = next(c for c in cycles if c.length == 8)
        six = next(c for c in cycles if c.length == 6)
        with pytest.raises(ValueError):
            md.Cycle(six.steps + eight.steps)


class TestEnumeration:
    def test_counts_on_reference_sets(self, inst_4_2, inst_4_4):
        got_4_2 = md.enumerate_cycles(inst_4_2.deg2_subgraph(), 20)
        assert sorted(c.length for c in got_4_2) == [6, 6, 8]
        got_4_4 = md.enumerate_cycles(inst_4_4.deg2_subgraph(), 20)
        assert sorted(c.length for c in got_4_4) == [6, 6, 6, 6, 8, 8, 8]

    def test_matches_networkx(self, inst_4_2, inst_4_4):
        for g in (inst_4_2.deg2_subgraph(), inst_4_4.deg2_subgraph()):
            ours = sorted(c.length for c in md.enumerate_cycles(g, 20))
            assert ours == nx_cycle_lengths(g, 20)

    def test_matches_networkx_on_qc_host(self):
        g = md.build_graph(md.expand_qc(array_host(3, 3, 3)))
        ours = sorted(c.length for c in md.enumerate_cycles(g, 8))
        assert ours == nx_cycle_lengths(g, 8)

    def test_respects_length_cap(self, inst_4_4):
        g = inst_4_4.deg2_subgraph()
        assert all(c.length <= 6 for c in md.enumerate_cycles(g, 6))
        assert len(md.enumerate_cycles(g, 6)) == 4

    def test_no_duplicates_and_deterministic(self, inst_4_4):
        g = inst_4_4.deg2_subgraph()
        first = md.enumerate_cycles(g, 20)
        assert len({c.steps for c in first}) == len(first)
        assert first == md.enumerate_cycles(g, 20)


class TestGf2:
    def test_xor_is_symmetric_difference(self, basis_4_2, inst_4_2):
        universe = tuple(sorted(inst_4_2.deg2_entry_ids))
        blue, red = basis_4_2.cycles
        combined = cycle_xor(blue.vector(universe), red.vector(universe))
        expected = blue.edge_set ^ red.edge_set
        assert {universe[i] for i, bit in enumerate(combined) if bit} == expected

    def test_rank_of_reference_sets(self, basis_4_2, basis_4_4):
        assert cycle_space_rank(basis_4_2.vectors()) == 2
        assert cycle_space_rank(basis_4_4.vectors()) == 3

    def test_dependent_basis_rejected(self, inst_4_2):
        g = inst_4_2.deg2_subgraph()
        all_cycles = md.enumerate_cycles(g, 20)
        universe = tuple(sorted(e[2] for e in g.edges))
        with pytest.raises(ValueError, match="dependent"):
            md.CycleBasis(tuple(all_cycles), universe)


class TestMinimumBasis:
    def test_reference_4_2(self, basis_4_2):
        assert [c.entry_ids for c in basis_4_2.cycles] == [BLUE_4_2, RED_4_2]

    def test_reference_4_4(self, basis_4_4):
        assert [c.entry_ids for c in basis_4_4.cycles] == [BLUE_4_2, RED_4_2, DIAG_4_4]

    def test_size_matches_cycle_space(self, inst_4_2, inst_4_4, basis_4_2, basis_4_4):
        for inst, basis in ((inst_4_2, basis_4_2), (inst_4_4, basis_4_4)):
            g = inst.deg2_subgraph()
            n_f = len(g.edges) - (len(g.vns) + len(g.cns)) + 1
            assert basis.size == n_f

    def test_spans_every_cycle(self, inst_4_4, basis_4_4):
        vectors = basis_4_4.vectors()
        base_rank = cycle_space_rank(vectors)
        for cycle in md.enumerate_cycles(inst_4_4.deg2_subgraph(), 20):
            vec = cycle.vector(basis_4_4.universe)
            assert cycle_space_rank(vectors + [vec]) == base_rank

    def test_consecutive_cycles_share_a_check(self, basis_4_4):
        cycles = basis_4_4.cycles
        for first, second in zip(cycles, cycles[1:]):
            assert first.cns & second.cns

    def test_all_shortest_possible(self, basis_4_2, basis_4_4):
        assert all(c.length == 6 for c in basis_4_2.cycles)
        assert all(c.length == 6 for c in basis_4_4.cycles)
