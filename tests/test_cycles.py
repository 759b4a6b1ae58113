"""Cycle enumeration, canonical forms, and minimum cycle bases."""

import functools
from itertools import combinations
from typing import NamedTuple

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdreloc as md
from mdreloc.cycles import _chain_order, canonical_steps, cycle_space_rank

from conftest import array_host, induced_subgraph
from reference_cycles import reference_chain_order, reference_minimum_cycle_basis

BLUE_4_2 = (0, 1, 8, 9, 7, 6)
RED_4_2 = (2, 3, 4, 5, 9, 8)
DIAG_4_4 = (4, 5, 7, 6, 10, 11)


def bits(mask: int) -> set[int]:
    """The entry-ids whose bits are set in an edge mask."""
    return {e for e in range(mask.bit_length()) if mask >> e & 1}


@functools.lru_cache
def host_instances(shape: tuple[int, int, int], target: tuple[int, int, int]) -> list:
    """Every target instance on ``array_host(*shape)``."""
    g = md.build_graph(md.expand_qc(array_host(*shape)))
    return md.enumerate_uas(g, md.UasConfig(*target))


@st.composite
def degree2_graphs(draw) -> md.TannerGraph:
    """A graph whose checks all have degree 2, with sparse node and entry ids.

    Half the draws first join every VN to an earlier one, so connected
    graphs (trees among them) come up as often as forests, isolated VNs
    and disconnected cycles.
    """
    n_vns = draw(st.integers(0, 6))
    pairs = []
    if draw(st.booleans()):
        pairs += [(draw(st.integers(0, v - 1)), v) for v in range(1, n_vns)]
    if n_vns > 1:
        pairs += draw(st.lists(st.sampled_from(list(combinations(range(n_vns), 2))), max_size=5))
    eids = draw(st.permutations(range(2 * len(pairs))))
    edges = sorted(((3 * c + 2, 2 * v + 5, 3 * eids[2 * c + k] + 1)
                    for c, pair in enumerate(pairs) for k, v in enumerate(pair)),
                   key=lambda e: e[2])
    return md.TannerGraph(tuple(3 * c + 2 for c in range(len(pairs))),
                          tuple(2 * v + 5 for v in range(n_vns)), tuple(edges))


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
    def test_mask_has_one_bit_per_edge(self, basis_4_2):
        blue, red = basis_4_2.cycles
        assert bits(blue.mask) == set(BLUE_4_2)
        assert bits(red.mask) == set(RED_4_2)

    def test_xor_is_symmetric_difference(self, basis_4_2):
        blue, red = basis_4_2.cycles
        assert bits(blue.mask ^ red.mask) == set(blue.entry_ids) ^ set(red.entry_ids)

    def test_rank_of_reference_sets(self, basis_4_2, basis_4_4):
        assert cycle_space_rank(basis_4_2.cycles) == 2
        assert cycle_space_rank(basis_4_4.cycles) == 3

    def test_dependent_basis_rejected(self, inst_4_2):
        g = inst_4_2.deg2_subgraph()
        all_cycles = md.enumerate_cycles(g, 20)
        universe = tuple(sorted(e[2] for e in g.edges))
        with pytest.raises(ValueError, match="dependent"):
            md.CycleBasis(tuple(all_cycles), universe)

    def test_edge_outside_universe_rejected(self, basis_4_2):
        md.CycleBasis(basis_4_2.cycles, basis_4_2.universe)
        universe = tuple(e for e in basis_4_2.universe if e != BLUE_4_2[0])
        with pytest.raises(ValueError, match="outside the universe"):
            md.CycleBasis(basis_4_2.cycles, universe)


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
        base_rank = cycle_space_rank(basis_4_4.cycles)
        for cycle in md.enumerate_cycles(inst_4_4.deg2_subgraph(), 20):
            assert cycle_space_rank(basis_4_4.cycles + (cycle,)) == base_rank

    def test_consecutive_cycles_share_a_check(self, basis_4_4):
        cycles = basis_4_4.cycles
        for first, second in zip(cycles, cycles[1:]):
            assert first.cns & second.cns

    def test_all_shortest_possible(self, basis_4_2, basis_4_4):
        assert all(c.length == 6 for c in basis_4_2.cycles)
        assert all(c.length == 6 for c in basis_4_4.cycles)


@pytest.mark.differential
class TestBasisAgainstReference:
    """The rank-checked basis against the one that ran its own component search."""

    @settings(max_examples=300, deadline=None)
    @given(degree2_graphs())
    @example(md.TannerGraph((), (), ()))
    @example(md.TannerGraph((), (4,), ()))
    @example(md.TannerGraph((7,), (4, 6, 8), ((7, 4, 0), (7, 6, 1))))
    def test_random_graphs(self, g):
        h = nx.Graph()
        h.add_nodes_from([("v", v) for v in g.vns] + [("c", c) for c in g.cns])
        h.add_edges_from((("c", cn), ("v", vn)) for cn, vn, _ in g.edges)
        if not (h and nx.is_connected(h)):
            with pytest.raises(ValueError, match="^subgraph must be connected$"):
                md.minimum_cycle_basis(g)
        try:
            expected = reference_minimum_cycle_basis(g)
        except ValueError:
            with pytest.raises(ValueError):
                md.minimum_cycle_basis(g)
        else:
            assert md.minimum_cycle_basis(g) == expected

    @pytest.mark.parametrize("shape, target, count",
                             [((3, 5, 5), (6, 2, 3), 1050), ((4, 7, 7), (4, 4, 4), 294)])
    def test_array_host_instances(self, shape, target, count):
        # deg2_subgraph, read off the instance's VNs, equals the filter of
        # every host edge, and its basis equals the reference's.
        instances = host_instances(shape, target)
        assert len(instances) == count
        for inst in instances:
            sub = inst.deg2_subgraph()
            assert sub == induced_subgraph(inst.graph, inst.vns, inst.deg2_cns)
            assert md.minimum_cycle_basis(sub) == reference_minimum_cycle_basis(sub)


class Item(NamedTuple):
    """A stand-in cycle: the chain search reads only ``cns``."""

    index: int
    cns: frozenset


class TestChainOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=3), max_size=7))
    @example([frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset({0, 1})])
    @example([frozenset({0}), frozenset({1}), frozenset({2})])
    @example([frozenset(), frozenset({0}), frozenset({0})])
    def test_matches_reference(self, cns_sets):
        items = [Item(i, cns) for i, cns in enumerate(cns_sets)]
        assert _chain_order(items) == reference_chain_order(items)

    def test_bases_on_array_host(self):
        # Every (6,2,γ3) basis on array_host(3,5,5); 150 of them are reordered.
        instances = host_instances((3, 5, 5), (6, 2, 3))
        assert len(instances) == 1050
        reordered = 0
        for inst in instances:
            basis = md.minimum_cycle_basis(inst.deg2_subgraph()).cycles
            by_position = sorted(basis, key=lambda c: (c.length, c.entry_ids))
            assert list(basis) == reference_chain_order(by_position)
            reordered += list(basis) != by_position
        assert reordered == 150
