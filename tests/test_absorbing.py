"""Absorbing-set structure: configs, enumeration, and reference fixtures."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
from mdreloc.relocation import activity_plans
from mdreloc.shifts import _shift_group

from conftest import (
    array_host,
    designed_graph,
    dihedral_graph,
    induced_subgraph,
    irregular_hosts,
    k4_host,
    legal_configs,
    moved_entry_graph,
)
from reference_designer import _precondition_warnings as reference_notes
from reference_uas import (
    _build_instance as reference_instance,
    reference_enumerate_uas,
    reference_expand,
    reference_shift_group,
)


def brute_force_uas(m: md.BinaryMatrix, config: md.UasConfig):
    """Check every VN subset against the definition directly.

    Deliberately dense and quadratic: a second, independent path to the
    same answer as the search-tree enumerator.
    """
    h = m.to_dense().astype(int)
    found = set()
    for vns in itertools.combinations(range(m.n_cols), config.a):
        sub = h[:, vns]
        deg = sub.sum(axis=1)
        if (deg > 2).any():
            continue
        deg1 = np.flatnonzero(deg == 1)
        deg2 = np.flatnonzero(deg == 2)
        if len(deg1) != config.d1:
            continue
        two = sub[deg2].sum(axis=0)
        one = sub[deg1].sum(axis=0)
        if not (two > one).all():
            continue
        parent = list(range(config.a))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in deg2:
            u, v = np.flatnonzero(sub[r])
            parent[find(u)] = find(v)
        if len({find(i) for i in range(config.a)}) != 1:
            continue
        found.add((vns, tuple(int(r) for r in deg1), tuple(int(r) for r in deg2)))
    return found


class TestUasConfig:
    def test_reference_structure_counts(self):
        c42 = md.UasConfig(4, 2, 3)
        assert md.degree2_check_count(c42) == 5
        assert md.basic_cycle_count(c42) == 2
        assert md.cycle_count_bounds(c42) == (3, 3)
        c44 = md.UasConfig(4, 4, 4)
        assert md.degree2_check_count(c44) == 6
        assert md.basic_cycle_count(c44) == 3
        assert md.cycle_count_bounds(c44) == (6, 7)

    def test_name(self):
        assert md.UasConfig(4, 2, 3).name == "4_2_g3"
        assert md.UasConfig(4, 4, 4).name == "4_4_g4"

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError):
            md.UasConfig(4, 1, 3)

    def test_too_many_degree1_checks_rejected(self):
        # d1 > a * floor((gamma - 1) / 2) contradicts the majority rule
        with pytest.raises(ValueError):
            md.UasConfig(4, 6, 3)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            md.UasConfig(0, 0, 3)
        with pytest.raises(ValueError):
            md.UasConfig(4, -2, 3)
        with pytest.raises(ValueError):
            md.UasConfig(4, 2, 0)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 8), d1=st.integers(0, 12), gamma=st.integers(1, 6))
    def test_counts_are_consistent_when_valid(self, a, d1, gamma):
        try:
            cfg = md.UasConfig(a, d1, gamma)
        except ValueError:
            return
        d2 = md.degree2_check_count(cfg)
        assert 2 * d2 + d1 == a * gamma
        n_f = md.basic_cycle_count(cfg)
        assert n_f == d2 - a + 1
        low, high = md.cycle_count_bounds(cfg)
        assert low == n_f * (n_f + 1) // 2
        assert high == 2**n_f - 1


class TestClassify:
    def test_no_degree1_checks_is_standalone(self):
        cls = md.classify_config(md.UasConfig(4, 0, 3))
        assert cls.non_regenerable is True
        assert cls.stand_alone is True

    def test_complete_degree2_graph_is_non_regenerable(self):
        cls = md.classify_config(md.UasConfig(4, 4, 4))
        assert cls.non_regenerable is True
        assert cls.stand_alone is None

    def test_undecided_otherwise(self):
        cls = md.classify_config(md.UasConfig(4, 2, 3))
        assert cls.non_regenerable is None
        assert cls.stand_alone is None


class TestCanonicalFixtures:
    def test_4_2_layout(self, uas_4_2):
        m = uas_4_2.incidence
        assert (m.n_rows, m.n_cols) == (7, 4)
        assert m.entries == (
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
            (3, 0), (3, 3), (4, 1), (4, 3), (5, 0), (6, 2),
        )

    def test_4_4_layout(self, uas_4_4):
        m = uas_4_4.incidence
        assert (m.n_rows, m.n_cols) == (10, 4)
        assert m.entries[:12] == (
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
            (3, 0), (3, 3), (4, 1), (4, 3), (5, 0), (5, 2),
        )
        assert m.entries[12:] == ((6, 0), (7, 1), (8, 2), (9, 3))

    def test_unique_instance(self, uas_4_2, inst_4_2):
        assert inst_4_2.vns == (0, 1, 2, 3)
        assert inst_4_2.deg1_cns == (5, 6)
        assert inst_4_2.deg2_cns == (0, 1, 2, 3, 4)
        assert _plan_edges([inst_4_2]) == [tuple(range(10))]
        assert inst_4_2.a == 4 and inst_4_2.d1 == 2

    def test_instance_equality_ignores_graph(self, uas_4_2):
        first = uas_4_2.instance()
        second = uas_4_2.instance()
        assert first is not second
        assert first.graph is not second.graph
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_hand_built_instance_plans_its_degree2_edges(self):
        g = md.build_graph(md.expand_qc(array_host(3, 4, 5)))
        nodes = ((0, 7, 12, 19), (0, 4), (2, 5, 6, 10, 13))
        inst = md.UasInstance(*nodes, g)
        assert inst in md.enumerate_uas(g, md.UasConfig(4, 2, 3))
        _, deg2_entry_ids = reference_instance(g, *nodes)
        assert _plan_edges([inst]) == [deg2_entry_ids] == [(9, 10, 20, 22, 25, 27, 40, 41, 54, 55)]

    def test_gamma_regular(self, uas_4_2, uas_4_4):
        assert md.check_regular_gamma(uas_4_2.incidence) == 3
        assert md.check_regular_gamma(uas_4_4.incidence) == 4

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="4_2_g3"):
            md.canonical_uas("5_3_g3")


class TestEnumeration:
    @pytest.mark.parametrize(
        "rows,cols,p,config",
        [
            (3, 3, 3, md.UasConfig(4, 2, 3)),
            (3, 3, 5, md.UasConfig(4, 2, 3)),
            (4, 4, 5, md.UasConfig(4, 4, 4)),
        ],
    )
    def test_matches_brute_force(self, rows, cols, p, config):
        m = md.expand_qc(array_host(rows, cols, p))
        got = md.enumerate_uas(md.build_graph(m), config)
        keyed = {(i.vns, i.deg1_cns, i.deg2_cns) for i in got}
        assert len(keyed) == len(got)
        assert keyed == brute_force_uas(m, config)

    @pytest.mark.parametrize(
        "rows,cols,p,config,count",
        [
            (3, 3, 3, md.UasConfig(4, 2, 3), 27),
            (3, 3, 5, md.UasConfig(4, 2, 3), 5),
            (3, 5, 5, md.UasConfig(4, 2, 3), 150),
            (3, 5, 7, md.UasConfig(4, 2, 3), 84),
            (3, 7, 7, md.UasConfig(4, 2, 3), 441),
            (4, 4, 5, md.UasConfig(4, 4, 4), 20),
            (4, 5, 7, md.UasConfig(4, 4, 4), 42),
            (4, 6, 11, md.UasConfig(4, 4, 4), 0),
        ],
    )
    def test_known_host_counts(self, rows, cols, p, config, count):
        g = md.build_graph(md.expand_qc(array_host(rows, cols, p)))
        assert len(md.enumerate_uas(g, config)) == count

    def test_standalone_host(self):
        got = md.enumerate_uas(md.build_graph(k4_host()), md.UasConfig(4, 0, 3))
        assert len(got) == 1
        assert got[0].vns == (0, 1, 2, 3)
        assert got[0].deg1_cns == ()

    def test_instances_satisfy_definition(self):
        g = md.build_graph(md.expand_qc(array_host(3, 3, 3)))
        for inst in md.enumerate_uas(g, md.UasConfig(4, 2, 3)):
            sub = inst.deg2_subgraph()
            assert set(sub.vns) == set(inst.vns)
            assert all(sub.cn_degree(c) == 2 for c in inst.deg2_cns)
            assert len(sub.edges) == 2 * len(inst.deg2_cns)


def _plan_edges(instances) -> list[tuple[int, ...]]:
    """Each instance's sorted degree-2 entry ids, as its plan steps list them."""
    steps, _ = activity_plans(instances)
    return [tuple(sorted(row.ravel().tolist())) for row in steps[..., 2:]]


def _fields(instances):
    return [
        (i.vns, i.deg1_cns, i.deg2_cns, eids)
        for i, eids in zip(instances, _plan_edges(instances))
    ]


def _ref_fields(found):
    """The reference's rows, with the degree-2 entry ids it computed itself."""
    return [(i.vns, i.deg1_cns, i.deg2_cns, deg2_eids) for i, deg2_eids in found]


def _assert_family(g, configs) -> dict:
    """Each class's list and each of its sibling lists equal the reference's lists.

    Returns the reference's rows by class, each class searched once.
    """
    ref = {}
    for config in configs:
        got = md.enumerate_uas(g, config)
        assert list(got.siblings) == list(range(config.d1 - 2, -1, -2)), config
        for d, found in [(config.d1, got), *got.siblings.items()]:
            c = dataclasses.replace(config, d1=d)
            if c not in ref:
                ref[c] = _ref_fields(reference_enumerate_uas(g, c))
            assert _fields(found) == ref[c], (config, d)
    return ref


@st.composite
def wide_column_hosts(draw):
    """(matrix, gamma): gamma 5 or 6, most columns of weight gamma, the rest one more or one fewer.

    Few rows per column weight make VN pairs share several checks (4-cycles).
    """
    gamma = draw(st.integers(5, 6))
    n_rows = draw(st.integers(gamma + 2, 3 * gamma))
    n_cols = draw(st.integers(3, 9))
    entries = []
    for col in range(n_cols):
        weight = draw(st.sampled_from([gamma] * 4 + [gamma - 1, gamma + 1]))
        rows = draw(st.sets(st.integers(0, n_rows - 1), min_size=weight, max_size=weight))
        entries += [(r, col) for r in rows]
    return md.BinaryMatrix.from_entries(n_rows, n_cols, entries), gamma


class TestAgainstReference:
    """The pruned search returns exactly the unpruned reference's list."""

    @pytest.mark.parametrize("rows,cols,p", [(3, 3, 3), (3, 4, 5), (4, 4, 5)])
    def test_hosts_at_every_d1(self, rows, cols, p):
        g = md.build_graph(md.expand_qc(array_host(rows, cols, p)))
        for config in legal_configs(range(4, 7), rows):
            assert _fields(md.enumerate_uas(g, config)) == _ref_fields(
                reference_enumerate_uas(g, config)
            ), config

    @pytest.mark.parametrize("cols,lam,total", [(4, 2, 372), (6, 4, 4392)])
    def test_hosts_with_4_cycles(self, cols, lam, total):
        # Two VNs share up to lam checks, so a joining VN may hit up to lam
        # degree-1 checks per member: the search's window is at its loosest.
        g = md.build_graph(md.expand_qc(array_host(4, cols, 4)))
        checks = {vn: {cn for cn, _ in g.vn_adj[vn]} for vn in g.vns}
        shared = (len(checks[u] & checks[v]) for u, v in itertools.combinations(g.vns, 2))
        assert max(shared) == lam
        found = 0
        for config in legal_configs(range(2, 7), 4):
            ref = reference_enumerate_uas(g, config)
            assert _fields(md.enumerate_uas(g, config)) == _ref_fields(ref), config
            found += len(ref)
        assert found == total

    @pytest.mark.parametrize(
        "rows,cols,p,target,entry,recount,count",
        [
            (3, 4, 5, (5, 3, 3), True, (5, 3, 3), 6),
            (3, 4, 5, (4, 2, 3), False, (4, 2, 3), 0),
            (3, 4, 5, (4, 2, 3), False, (4, 4, 3), 285),
            (4, 4, 5, (4, 4, 4), True, (4, 4, 4), 0),
        ],
    )
    def test_designed_md_matrices(self, rows, cols, p, target, entry, recount, count):
        host = array_host(rows, cols, p)
        res = md.design_md(md.expand_qc(host) if entry else host, 3, md.UasConfig(*target))
        g = md.build_graph(res.h_md)
        config = md.UasConfig(*recount)
        ref = reference_enumerate_uas(g, config)
        assert len(ref) == count
        assert _fields(md.enumerate_uas(g, config)) == _ref_fields(ref)

    def test_md_matrix_wider_than_64_checks(self):
        # 75 checks: the check masks need more than one machine word.
        res = md.design_md(md.expand_qc(array_host(3, 4, 5)), 5, md.UasConfig(4, 2, 3))
        assert res.h_md.n_rows == 75
        g = md.build_graph(res.h_md)
        config = md.UasConfig(4, 4, 3)
        ref = reference_enumerate_uas(g, config)
        assert len(ref) == 380
        assert _fields(md.enumerate_uas(g, config)) == _ref_fields(ref)

    def test_subgraph_with_sparse_ids(self):
        # Check and VN ids are neither dense nor starting at 0, so check
        # positions in g.cns differ from the ids the instances report.
        host = md.build_graph(md.expand_qc(array_host(3, 4, 5)))
        g = induced_subgraph(host, range(3, 20), [c for c in host.cns if c % 4 != 1])
        assert g.cns != tuple(range(len(g.cns)))
        assert g.vns != tuple(range(len(g.vns)))
        total = 0
        for config in legal_configs(range(2, 7), 3):
            ref = reference_enumerate_uas(g, config)
            assert _fields(md.enumerate_uas(g, config)) == _ref_fields(ref), config
            total += len(ref)
        assert total

    @pytest.mark.differential
    @settings(max_examples=100, deadline=None)
    @given(host=irregular_hosts())
    def test_irregular_column_weights(self, host):
        m, gamma = host
        _assert_family(md.build_graph(m), legal_configs(range(1, 6), gamma))

    @pytest.mark.differential
    @settings(max_examples=100, deadline=None)
    @given(host=wide_column_hosts())
    def test_column_weights_5_and_6(self, host):
        # A joining VN then needs up to 4 degree-1 checks in common with the
        # set, past the search's 3-level candidate counters.
        m, gamma = host
        _assert_family(md.build_graph(m), legal_configs(range(1, 6), gamma))


def _group(g):
    """The graph's shift group as a list of (VN map, CN map) tuples, identity first."""
    vmaps, cmaps = _shift_group(g)
    return list(zip(map(tuple, vmaps.tolist()), map(tuple, cmaps.tolist())))


def _maps_edges_onto_itself(g, vmap, cmap):
    edges = {(cn, vn) for cn, vn, _ in g.edges}
    return {(cmap[cn], vmap[vn]) for cn, vn in edges} == edges


def _block_shift(n, p):
    return [x - x % p + (x + 1) % p for x in range(n)]


@st.composite
def relocated_qc_hosts(draw):
    """(MD matrix, gamma): a random QC host, some blocks zero, relocated at M = 3 or 5.

    gamma is one of the matrix's column weights, so zero blocks leave some
    columns out of the search.
    """
    p = draw(st.integers(2, 4))
    m_b, n_b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    blocks = {
        (i, j): draw(st.integers(0, p - 1))
        for i in range(m_b)
        for j in range(n_b)
        if draw(st.integers(0, 9))
    }
    if not blocks:
        blocks[(0, 0)] = 0
    qc = md.QcMatrix.from_blocks(p, m_b, n_b, blocks)
    host = md.expand_qc(qc)
    m = draw(st.sampled_from([3, 5]))
    values = st.integers(0, m - 1)
    if draw(st.booleans()):
        reloc = md.RelocationMap(m, qc)
        for bi, bj, _ in qc.circulants:
            reloc.assign_circulant(bi, bj, draw(values))
    else:
        reloc = md.RelocationMap(m, host)
        for r, c in host.entries:
            reloc.assign_entry(r, c, draw(values))
    h_md = md.assemble_md(reloc)
    weights = sorted({d for d in h_md.column_degrees if d >= 2})
    return h_md, draw(st.sampled_from(weights or [2]))


QC_SHAPES = [(3, 3, 3), (3, 4, 5), (4, 4, 5), (3, 7, 11)]

# (rows, cols, p, target, M, entry granularity): an array host's MD design,
# the number its shift group's order must be a multiple of, and recounts.
DESIGNS = [
    (3, 4, 5, (5, 3, 3), 3, True, 3, [(5, 3, 3), (4, 4, 3)]),
    (3, 4, 5, (4, 2, 3), 3, False, 15, [(4, 4, 3), (5, 5, 3)]),
    (3, 3, 3, (4, 2, 3), 3, False, 9, [(4, 4, 3), (6, 4, 3), (6, 6, 3)]),
    (3, 3, 3, (4, 2, 3), 3, True, 3, [(4, 4, 3), (5, 3, 3), (6, 0, 3), (6, 2, 3)]),
    (3, 3, 5, (4, 2, 3), 5, False, 25, [(4, 4, 3), (5, 5, 3)]),
    (3, 3, 5, (4, 2, 3), 5, True, 5, [(5, 3, 3), (6, 2, 3)]),
]


class TestShiftSymmetry:
    """The search modulo the graph's own cyclic shifts returns the reference list."""

    @pytest.mark.parametrize("rows,cols,p", QC_SHAPES)
    def test_qc_host_group(self, rows, cols, p):
        g = md.build_graph(md.expand_qc(array_host(rows, cols, p)))
        assert len(_group(g)) % p == 0

    @pytest.mark.parametrize("rows,cols,p,target,m,entry,divisor,recounts", DESIGNS)
    def test_designed_md_matrices(self, rows, cols, p, target, m, entry, divisor, recounts):
        g = designed_graph(rows, cols, p, target, m, entry)
        assert len(_group(g)) % divisor == 0
        for recount in recounts:
            config = md.UasConfig(*recount)
            ref = reference_enumerate_uas(g, config)
            assert ref, config
            assert _fields(md.enumerate_uas(g, config)) == _ref_fields(ref), config

    def test_group_is_all_of_zm_times_zp(self):
        # M = p = 3: copy shift and circulant shift give Z_3 x Z_3, not a cyclic group.
        g = designed_graph(3, 3, 3, (4, 2, 3), 3, False)
        group = _group(g)
        assert len(group) == 9
        assert len(set(group)) == 9
        assert all(_maps_edges_onto_itself(g, vmap, cmap) for vmap, cmap in group)

    def test_moved_entry_breaks_symmetry(self):
        h = moved_entry_graph()
        assert len(_group(h)) == 1
        for config in legal_configs(range(4, 7), 3):
            assert _fields(md.enumerate_uas(h, config)) == _ref_fields(
                reference_enumerate_uas(h, config)
            ), config

    def test_non_free_group_falls_back(self):
        # The rotation and the pair swap inside every block of 4 generate
        # the dihedral group of order 8, whose reflections fix VNs, so only
        # a free subgroup of it may be kept.  The rotation is tried first
        # (larger block), so the kept subgroup is its Z_4.
        g = dihedral_graph()
        for p in (2, 4):
            assert _maps_edges_onto_itself(g, _block_shift(12, p), _block_shift(12, p))
        group = _group(g)
        assert len(group) == 4
        assert all(
            all(v != x for v, x in enumerate(vmap)) for vmap, _ in group[1:]
        ), "an element other than the identity fixes a VN"
        assert all(_maps_edges_onto_itself(g, vmap, cmap) for vmap, cmap in group)
        counts = {}
        for config in legal_configs(range(3, 6), 3):
            ref = reference_enumerate_uas(g, config)
            assert _fields(md.enumerate_uas(g, config)) == _ref_fields(ref), config
            counts[(config.a, config.d1)] = len(ref)
        assert {k: n for k, n in counts.items() if n} == {(3, 1): 4, (4, 4): 16, (5, 3): 32}

    @pytest.mark.differential
    @settings(max_examples=60, deadline=None)
    @given(case=relocated_qc_hosts())
    def test_relocated_qc_hosts(self, case):
        h_md, gamma = case
        g = md.build_graph(h_md)
        for config in legal_configs(range(2, 6), gamma):
            assert _fields(md.enumerate_uas(g, config)) == _ref_fields(
                reference_enumerate_uas(g, config)
            ), config


# Graphs the array group is checked on, with the classes whose orbit
# expansion is checked: QC hosts, the designed MD matrices (Z_3 x Z_3
# among them), the dihedral matrix whose full group is not free, and the
# moved-entry matrix no shift fixes.
GROUP_CASES = (
    [pytest.param(("qc", s), [(4, 2), (5, 3), (4, 4)] if s[0] == 3 else [(4, 4), (6, 4)], id=f"qc{s}")
     for s in QC_SHAPES]
    + [pytest.param(("design", d[:6]), [r[:2] for r in d[7]], id=f"design{d[:6]}") for d in DESIGNS]
    + [pytest.param(("dihedral", ()), [(3, 1), (4, 4), (5, 3)], id="dihedral"),
       pytest.param(("moved", ()), [(4, 2), (4, 4), (6, 2)], id="moved-entry")]
)


def _case_graph(case):
    kind, args = case
    if kind == "qc":
        return md.build_graph(md.expand_qc(array_host(*args)))
    if kind == "design":
        return designed_graph(*args)
    return {"dihedral": dihedral_graph, "moved": moved_entry_graph,
            "k4": lambda: md.build_graph(k4_host())}[kind]()


@pytest.mark.differential
class TestGroupAgainstReference:
    """The group as permutation arrays and the numpy orbit expansion, against the tuple group and dict expansion."""

    @pytest.mark.parametrize("case, classes", GROUP_CASES)
    def test_group_equals_reference(self, case, classes):
        g = _case_graph(case)
        got, want = _group(g), reference_shift_group(g)
        assert got[0] == want[0] == (g.vns, g.cns)
        assert len(set(got)) == len(got) == len(want)
        assert set(got) == set(want)
        assert all((a == b).all() for a, b in zip(g.shift_group, _shift_group(g)))

    @pytest.mark.parametrize("case, classes", GROUP_CASES)
    def test_group_sends_edges_to_their_images(self, case, classes):
        # Every element permutes the VNs and checks, fixes no VN unless it is
        # the identity, and sends each edge (cn, vn) to an edge.
        g = _case_graph(case)
        group = _group(g)
        for i, (vmap, cmap) in enumerate(group):
            assert sorted(vmap) == list(g.vns) and sorted(cmap) == list(g.cns)
            assert i == 0 or all(v != x for v, x in zip(g.vns, vmap))
            assert _maps_edges_onto_itself(g, vmap, cmap)

    @pytest.mark.parametrize("case, classes", GROUP_CASES)
    def test_expansion_equals_reference(self, case, classes):
        # The instance of least VN tuple in each orbit, expanded through the
        # tuple group by the dict expansion, gives the whole list.
        g = _case_graph(case)
        group = reference_shift_group(g)
        gamma, found = len(g.vn_adj[0]), 0
        for a, d1 in classes:
            got = [(u.vns, u.deg1_cns, u.deg2_cns) for u in md.enumerate_uas(g, md.UasConfig(a, d1, gamma))]
            least = [u for u in got
                     if u[0] == min(tuple(sorted(vmap[v] for v in u[0])) for vmap, _ in group)]
            want = reference_expand(g, group, least)
            assert got == [(u.vns, u.deg1_cns, u.deg2_cns) for u in want], (a, d1)
            assert len(least) * len(group) >= len(got) >= len(least)
            found += len(got) - len(least)
        assert found or len(group) == 1


# Hosts whose sibling census is known: (graph case, target (a, d1), sibling counts by d').
SIBLING_CASES = [
    pytest.param(("k4", ()), (4, 2), {0: 1}, id="k4"),
    pytest.param(("qc", (3, 5, 5)), (6, 2), {0: 50}, id="qc(3, 5, 5)"),
    pytest.param(("qc", (4, 5, 5)), (6, 4), {2: 200, 0: 0}, id="qc(4, 5, 5)"),
]

# design_md needs a regular host, which the moved-entry matrix is not.
NOTE_CASES = [p for p in GROUP_CASES if p.id != "moved-entry"] + [
    pytest.param(p.values[0], [p.values[1]], id=p.id) for p in SIBLING_CASES
]


@pytest.mark.differential
class TestSiblingClasses:
    """The search that lists a class lists its smaller-d1 siblings, each as the reference does."""

    @pytest.mark.parametrize("case, target, counts", SIBLING_CASES)
    def test_sibling_counts(self, case, target, counts):
        g = _case_graph(case)
        gamma = len(g.vn_adj[0])
        ref = _assert_family(g, [md.UasConfig(*target, gamma)])
        assert {c.d1: len(rows) for c, rows in ref.items() if c.d1 < target[1]} == counts

    @pytest.mark.parametrize("case, classes", GROUP_CASES)
    def test_group_cases(self, case, classes):
        g = _case_graph(case)
        if case == ("qc", (3, 7, 11)):
            # The reference walks every connected 5-set of this host once per
            # class, about 10 s each, so a = 5 families are checked on the
            # smaller hosts only.
            classes = [c for c in classes if c[0] < 5]
        _assert_family(g, [md.UasConfig(a, d1, len(g.vn_adj[0])) for a, d1 in classes])

    @pytest.mark.parametrize("case, classes", NOTE_CASES)
    def test_design_notes_equal_reference(self, case, classes):
        # The notes design_md reads off the siblings equal those of one
        # search per sibling class.
        g = _case_graph(case)
        entries = [(cn, vn) for cn, vn, _ in g.edges]
        host = md.BinaryMatrix.from_entries(len(g.cns), len(g.vns), entries)
        for a, d1 in classes:
            config = md.UasConfig(a, d1, len(g.vn_adj[0]))
            notes = md.design_md(host, 3, config).report.warnings
            assert notes == tuple(reference_notes(md.build_graph(host), config)), config

    def test_size_one_target(self):
        got = md.enumerate_uas(md.build_graph(k4_host()), md.UasConfig(1, 2, 6))
        assert got == [] and got.siblings == {0: []}


def test_recount_expands_only_the_target_class(monkeypatch):
    # A (6, 2) search on array_host(3, 5, 5) also finds 50 (6, 0) siblings;
    # the recount reads only the target class, so only that class is expanded.
    import mdreloc.absorbing as absorbing

    calls = []
    real = absorbing._distinct
    monkeypatch.setattr(absorbing, "_distinct", lambda rows: calls.append(len(rows)) or real(rows))
    host, config = md.expand_qc(array_host(3, 5, 5)), md.UasConfig(6, 2, 3)
    assert md.enumerate_md_uas(host, config) == 1050
    assert len(calls) == 1
    found = md.enumerate_uas(md.build_graph(host), config)
    assert len(calls) == 2
    assert {d: len(rows) for d, rows in found.siblings.items()} == {0: 50}
    assert len(calls) == 3
