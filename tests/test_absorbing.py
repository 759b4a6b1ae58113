"""Absorbing-set structure: configs, enumeration, and reference fixtures."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
from mdreloc.absorbing import _shift_group

from conftest import array_host, k4_host
from reference_uas import reference_enumerate_uas


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
        assert inst_4_2.deg2_entry_ids == tuple(range(10))
        assert inst_4_2.a == 4 and inst_4_2.d1 == 2

    def test_instance_equality_ignores_graph(self, uas_4_2):
        first = uas_4_2.instance()
        second = uas_4_2.instance()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

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


def _fields(instances):
    return [
        (i.vns, i.deg1_cns, i.deg2_cns, i.entry_ids, i.deg2_entry_ids)
        for i in instances
    ]


def _legal_configs(sizes, gamma):
    for a in sizes:
        for d1 in range(a * gamma + 1):
            try:
                yield md.UasConfig(a, d1, gamma)
            except ValueError:
                continue


@st.composite
def irregular_hosts(draw):
    """(matrix, gamma): most columns have gamma entries, the rest one more or one fewer."""
    gamma = draw(st.integers(2, 4))
    n_rows = draw(st.integers(gamma + 2, 9))
    n_cols = draw(st.integers(3, 10))
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
        for config in _legal_configs(range(4, 7), rows):
            assert _fields(md.enumerate_uas(g, config)) == _fields(
                reference_enumerate_uas(g, config)
            ), config

    @pytest.mark.filterwarnings("ignore::UserWarning")
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
        res = md.design_md(
            array_host(rows, cols, p), 3, md.UasConfig(*target), entry_granularity=entry
        )
        g = md.build_graph(res.h_md)
        config = md.UasConfig(*recount)
        ref = reference_enumerate_uas(g, config)
        assert len(ref) == count
        assert _fields(md.enumerate_uas(g, config)) == _fields(ref)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_md_matrix_wider_than_64_checks(self):
        # 75 checks: the check masks need more than one machine word.
        res = md.design_md(
            array_host(3, 4, 5), 5, md.UasConfig(4, 2, 3), entry_granularity=True
        )
        assert res.h_md.n_rows == 75
        g = md.build_graph(res.h_md)
        config = md.UasConfig(4, 4, 3)
        ref = reference_enumerate_uas(g, config)
        assert len(ref) == 380
        assert _fields(md.enumerate_uas(g, config)) == _fields(ref)

    def test_subgraph_with_sparse_ids(self):
        # Check and VN ids are neither dense nor starting at 0, so check
        # positions in g.cns differ from the ids the instances report.
        host = md.build_graph(md.expand_qc(array_host(3, 4, 5)))
        g = host.subgraph(range(3, 20), [c for c in host.cns if c % 4 != 1])
        assert g.cns != tuple(range(len(g.cns)))
        assert g.vns != tuple(range(len(g.vns)))
        total = 0
        for config in _legal_configs(range(2, 7), 3):
            ref = reference_enumerate_uas(g, config)
            assert _fields(md.enumerate_uas(g, config)) == _fields(ref), config
            total += len(ref)
        assert total

    @settings(max_examples=100, deadline=None)
    @given(host=irregular_hosts())
    def test_irregular_column_weights(self, host):
        m, gamma = host
        g = md.build_graph(m)
        for config in _legal_configs(range(1, 6), gamma):
            assert _fields(md.enumerate_uas(g, config)) == _fields(
                reference_enumerate_uas(g, config)
            ), config


def _design_graph(rows, cols, p, target, m, entry):
    res = md.design_md(
        array_host(rows, cols, p), m, md.UasConfig(*target), entry_granularity=entry
    )
    return md.build_graph(res.h_md)


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
        reloc = md.RelocationMap(m, host, qc=qc, granularity="circulant")
        for bi, bj, _ in qc.circulants:
            reloc.assign_circulant(bi, bj, draw(values))
    else:
        reloc = md.RelocationMap(m, host)
        for r, c in host.entries:
            reloc.assign_entry(r, c, draw(values))
    h_md = md.assemble_md(host, reloc)
    weights = sorted({d for d in h_md.column_degrees if d >= 2})
    return h_md, draw(st.sampled_from(weights or [2]))


class TestShiftSymmetry:
    """The search modulo the graph's own cyclic shifts returns the reference list."""

    @pytest.mark.parametrize("rows,cols,p", [(3, 3, 3), (3, 4, 5), (4, 4, 5), (3, 7, 11)])
    def test_qc_host_group(self, rows, cols, p):
        g = md.build_graph(md.expand_qc(array_host(rows, cols, p)))
        assert len(_shift_group(g)) % p == 0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize(
        "rows,cols,p,target,m,entry,divisor,recounts",
        [
            (3, 4, 5, (5, 3, 3), 3, True, 3, [(5, 3, 3), (4, 4, 3)]),
            (3, 4, 5, (4, 2, 3), 3, False, 15, [(4, 4, 3), (5, 5, 3)]),
            (3, 3, 3, (4, 2, 3), 3, False, 9, [(4, 4, 3), (6, 4, 3), (6, 6, 3)]),
            (3, 3, 3, (4, 2, 3), 3, True, 3, [(4, 4, 3), (5, 3, 3), (6, 0, 3), (6, 2, 3)]),
            (3, 3, 5, (4, 2, 3), 5, False, 25, [(4, 4, 3), (5, 5, 3)]),
            (3, 3, 5, (4, 2, 3), 5, True, 5, [(5, 3, 3), (6, 2, 3)]),
        ],
    )
    def test_designed_md_matrices(self, rows, cols, p, target, m, entry, divisor, recounts):
        g = _design_graph(rows, cols, p, target, m, entry)
        assert len(_shift_group(g)) % divisor == 0
        for recount in recounts:
            config = md.UasConfig(*recount)
            ref = reference_enumerate_uas(g, config)
            assert ref, config
            assert _fields(md.enumerate_uas(g, config)) == _fields(ref), config

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_group_is_all_of_zm_times_zp(self):
        # M = p = 3: copy shift and circulant shift give Z_3 x Z_3, not a cyclic group.
        g = _design_graph(3, 3, 3, (4, 2, 3), 3, False)
        group = _shift_group(g)
        assert len(group) == 9
        assert len(set(group)) == 9
        assert all(_maps_edges_onto_itself(g, vmap, cmap) for vmap, cmap in group)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_moved_entry_breaks_symmetry(self):
        g = _design_graph(3, 3, 3, (4, 2, 3), 3, False)
        edges = [(cn, vn) for cn, vn, _ in g.edges]
        cn, vn = edges[0]
        free_col = next(v for v in g.vns if (cn, v) not in set(edges) and v > vn)
        moved = md.BinaryMatrix.from_entries(
            len(g.cns), len(g.vns), edges[1:] + [(cn, free_col)]
        )
        h = md.build_graph(moved)
        assert len(_shift_group(h)) == 1
        for config in _legal_configs(range(4, 7), 3):
            assert _fields(md.enumerate_uas(h, config)) == _fields(
                reference_enumerate_uas(h, config)
            ), config

    def test_non_free_group_falls_back(self):
        # 4 x 4 blocks built from I, P^2 and P + P^3, each fixed by the
        # rotation and the pair swap inside every block of 4.  Those shifts
        # generate the dihedral group of order 8, whose reflections fix VNs,
        # so only a free subgroup of it may be kept.  The rotation is tried
        # first (larger block), so the kept subgroup is its Z_4.
        eye = np.eye(4, dtype=int)
        blocks = {"I": eye, "P2": np.roll(eye, 2, axis=1), "Z": 0 * eye}
        blocks["Q"] = np.roll(eye, 1, axis=1) + np.roll(eye, 3, axis=1)
        grid = [["P2", "Z", "P2"], ["P2", "Q", "Q"], ["I", "I", "Z"]]
        m = md.BinaryMatrix.from_dense(np.block([[blocks[b] for b in row] for row in grid]))
        g = md.build_graph(m)
        for p in (2, 4):
            assert _maps_edges_onto_itself(g, _block_shift(12, p), _block_shift(12, p))
        group = _shift_group(g)
        assert len(group) == 4
        assert all(
            all(v != x for v, x in enumerate(vmap)) for vmap, _ in group[1:]
        ), "an element other than the identity fixes a VN"
        assert all(_maps_edges_onto_itself(g, vmap, cmap) for vmap, cmap in group)
        counts = {}
        for config in _legal_configs(range(3, 6), 3):
            ref = reference_enumerate_uas(g, config)
            assert _fields(md.enumerate_uas(g, config)) == _fields(ref), config
            counts[(config.a, config.d1)] = len(ref)
        assert {k: n for k, n in counts.items() if n} == {(3, 1): 4, (4, 4): 16, (5, 3): 32}

    @settings(max_examples=60, deadline=None)
    @given(case=relocated_qc_hosts())
    def test_relocated_qc_hosts(self, case):
        h_md, gamma = case
        g = md.build_graph(h_md)
        for config in _legal_configs(range(2, 6), gamma):
            assert _fields(md.enumerate_uas(g, config)) == _fields(
                reference_enumerate_uas(g, config)
            ), config
