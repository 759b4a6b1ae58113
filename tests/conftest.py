"""Shared fixtures: reference absorbing sets and small QC hosts."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

import mdreloc as md


def array_host(rows: int, cols: int, p: int) -> md.QcMatrix:
    """Fully populated QC matrix with shift i*j mod p at block (i, j).

    For prime p this layout has girth >= 6, which keeps the hosts valid
    design inputs without any screening step.
    """
    return md.QcMatrix.from_blocks(
        p, rows, cols, {(i, j): (i * j) % p for i in range(rows) for j in range(cols)}
    )


@functools.lru_cache
def designed_graph(rows, cols, p, target, m, entry) -> md.TannerGraph:
    """Tanner graph of the MD matrix ``design_md`` emits for an array host, built once."""
    host = array_host(rows, cols, p)
    res = md.design_md(md.expand_qc(host) if entry else host, m, md.UasConfig(*target))
    return md.build_graph(res.h_md)


def moved_entry_graph() -> md.TannerGraph:
    """The (3,3,3) M=3 circulant design with one entry moved along its row: no shift fixes it."""
    g = designed_graph(3, 3, 3, (4, 2, 3), 3, False)
    edges = [(cn, vn) for cn, vn, _ in g.edges]
    cn, vn = edges[0]
    free_col = next(v for v in g.vns if (cn, v) not in set(edges) and v > vn)
    moved = md.BinaryMatrix.from_entries(len(g.cns), len(g.vns), edges[1:] + [(cn, free_col)])
    return md.build_graph(moved)


def dihedral_graph() -> md.TannerGraph:
    """A 12 x 12 matrix of 4 x 4 blocks whose shifts generate the dihedral group of order 8.

    The blocks are I, P^2 and P + P^3, each fixed by the rotation and
    the pair swap inside every block of 4.
    """
    eye = np.eye(4, dtype=int)
    blocks = {"I": eye, "P2": np.roll(eye, 2, axis=1), "Z": 0 * eye}
    blocks["Q"] = np.roll(eye, 1, axis=1) + np.roll(eye, 3, axis=1)
    grid = [["P2", "Z", "P2"], ["P2", "Q", "Q"], ["I", "I", "Z"]]
    return md.build_graph(md.BinaryMatrix.from_dense(np.block([[blocks[b] for b in row] for row in grid])))


def lift_identity(m: md.BinaryMatrix) -> md.QcMatrix:
    """Wrap a plain matrix as a p=1 QC matrix, one circulant per entry."""
    return md.QcMatrix.from_blocks(1, m.n_rows, m.n_cols, {rc: 0 for rc in m.entries})


def k4_host() -> md.BinaryMatrix:
    """Six pairwise checks over four VNs: a single stand-alone (4,0) set."""
    pairs = itertools.combinations(range(4), 2)
    entries = [(r, v) for r, pair in enumerate(pairs) for v in pair]
    return md.BinaryMatrix.from_entries(6, 4, entries)


def shared_cycle_host() -> md.BinaryMatrix:
    """A 3-regular 6 x 5 host whose only (4,0) sets, VNs {0,1,2,3} and {0,1,2,4}, share a 6-cycle."""
    checks = [(0, 1), (0, 2), (1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)]
    return md.BinaryMatrix.from_entries(6, 5, [(r, v) for r, vns in enumerate(checks) for v in vns])


def induced_subgraph(g: md.TannerGraph, vns, cns) -> md.TannerGraph:
    """The subgraph of ``g`` on the given VNs and checks, filtered from all its edges.

    Node and entry ids stay the host's, so ids need be neither dense nor
    start at 0.
    """
    vset, cset = set(vns), set(cns)
    kept = tuple(e for e in g.edges if e[0] in cset and e[1] in vset)
    return md.TannerGraph(tuple(sorted(cset)), tuple(sorted(vset)), kept)


def legal_configs(sizes, gamma):
    """Every valid (a, d1) class over column weight gamma, for a in ``sizes``."""
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


@pytest.fixture(scope="session")
def uas_4_2() -> md.CanonicalUas:
    return md.canonical_uas("4_2_g3")


@pytest.fixture(scope="session")
def uas_4_4() -> md.CanonicalUas:
    return md.canonical_uas("4_4_g4")


@pytest.fixture(scope="session")
def inst_4_2(uas_4_2) -> md.UasInstance:
    return uas_4_2.instance()


@pytest.fixture(scope="session")
def inst_4_4(uas_4_4) -> md.UasInstance:
    return uas_4_4.instance()


@pytest.fixture(scope="session")
def basis_4_2(inst_4_2) -> md.CycleBasis:
    return md.minimum_cycle_basis(inst_4_2.deg2_subgraph())


@pytest.fixture(scope="session")
def basis_4_4(inst_4_4) -> md.CycleBasis:
    return md.minimum_cycle_basis(inst_4_4.deg2_subgraph())


def arrangement_1(incidence: md.BinaryMatrix) -> md.RelocationMap:
    """Reference relocation that keeps the (4,2) set intact across copies."""
    reloc = md.RelocationMap(3, incidence)
    reloc.assign_entry(4, 1, 1)
    reloc.assign_entry(4, 3, 1)
    return reloc


def arrangement_2(incidence: md.BinaryMatrix) -> md.RelocationMap:
    """Reference relocation that breaks the (4,2) set."""
    reloc = md.RelocationMap(3, incidence)
    reloc.assign_entry(2, 3, 1)
    reloc.assign_entry(3, 0, 1)
    return reloc


def assert_block_layout(h_md: md.BinaryMatrix, host: md.BinaryMatrix, reloc: md.RelocationMap, label=None):
    """Block (i, j) of the MD matrix holds exactly the host entries of value (i - j) mod M."""
    m, r, c = reloc.m_copies, host.n_rows, host.n_cols
    assert (h_md.n_rows, h_md.n_cols) == (m * r, m * c), label
    dense = h_md.to_dense()
    values = reloc.values.tolist()
    for i in range(m):
        for j in range(m):
            rows, cols = np.nonzero(dense[i * r : (i + 1) * r, j * c : (j + 1) * c])
            want = {pos for pos, ell in zip(host.entries, values) if ell == (i - j) % m}
            assert set(zip(rows.tolist(), cols.tolist())) == want, (label, i, j)
