"""Reference MD lift: the per-edge assembly and instance subgraph.

Kept verbatim as a differential oracle.  Both read one relocation value
per host entry at a time off ``RelocationMap.values`` and place each
entry's M copies by ``md_edge_copies``, so they share no lifting code with
``mdreloc.relocation.assemble_md`` (which lifts the whole value vector)
or with ``mdreloc.oracle.md_object_profile`` (which reads the shape of
an instance's lift off the fundamental-cycle sums of ``intact``).
"""

from __future__ import annotations

from mdreloc.absorbing import UasInstance
from mdreloc.relocation import RelocationMap
from mdreloc.tanner import BinaryMatrix, TannerGraph


def md_edge_copies(ell: int, m_copies: int) -> tuple[tuple[int, int], ...]:
    """(check copy, variable copy) pairs an entry of value ell induces."""
    return tuple(((j + ell) % m_copies, j) for j in range(m_copies))


def assemble_md(matrix: BinaryMatrix, reloc: RelocationMap) -> BinaryMatrix:
    """The M-copy MD matrix: block (i, j) holds entries of value (i - j) mod M.

    Row/column copy j occupies the j-th block of rows/columns, so MD
    position (i * n_rows + r, j * n_cols + c) is nonzero iff the host has
    an entry at (r, c) with relocation value (i - j) mod M.
    """
    if reloc.matrix.entries != matrix.entries:
        raise ValueError("relocation map was built for a different host")
    m = reloc.m_copies
    out = []
    for eid, (r, c) in enumerate(matrix.entries):
        for ci, cj in md_edge_copies(reloc.values.item(eid), m):
            out.append((ci * matrix.n_rows + r, cj * matrix.n_cols + c))
    return BinaryMatrix.from_entries(m * matrix.n_rows, m * matrix.n_cols, out)


def md_instance_subgraph(u: UasInstance, reloc: RelocationMap) -> TannerGraph:
    """The M copies of the instance's own edges, labeled as in the MD matrix.

    CN copy i of host row r gets id i * n_rows + r, VN copy j of host
    column c gets id j * n_cols + c, matching the assembled MD matrix so
    the two constructions can be compared entry for entry.
    """
    vset = set(u.vns)
    m = reloc.m_copies
    n_rows, n_cols = reloc.matrix.n_rows, reloc.matrix.n_cols
    placed = []
    for cn, vn, eid in u.graph.edges:
        if vn not in vset:
            continue
        for ci, cj in md_edge_copies(reloc.values.item(eid), m):
            placed.append((ci * n_rows + cn, cj * n_cols + vn))
    placed.sort()
    edges = tuple((r, c, i) for i, (r, c) in enumerate(placed))
    cns = tuple(sorted({r for r, _ in placed}))
    vns = tuple(sorted({c for _, c in placed}))
    return TannerGraph(cns, vns, edges)
