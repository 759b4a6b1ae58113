"""Relocation maps and the multi-copy (MD) parity-check construction.

A relocation map attaches a value in [0, M) to every nonzero entry of a
host matrix.  ``RelocationMap`` is the one place that state lives: its
``units`` table maps each relocation unit (a circulant or an entry) to
the entry ids it covers, and its ``values`` vector holds one value per
host entry id.  The designer, the MD assembly and the oracles read both.
The MD matrix is an M x M grid of blocks over the host shape: entries
with value 0 stay on the diagonal blocks, and an entry with value L is
moved so that variable-node copy j is checked in check-node copy
(j + L) mod M.

A cycle of the host survives inside a single copy structure iff its
alternating entry-value sum vanishes mod M; such cycles (and absorbing
sets all of whose cycles satisfy this) are called *active* here.
``intact``, the library's one activity test, decides this for many
instances and maps at once by fundamental-cycle sums; the designer, the
Monte Carlo and ``oracle.md_object_profile`` run it.  ``activity_plans``
is the activity test's one reader of an instance's degree-2 edges:
``intact`` sums on its plans, ``involvement`` gathers from the same plans
the relocation units each instance touches, for the designer and
``analyze``, and the oracle's one-instance readers take their steps from
them.  One numpy pass builds every instance's plan.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .tanner import BinaryMatrix, ParseError, QcMatrix, _Lines, _to_text, expand_qc

GRANULARITIES = ("circulant", "entry")


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 primes: exact below 3.3 * 10^24, and so for every M below 2^32."""
    if n <= _WITNESSES[-1]:
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << i, n) == n - 1 for i in range(s)) for b in _WITNESSES)


def check_copies(m_copies: int) -> None:
    """Raise ValueError unless the number of copies M is an odd prime below 2^32."""
    if m_copies >= 2**32:
        raise ValueError(f"number of copies {m_copies} must be below 2^32")
    if m_copies <= 2 or not is_prime(m_copies):
        raise ValueError(f"number of copies {m_copies} must be an odd prime")


def unit_table(host: BinaryMatrix | QcMatrix) -> dict[tuple, tuple[int, ...]]:
    """Relocation unit -> the host entry ids it covers, sorted by unit.

    Units are the circulants ('c', bi, bj) of a QcMatrix host, over its
    expansion's entry ids, or the entries ('e', row, col) of a BinaryMatrix.
    """
    if not isinstance(host, QcMatrix):
        return {("e", r, c): (eid,) for eid, (r, c) in enumerate(host.entries)}
    index = expand_qc(host).entry_index
    return {
        ("c", bi, bj): tuple(index[pos] for pos in host.block_positions(bi, bj))
        for bi, bj, _ in sorted(host.circulants)
    }


def _unit_name(unit: tuple) -> str:
    kind, i, j = unit
    return f"entry ({i}, {j})" if kind == "e" else f"block ({i}, {j})"


class RelocationMap:
    """Assignment of relocation values to the units of a host matrix.

    ``units`` is the map's ``unit_table``: the circulants of a QcMatrix
    host (``granularity`` "circulant", ``matrix`` its expansion) or the
    entries of a BinaryMatrix host ("entry", ``qc`` None).  A map assigns
    only units of its own granularity, each unit once.  ``values`` is a
    read-only int64 vector holding every host entry's value; entries of
    unassigned units are 0.
    """

    def __init__(self, m_copies: int, host: BinaryMatrix | QcMatrix):
        check_copies(m_copies)
        self.m_copies = m_copies
        self.qc = host if isinstance(host, QcMatrix) else None
        self.matrix = host if self.qc is None else expand_qc(host)
        self.granularity = "entry" if self.qc is None else "circulant"
        self._values = np.zeros(len(self.matrix.entries), dtype=np.int64)
        self.values = self._values.view()
        self.values.flags.writeable = False
        self._assigned: dict[tuple, int] = {}

    @cached_property
    def units(self) -> dict[tuple, tuple[int, ...]]:
        """The map's ``unit_table``: its units and the entry ids each covers."""
        return unit_table(self.qc or self.matrix)

    def _assign(self, unit: tuple, ell: int):
        """Give ``unit`` value ``ell``."""
        kind, i, j = unit
        if not (0 <= ell < self.m_copies):
            raise ValueError(f"relocation value {ell} out of range [0, {self.m_copies})")
        if kind != self.granularity[0]:
            raise ValueError(
                f"a map of {self.granularity} granularity cannot assign {_unit_name(unit)}")
        eids = self.units.get(unit)
        if eids is None:
            raise ValueError(f"({i}, {j}) is not a nonzero position of the host" if kind == "e"
                             else f"block ({i}, {j}) is a zero circulant")
        if unit in self._assigned:
            raise ValueError(f"{_unit_name(unit)} already assigned")
        self._assigned[unit] = ell
        for eid in eids:
            self._values[eid] = ell

    def assign_entry(self, row: int, col: int, ell: int):
        """Assign one entry, identified by its matrix position."""
        self._assign(("e", row, col), ell)

    def assign_circulant(self, bi: int, bj: int, ell: int):
        """Assign all p entries of one circulant block."""
        self._assign(("c", bi, bj), ell)

    @property
    def assigned_units(self) -> tuple[tuple, ...]:
        """Assignments in order, as ('c', bi, bj, ell) / ('e', row, col, ell)."""
        return tuple((*unit, ell) for unit, ell in self._assigned.items())

    def to_text(self) -> str:
        out = [f"reloc M={self.m_copies} granularity={self.granularity}"]
        for unit in self.assigned_units:
            out.append(" ".join(str(t) for t in unit))
        return "\n".join(out) + "\n"


def parse_reloc(text, host: BinaryMatrix | QcMatrix) -> RelocationMap:
    """Parse ``RelocationMap.to_text`` output into a map over ``host``.

    The header picks the unit: ``entry`` on a QcMatrix host relocates its expansion.
    """
    cur = _Lines(_to_text(text))
    first = next(iter(cur), None)
    if first is None:
        raise ParseError("empty relocation file", 1)
    ln0, header = first
    toks = header.split()
    if len(toks) != 3 or toks[0] != "reloc":
        raise ParseError("expected header 'reloc M=<M> granularity=<g>'", ln0)
    try:
        fields = dict(t.split("=", 1) for t in toks[1:])
        m_copies = int(fields["M"])
        granularity = fields["granularity"]
    except (ValueError, KeyError):
        raise ParseError(f"malformed header {header!r}", ln0) from None
    if granularity not in GRANULARITIES:
        raise ParseError(f"granularity must be one of {GRANULARITIES}", ln0)
    if granularity == "circulant" and not isinstance(host, QcMatrix):
        raise ParseError("circulant granularity needs the circulant table", ln0)
    if granularity == "entry" and isinstance(host, QcMatrix):
        host = expand_qc(host)
    try:
        reloc = RelocationMap(m_copies, host)
    except ValueError as exc:
        raise ParseError(str(exc), ln0) from None
    for ln, raw in cur:
        kind, *args = raw.split()
        form = {"c": "c bi bj ell", "e": "e row col ell"}.get(kind) if len(args) == 3 else None
        if form is None:
            raise ParseError(f"expected 'c bi bj ell' or 'e row col ell', got {raw!r}", ln)
        try:
            ints = [int(tok) for tok in args]
        except ValueError:
            raise ParseError(f"expected integers in {form!r}, got {raw!r}", ln) from None
        try:
            (reloc.assign_circulant if kind == "c" else reloc.assign_entry)(*ints)
        except ValueError as exc:
            raise ParseError(str(exc), ln) from None
    return reloc


# ---------------------------------------------------------------------------
# Activity


# Cells per block: (instance, step, column) differences summed at once by
# ``intact``, and (instance, check, edge) matches made at once by
# ``activity_plans``; the oracle blocks its own kernels by the same budget.
_BLOCK_CELLS = 1 << 18


def activity_plans(instances) -> tuple[np.ndarray, np.ndarray]:
    """The instances' plans stacked as (steps, cycles) arrays.

    Layer i of int64 ``steps`` holds instance i's steps (x, y, e1, e2),
    one per degree-2 check, over positions in ``u.vns`` and host entry
    ids: the check's edge e1 at VN x and e2 at VN y.  The a - 1 tree steps
    span the degree-2 subgraph from the first VN, each oriented from a VN
    an earlier step reached; the loops (non-tree checks, by check id)
    follow.  Row l of layer i of int8 ``cycles`` is loop l's cycle as
    signs over the steps: +1 on the loop, +1 or -1 on the tree path from
    its y back to its x as it runs along or against a step.  Times the
    differences R(e1) - R(e2) it gives the cycle's alternating value sum;
    the set is intact exactly when all are 0 mod M, the paper's test on
    any fundamental basis.

    All instances must come from one graph and have the same VN and
    degree-2 check counts, as the instances of one (a, d1) class do.  Each
    check's two ends are read off the instances' own VN adjacency, a
    padded (check, entry id) table per VN, in blocks of at most
    ``_BLOCK_CELLS`` (instance, check, edge) cells.  The tree grows in
    a - 1 rounds: each instance takes its first check by id that joins a
    reached VN to a new one, whose tree path is its parent's plus that step.
    """
    if not instances:
        return np.zeros((0, 0, 4), dtype=np.int64), np.zeros((0, 0, 0), dtype=np.int8)
    g = instances[0].graph
    if any(u.graph is not g for u in instances):
        raise ValueError("planned instances must come from one graph")
    # adj[v, k]: (check, entry id) of VN v's k-th edge; (-1, -1) past its degree.
    by_vn = np.array(g.edges, dtype=np.int64).reshape(-1, 3)
    by_vn = by_vn[np.argsort(by_vn[:, 1], kind="stable")]
    slot = np.arange(len(by_vn)) - np.searchsorted(by_vn[:, 1], by_vn[:, 1])
    adj = np.full((max(g.vns) + 1, slot.max(initial=-1) + 1, 2), -1, dtype=np.int64)
    adj[by_vn[:, 1], slot] = by_vn[:, ::2]
    vns = np.array([u.vns for u in instances], dtype=np.int64)
    deg2 = np.array([u.deg2_cns for u in instances], dtype=np.int64)
    (n, a), d2, width = vns.shape, deg2.shape[1], adj.shape[1]
    # Fewer than a - 1 checks cannot connect the VNs; the rounds refuse them.
    plan, cycles = np.empty((n, d2, 4), dtype=np.int64), np.empty((n, max(0, d2 - a + 1), d2), dtype=np.int8)
    step = max(1, _BLOCK_CELLS // max(1, d2 * a * width))
    for b0 in range(0, n, step):
        edges, checks = adj[vns[b0:b0 + step]].reshape(-1, a * width, 2), deg2[b0:b0 + step]
        nb, rows = len(checks), np.arange(len(checks))
        hit = checks[:, :, None] == edges[:, None, :, 0]
        degree = hit.sum(axis=2)
        if (degree != 2).any():
            i, j = np.argwhere(degree != 2)[0]
            raise ValueError(f"check {checks[i, j]} has induced degree {degree[i, j]}, expected 2")
        # Each check's two edges in VN order: x, y their VNs, e1, e2 their ids.
        ends = hit.nonzero()[2].reshape(nb, d2, 2)
        steps = np.concatenate((ends // width, edges[rows[:, None, None], ends, 1]), axis=2)
        # at[i, j]: step j's x and y as flat indices into seen (VNs reached)
        # and path (their tree paths, +1 over tree steps).
        at = steps[..., :2] + a * rows[:, None, None]
        seen = np.zeros(nb * a, dtype=bool)
        seen[::a] = True
        path = np.zeros((nb * a, a - 1), dtype=np.int8)
        picked, turned = np.empty((nb, a - 1), dtype=np.int64), np.empty((nb, a - 1), dtype=bool)
        for k in range(a - 1):
            reached = seen[at]
            crossing = reached[..., 0] != reached[..., 1]
            if not crossing.any(axis=1).all():
                raise ValueError("degree-2 subgraph is not connected")
            j = picked[:, k] = crossing.argmax(axis=1)
            # A tree step whose y end was reached first is turned round.
            turned[:, k] = ~reached[rows, j, 0]
            pair = at[rows, j]
            parent, new = np.where(turned[:, k, None], pair[:, ::-1], pair).T
            seen[new] = True
            path[new] = path[parent]
            path[new, k] = 1
        block = steps[rows[:, None], picked]
        plan[b0:b0 + step, :a - 1] = np.where(turned[..., None], block[..., [1, 0, 3, 2]], block)
        in_tree = np.zeros((nb, d2), dtype=bool)
        in_tree[rows[:, None], picked] = True
        plan[b0:b0 + step, a - 1:] = steps[~in_tree].reshape(nb, -1, 4)
        loop_at = at[~in_tree].reshape(nb, -1, 2)
        cycles[b0:b0 + step, :, :a - 1] = path[loop_at[..., 0]] - path[loop_at[..., 1]]
        cycles[b0:b0 + step, :, a - 1:] = np.eye(d2 - a + 1, dtype=np.int8)
    return plan, cycles


def intact(plans, values: np.ndarray, m: int) -> np.ndarray:
    """Bool (instances, columns): instance i survives the map in column j.

    ``plans`` comes from ``activity_plans``; ``values`` holds one row per
    host entry id and one column per relocation map.  An instance survives
    when its fundamental-cycle sums, its ``cycles`` times its step
    differences, are all 0 mod M.  Instances go in blocks of at most
    ``_BLOCK_CELLS`` (instance, step, column) cells, and at least one
    instance per block.
    """
    steps, cycles = plans
    step = max(1, _BLOCK_CELLS // max(1, steps.shape[1] * values.shape[1]))
    out = np.empty((len(steps), values.shape[1]), dtype=bool)
    for b0 in range(0, len(steps), step):
        block = steps[b0:b0 + step]
        diff = values[block[..., 2]] - values[block[..., 3]]
        out[b0:b0 + step] = (cycles[b0:b0 + step] @ diff % m == 0).all(axis=1)
    return out


def involvement(plans, units: dict) -> np.ndarray:
    """Bool (instances, units): planned instance i has a degree-2 edge in unit j.

    ``plans`` comes from ``activity_plans``; every degree-2 check is one
    of its instance's steps, so the steps' e1 and e2 columns are exactly
    the instance's degree-2 edges.  Units are the keys of a
    ``unit_table``, in its order, and cover every host entry id once.
    """
    eid, col = np.array([(e, j) for j, eids in enumerate(units.values()) for e in eids],
                        dtype=np.int64).reshape(-1, 2).T
    column = np.empty(len(eid), dtype=np.int64)
    column[eid] = col
    steps = plans[0]
    out = np.zeros((len(steps), len(units)), dtype=bool)
    out[np.arange(len(steps))[:, None, None], column[steps[..., 2:]]] = True
    return out


# ---------------------------------------------------------------------------
# MD assembly


def assemble_md(reloc: RelocationMap) -> BinaryMatrix:
    """The M-copy MD matrix: block (i, j) holds entries of value (i - j) mod M.

    Copy j of ``reloc.matrix`` occupies the j-th block of rows/columns, so
    MD position (i * n_rows + r, j * n_cols + c) is nonzero iff the host
    has an entry at (r, c) with relocation value (i - j) mod M: an entry
    of value ell joins VN copy j to check copy (j + ell) mod M.
    """
    m, n_rows, n_cols = reloc.m_copies, reloc.matrix.n_rows, reloc.matrix.n_cols
    out = [
        ((j + ell) % m * n_rows + r, j * n_cols + c)
        for (r, c), ell in zip(reloc.matrix.entries, reloc.values.tolist())
        for j in range(m)
    ]
    return BinaryMatrix(m * n_rows, m * n_cols, tuple(sorted(out)))
