"""Sparse binary parity-check matrices, quasi-cyclic structure, and Tanner graphs.

Two text formats are supported:

* ``alist`` - the common interchange format for sparse binary matrices.
  Line 1 holds ``N M`` (number of columns, then rows), line 2 the maximum
  column and row degrees, line 3 the N column degrees, line 4 the M row
  degrees.  Then follow N lines listing the 1-indexed row neighbours of
  each column and M lines listing the 1-indexed column neighbours of each
  row, each line zero-padded to the declared maximum degree.
* ``qc`` - a circulant-power table for quasi-cyclic matrices.  The header
  is ``qc 1``, ``p <size>``, ``rows <m_b> cols <n_b>``; the body has m_b
  lines of n_b tokens, each either ``-`` (all-zero circulant) or a shift
  in ``[0, p)``.

Nonzero positions are identified by dense entry-ids assigned in row-major
order; every structure here keeps that numbering stable so that downstream
bookkeeping (cycles, relocation values) can index by entry-id.

All classes in this module are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .shifts import _shift_group


class ParseError(ValueError):
    """Malformed matrix file.  ``line`` is the 1-indexed offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class BinaryMatrix:
    """A sparse matrix over GF(2), stored as sorted (row, col) positions.

    Entry-ids are the indices into ``entries``; because entries are kept in
    row-major order the numbering is reproducible across parse/write
    round-trips.
    """

    n_rows: int
    n_cols: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        prev = None
        for r, c in self.entries:
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            if prev is not None and (r, c) <= prev:
                raise ValueError("entries must be strictly row-major sorted")
            prev = (r, c)

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, entries) -> "BinaryMatrix":
        """Build from an external iterable of (row, col) pairs in any order.

        Duplicate positions are a hard error rather than being merged,
        since a silent merge would hide a bug in whatever generated them.
        """
        ordered = sorted((int(r), int(c)) for r, c in entries)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate entry at {a}")
        return cls(n_rows, n_cols, tuple(ordered))

    @classmethod
    def from_dense(cls, array) -> "BinaryMatrix":
        arr = np.asarray(array)
        rows, cols = np.nonzero(arr)
        return cls(arr.shape[0], arr.shape[1], tuple(zip(rows.tolist(), cols.tolist())))

    @cached_property
    def entry_index(self) -> dict[tuple[int, int], int]:
        """Map (row, col) -> entry-id."""
        return {pos: i for i, pos in enumerate(self.entries)}

    @cached_property
    def rows_of_col(self) -> tuple[tuple[int, ...], ...]:
        cols: list[list[int]] = [[] for _ in range(self.n_cols)]
        for r, c in self.entries:
            cols[c].append(r)
        return tuple(tuple(c) for c in cols)

    @cached_property
    def cols_of_row(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in range(self.n_rows)]
        for r, c in self.entries:
            rows[r].append(c)
        return tuple(tuple(r) for r in rows)

    @property
    def column_degrees(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.rows_of_col)

    @property
    def row_degrees(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.cols_of_row)

    def to_dense(self):
        arr = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for r, c in self.entries:
            arr[r, c] = 1
        return arr


@dataclass(frozen=True)
class QcMatrix:
    """A quasi-cyclic matrix: an m_b x n_b array of p x p circulants.

    ``circulants`` lists the nonzero blocks as (block_row, block_col, shift)
    with shift k meaning the circulant has its ones at (r, (r + k) mod p);
    shift 0 is the identity.
    """

    p: int
    m_b: int
    n_b: int
    circulants: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("circulant size p must be >= 1")
        if self.m_b < 1 or self.n_b < 1:
            raise ValueError("base dimensions must be positive")
        seen = set()
        for bi, bj, k in self.circulants:
            if not (0 <= bi < self.m_b and 0 <= bj < self.n_b):
                raise ValueError(f"block ({bi}, {bj}) out of range")
            if not (0 <= k < self.p):
                raise ValueError(f"shift {k} out of range for p={self.p}")
            if (bi, bj) in seen:
                raise ValueError(f"duplicate block ({bi}, {bj})")
            seen.add((bi, bj))

    @classmethod
    def from_blocks(cls, p: int, m_b: int, n_b: int, blocks) -> "QcMatrix":
        """``blocks`` maps (block_row, block_col) -> shift."""
        items = sorted((int(bi), int(bj), int(k)) for (bi, bj), k in dict(blocks).items())
        return cls(p, m_b, n_b, tuple(items))

    @cached_property
    def shift_of_block(self) -> dict[tuple[int, int], int]:
        return {(bi, bj): k for bi, bj, k in self.circulants}

    def block_positions(self, bi: int, bj: int) -> tuple[tuple[int, int], ...]:
        """Expanded (row, col) positions of the nonzero circulant at block (bi, bj)."""
        k, p = self.shift_of_block[(bi, bj)], self.p
        return tuple((bi * p + r, bj * p + (r + k) % p) for r in range(p))

    @cached_property
    def expanded(self) -> BinaryMatrix:
        """The full matrix, built on first use; ``expand_qc`` returns it."""
        entries = [pos for bi, bj, _ in self.circulants for pos in self.block_positions(bi, bj)]
        return BinaryMatrix(self.m_b * self.p, self.n_b * self.p, tuple(sorted(entries)))


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite graph between check nodes (rows) and variable nodes (cols).

    ``edges`` holds (cn, vn, entry_id) triples sorted by entry-id.  For a
    full graph built from a matrix the entry-ids are dense; induced
    subgraphs keep the ids of their host so relocation values and cycle
    vectors stay aligned.
    """

    cns: tuple[int, ...]
    vns: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @cached_property
    def cn_adj(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """cn -> ((vn, entry_id), ...)"""
        adj: dict[int, list[tuple[int, int]]] = {c: [] for c in self.cns}
        for cn, vn, eid in self.edges:
            adj[cn].append((vn, eid))
        return {c: tuple(v) for c, v in adj.items()}

    @cached_property
    def vn_adj(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """vn -> ((cn, entry_id), ...)"""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vns}
        for cn, vn, eid in self.edges:
            adj[vn].append((cn, eid))
        return {v: tuple(e) for v, e in adj.items()}

    def cn_degree(self, cn: int) -> int:
        return len(self.cn_adj[cn])

    @cached_property
    def shift_group(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, C): ``shifts._shift_group`` of this graph, detected on first use."""
        return _shift_group(self)


def build_graph(m: BinaryMatrix) -> TannerGraph:
    """Tanner graph of a matrix: one CN per row, one VN per column."""
    edges = tuple((r, c, i) for i, (r, c) in enumerate(m.entries))
    return TannerGraph(tuple(range(m.n_rows)), tuple(range(m.n_cols)), edges)


def expand_qc(q: QcMatrix) -> BinaryMatrix:
    """The full (m_b*p) x (n_b*p) matrix of the circulant powers, built once per table."""
    return q.expanded


def check_regular_gamma(m: BinaryMatrix) -> int | None:
    """The common column weight, or None if columns are irregular."""
    degs = set(m.column_degrees)
    if len(degs) == 1:
        return degs.pop()
    return None


def check_no_4cycles(g: TannerGraph) -> bool:
    """True iff no two CNs share two VNs (equivalently, girth > 4)."""
    seen: set[tuple[int, int]] = set()
    for cn in g.cns:
        vns = [vn for vn, _ in g.cn_adj[cn]]
        for i in range(len(vns)):
            for j in range(i + 1, len(vns)):
                pair = (vns[i], vns[j]) if vns[i] < vns[j] else (vns[j], vns[i])
                if pair in seen:
                    return False
                seen.add(pair)
    return True


# ---------------------------------------------------------------------------
# alist format


def _to_text(data) -> str:
    """The text of a matrix or reloc file, given as bytes or str; it must be ASCII.

    A non-ASCII byte or character is a ParseError at its line, counted as
    ``_Lines`` counts them.
    """
    is_str = isinstance(data, str)
    text = data if is_str else data.decode("ascii", "replace")
    if text.isascii():
        return text
    pos = next(i for i, ch in enumerate(text) if not ch.isascii())
    what = f"character U+{ord(text[pos]):04X}" if is_str else f"byte 0x{data[pos]:02x}"
    raise ParseError(f"non-ASCII {what}", len((text[:pos] + "x").splitlines()))


class _Lines:
    """Line cursor of the alist, qc and reloc parsers.

    Blank lines are skipped, and positions are 1-indexed as parse errors
    report them.
    """

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def __iter__(self):
        """The remaining nonblank lines, stripped, as (line number, text)."""
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1].strip()
            if raw:
                yield self.pos, raw

    def next_line(self, what: str) -> tuple[int, str]:
        for found in self:
            return found
        raise ParseError(f"unexpected end of file, missing {what}", len(self.lines) + 1)

    def next_ints(self, what: str) -> tuple[int, list[int]]:
        ln, raw = self.next_line(what)
        try:
            return ln, [int(tok) for tok in raw.split()]
        except ValueError:
            raise ParseError(f"expected integers for {what}", ln) from None


def parse_alist(text) -> BinaryMatrix:
    """Parse alist text (str or bytes) into a BinaryMatrix.

    The column and row neighbour sections are cross-checked against each
    other; padding zeros beyond the declared degree are accepted, and both
    padded and unpadded neighbour lines are tolerated.
    """
    cur = _Lines(_to_text(text))

    ln, header = cur.next_ints("the 'N M' header")
    if len(header) != 2 or min(header) < 0:
        raise ParseError("header must hold two nonnegative integers: N M", ln)
    n_cols, n_rows = header

    ln, maxima = cur.next_ints("the maximum degrees")
    if len(maxima) != 2 or min(maxima) < 0:
        raise ParseError("expected two maximum degrees", ln)
    max_col, max_row = maxima

    # the writer leaves the degree line of an empty dimension blank
    ln, col_degs = cur.next_ints("the column degrees") if n_cols else (ln, [])
    if len(col_degs) != n_cols:
        raise ParseError(f"expected {n_cols} column degrees, got {len(col_degs)}", ln)
    if col_degs and max(col_degs) > max_col:
        raise ParseError("a column degree exceeds the declared maximum", ln)
    ln, row_degs = cur.next_ints("the row degrees") if n_rows else (ln, [])
    if len(row_degs) != n_rows:
        raise ParseError(f"expected {n_rows} row degrees, got {len(row_degs)}", ln)
    if row_degs and max(row_degs) > max_row:
        raise ParseError("a row degree exceeds the declared maximum", ln)

    def read_block(count, degs, max_deg, limit, what):
        lists = []
        for idx in range(count):
            ln, vals = cur.next_ints(f"{what} {idx + 1}")
            # a degree-0 node is a lone 0 token, since blank lines are skipped
            if len(vals) not in (degs[idx], max(max_deg, 1)):
                raise ParseError(
                    f"{what} {idx + 1}: expected {degs[idx]} neighbours"
                    f" (optionally zero-padded to {max_deg}), got {len(vals)} tokens",
                    ln,
                )
            body, pad = vals[: degs[idx]], vals[degs[idx] :]
            if any(v == 0 for v in body):
                raise ParseError(f"{what} {idx + 1}: zero inside the neighbour list", ln)
            if any(v != 0 for v in pad):
                raise ParseError(f"{what} {idx + 1}: nonzero padding", ln)
            if any(not (1 <= v <= limit) for v in body):
                raise ParseError(f"{what} {idx + 1}: neighbour index out of range", ln)
            if len(set(body)) != len(body):
                raise ParseError(f"{what} {idx + 1}: duplicate neighbour", ln)
            lists.append(body)
        return lists

    col_lists = read_block(n_cols, col_degs, max_col, n_rows, "column list")
    row_lists = read_block(n_rows, row_degs, max_row, n_cols, "row list")

    from_cols = {(r - 1, c) for c, rows in enumerate(col_lists) for r in rows}
    from_rows = {(r, c - 1) for r, cols in enumerate(row_lists) for c in cols}
    if from_cols != from_rows:
        raise ParseError("column and row neighbour sections disagree", cur.pos)

    return BinaryMatrix(n_rows, n_cols, tuple(sorted(from_cols)))


def write_alist(m: BinaryMatrix) -> str:
    """Serialize to alist text, zero-padded, bit-stable across round-trips."""
    col_degs = m.column_degrees
    row_degs = m.row_degrees
    max_col = max(col_degs, default=0)
    max_row = max(row_degs, default=0)

    def pad(vals, width):
        return " ".join(str(v) for v in list(vals) + [0] * (width - len(vals)))

    out = [
        f"{m.n_cols} {m.n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(d) for d in col_degs),
        " ".join(str(d) for d in row_degs),
    ]
    # neighbour lines are 1-indexed, so a lone 0 marks an empty list and
    # keeps one line per node even for degree-0 nodes
    for c in range(m.n_cols):
        out.append(pad([r + 1 for r in m.rows_of_col[c]], max(max_col, 1)))
    for r in range(m.n_rows):
        out.append(pad([c + 1 for c in m.cols_of_row[r]], max(max_row, 1)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# qc format


def parse_qc(text) -> QcMatrix:
    """Parse the circulant-power table format into a QcMatrix."""
    cur = _Lines(_to_text(text))

    ln, magic = cur.next_line("the 'qc 1' header")
    if magic.split() != ["qc", "1"]:
        raise ParseError("expected header 'qc 1'", ln)
    ln, p_line = cur.next_line("the 'p <size>' line")
    toks = p_line.split()
    if len(toks) != 2 or toks[0] != "p":
        raise ParseError("expected 'p <size>'", ln)
    try:
        p = int(toks[1])
    except ValueError:
        raise ParseError("circulant size must be an integer", ln) from None
    if p < 1:
        raise ParseError("circulant size p must be >= 1", ln)
    ln, dims = cur.next_line("the 'rows <m_b> cols <n_b>' line")
    toks = dims.split()
    if len(toks) != 4 or toks[0] != "rows" or toks[2] != "cols":
        raise ParseError("expected 'rows <m_b> cols <n_b>'", ln)
    try:
        m_b, n_b = int(toks[1]), int(toks[3])
    except ValueError:
        raise ParseError("base dimensions must be integers", ln) from None
    if m_b < 1 or n_b < 1:
        raise ParseError("base dimensions must be positive", ln)

    blocks = {}
    for bi in range(m_b):
        ln, row = cur.next_line(f"base row {bi + 1}")
        toks = row.split()
        if len(toks) != n_b:
            raise ParseError(f"base row {bi + 1}: expected {n_b} tokens, got {len(toks)}", ln)
        for bj, tok in enumerate(toks):
            if tok == "-":
                continue
            try:
                k = int(tok)
            except ValueError:
                raise ParseError(f"base row {bi + 1}: bad shift token {tok!r}", ln) from None
            if not (0 <= k < p):
                raise ParseError(f"base row {bi + 1}: shift {k} out of range [0, {p})", ln)
            blocks[(bi, bj)] = k
    return QcMatrix.from_blocks(p, m_b, n_b, blocks)


def write_qc(q: QcMatrix) -> str:
    grid = [["-"] * q.n_b for _ in range(q.m_b)]
    for bi, bj, k in q.circulants:
        grid[bi][bj] = str(k)
    out = ["qc 1", f"p {q.p}", f"rows {q.m_b} cols {q.n_b}"]
    out.extend(" ".join(row) for row in grid)
    return "\n".join(out) + "\n"
