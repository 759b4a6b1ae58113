"""Matrix containers, Tanner graph construction, and file formats."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreloc as md
from mdreloc import ParseError

import reference_md
from conftest import array_host


def ring_matrix() -> md.BinaryMatrix:
    # 4-cycle of checks over 4 VNs plus one weight-1 row
    entries = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0), (4, 0)]
    return md.BinaryMatrix.from_entries(5, 4, entries)


class TestBinaryMatrix:
    def test_entries_are_row_major(self):
        m = ring_matrix()
        assert m.entries == tuple(sorted(m.entries))
        assert m.entry_index[(3, 0)] == 6
        assert m.entry_index[(3, 3)] == 7

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            md.BinaryMatrix(2, 2, ((0, 0), (2, 0)))

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValueError, match="row-major"):
            md.BinaryMatrix(2, 2, ((1, 0), (0, 0)))

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            md.BinaryMatrix.from_entries(2, 2, [(0, 0), (0, 0)])

    def test_dense_round_trip(self):
        m = ring_matrix()
        assert md.BinaryMatrix.from_dense(m.to_dense()) == m

    def test_degrees(self):
        m = ring_matrix()
        assert m.column_degrees == (3, 2, 2, 2)
        assert m.row_degrees == (2, 2, 2, 2, 1)
        assert m.rows_of_col[0] == (0, 3, 4)
        assert m.cols_of_row[1] == (1, 2)


class TestQcMatrix:
    def test_single_circulant_layout(self):
        q = md.QcMatrix.from_blocks(3, 1, 1, {(0, 0): 1})
        m = md.expand_qc(q)
        assert m.entries == ((0, 1), (1, 2), (2, 0))

    def test_shift_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            md.QcMatrix.from_blocks(3, 1, 1, {(0, 0): 3})

    def test_expansion_matches_shift_rule(self):
        q = array_host(3, 4, 5)
        m = md.expand_qc(q)
        for (bi, bj), k in q.shift_of_block.items():
            for r in range(5):
                row = bi * 5 + r
                col = bj * 5 + (r + k) % 5
                assert (row, col) in m.entry_index

    def test_expansion_built_once(self):
        q = array_host(3, 4, 5)
        assert md.expand_qc(q) is md.expand_qc(q)
        res = md.design_md(q, 3, md.UasConfig(4, 2, 3))
        assert res.relocation.matrix is md.expand_qc(q)

    def test_block_positions(self):
        q = array_host(3, 4, 5)
        assert q.block_positions(2, 3) == ((10, 16), (11, 17), (12, 18), (13, 19), (14, 15))
        assert [pos for bi, bj, _ in q.circulants for pos in q.block_positions(bi, bj)] == sorted(
            md.expand_qc(q).entries, key=lambda rc: (rc[0] // 5, rc[1] // 5, rc[0]))
        with pytest.raises(KeyError):
            md.QcMatrix.from_blocks(3, 1, 2, {(0, 0): 1}).block_positions(0, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: md.BinaryMatrix(-1, 2, ()), "matrix dimensions must be nonnegative"),
    (lambda: md.QcMatrix(0, 1, 1, ()), "circulant size p must be >= 1"),
    (lambda: md.QcMatrix(3, 1, 0, ()), "base dimensions must be positive"),
    (lambda: md.QcMatrix(3, 1, 2, ((1, 0, 0),)), r"block \(1, 0\) out of range"),
    (lambda: md.QcMatrix(3, 1, 2, ((0, 1, 0), (0, 1, 2))), r"duplicate block \(0, 1\)"),
], ids=["negative-dims", "p", "base-dims", "block-range", "duplicate-block"])
def test_constructor_rejections(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestTannerGraph:
    def test_edges_sorted_by_entry_id(self):
        g = md.build_graph(ring_matrix())
        assert [e[2] for e in g.edges] == list(range(9))

    def test_adjacency_consistency(self):
        g = md.build_graph(ring_matrix())
        for cn, vn, eid in g.edges:
            assert (vn, eid) in g.cn_adj[cn]
            assert (cn, eid) in g.vn_adj[vn]
        assert len(g.vn_adj[0]) == 3
        assert g.cn_degree(4) == 1

    def test_regular_gamma(self):
        assert md.check_regular_gamma(md.expand_qc(array_host(3, 3, 5))) == 3
        assert md.check_regular_gamma(ring_matrix()) is None

    def test_no_4cycles(self):
        assert md.check_no_4cycles(md.build_graph(md.expand_qc(array_host(3, 3, 3))))
        # two stacked identity blocks share every VN pair
        doubled = md.QcMatrix.from_blocks(2, 2, 2, {(i, j): 0 for i in range(2) for j in range(2)})
        assert not md.check_no_4cycles(md.build_graph(md.expand_qc(doubled)))


def with_lines(base: list[str], **lines) -> str:
    """``base`` joined as file text, with line n replaced by ``lines[f"l{n}"]``."""
    out = list(base)
    for key, text in lines.items():
        out[int(key[1:]) - 1] = text
    return "\n".join(out) + "\n"


# [[1, 1], [0, 1]]: columns of degree 1 and 2, rows of degree 2 and 1.
ALIST = ["2 2", "2 2", "1 2", "2 1", "1 0", "1 2", "1 2", "2 0"]
QC = ["qc 1", "p 3", "rows 1 cols 2", "0 1"]


class TestAlistFormat:
    def test_rejection_base_parses(self):
        assert md.parse_alist(with_lines(ALIST)).entries == ((0, 0), (0, 1), (1, 1))

    @pytest.mark.parametrize("text, message", [
        ("2\n", "line 1: header must hold two nonnegative integers: N M"),
        ("-1 2\n", "line 1: header must hold two nonnegative integers: N M"),
        ("2 2\n2\n", "line 2: expected two maximum degrees"),
        ("2 2\n2 -1\n", "line 2: expected two maximum degrees"),
        (with_lines(ALIST, l3="1"), "line 3: expected 2 column degrees, got 1"),
        (with_lines(ALIST, l4="2 1 1"), "line 4: expected 2 row degrees, got 3"),
        ("2 1\n1 2\n2 1\n2\n1 0\n1 0\n1 2\n",
         "line 3: a column degree exceeds the declared maximum"),
        ("2 1\n2 1\n2 1\n2\n1 0\n1 0\n1 2\n",
         "line 4: a row degree exceeds the declared maximum"),
        (with_lines(ALIST, l5="1 0 0"),
         r"line 5: column list 1: expected 1 neighbours \(optionally zero-padded to 2\), got 3 tokens"),
        (with_lines(ALIST, l6="0 2"), "line 6: column list 2: zero inside the neighbour list"),
        (with_lines(ALIST, l5="1 2"), "line 5: column list 1: nonzero padding"),
        (with_lines(ALIST, l5="3 0"), "line 5: column list 1: neighbour index out of range"),
        (with_lines(ALIST, l6="1 1"), "line 6: column list 2: duplicate neighbour"),
        (with_lines(ALIST, l8="1 0"), "line 8: column and row neighbour sections disagree"),
    ], ids=["header-arity", "header-sign", "maxima-arity", "maxima-sign", "col-degree-count",
            "row-degree-count", "col-degree-max", "row-degree-max", "token-count", "zero-inside",
            "nonzero-padding", "index-range", "duplicate-neighbour", "sections-disagree"])
    def test_rejections(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            md.parse_alist(text)


    def test_round_trip(self):
        m = ring_matrix()
        assert md.parse_alist(md.write_alist(m)) == m

    def test_transposed_convention_detected(self):
        text = md.write_alist(ring_matrix())
        lines = text.splitlines()
        assert lines[0].split() == ["4", "5"]

    def test_truncated_file_reports_line(self):
        text = "\n".join(md.write_alist(ring_matrix()).splitlines()[:3]) + "\n"
        with pytest.raises(ParseError) as err:
            md.parse_alist(text)
        assert err.value.line is not None

    def test_bad_token_reports_line(self):
        text = md.write_alist(ring_matrix()).replace("4 5", "4 x", 1)
        with pytest.raises(ParseError, match="line 1"):
            md.parse_alist(text)

    def test_non_ascii_byte_reports_line(self):
        lines = md.write_alist(ring_matrix()).encode().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        with pytest.raises(ParseError, match="line 3: non-ASCII byte 0xff") as err:
            md.parse_alist(b"".join(lines))
        assert err.value.line == 3

    def test_non_ascii_digit_in_str_reports_line(self):
        # int() accepts any Unicode decimal digit, so text input is checked too.
        text = md.write_alist(ring_matrix())
        line = next(n for n, row in enumerate(text.splitlines(), 1) if "2" in row)
        with pytest.raises(ParseError, match=f"line {line}: non-ASCII character U\\+0662"):
            md.parse_alist(text.replace("2", "\u0662"))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 3)])
    def test_round_trip_empty_dimension(self, shape):
        # The degree line of an empty dimension is written blank.
        m = md.BinaryMatrix(*shape, ())
        text = md.write_alist(m)
        assert md.parse_alist(text) == m
        assert md.write_alist(md.parse_alist(text)) == text

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n_cols = data.draw(st.integers(1, 6))
        cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
        chosen = data.draw(st.sets(st.sampled_from(cells), min_size=0, max_size=len(cells)))
        m = md.BinaryMatrix.from_entries(n_rows, n_cols, chosen)
        assert md.parse_alist(md.write_alist(m)) == m


class TestQcFormat:
    def test_readme_example(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"\*\*qc\*\*.*?```text\n(.*?)```", readme, re.S)
        qc = md.parse_qc(block.group(1))
        assert (qc.p, qc.m_b, qc.n_b) == (3, 2, 3)
        assert qc.shift_of_block == {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 1}
        m = md.expand_qc(qc)
        assert (m.n_rows, m.n_cols, len(m.entries)) == (6, 9, 15)

    def test_round_trip(self):
        q = array_host(3, 5, 7)
        assert md.parse_qc(md.write_qc(q)) == q

    def test_sparse_blocks_round_trip(self):
        q = md.QcMatrix.from_blocks(3, 2, 3, {(0, 0): 1, (1, 2): 2})
        assert md.parse_qc(md.write_qc(q)) == q

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            md.parse_qc("qc 9\np 3\nrows 1 cols 1\n")

    def test_rejection_base_parses(self):
        assert md.parse_qc(with_lines(QC)) == md.QcMatrix(3, 1, 2, ((0, 0, 0), (0, 1, 1)))

    @pytest.mark.parametrize("text, message", [
        (with_lines(QC, l2="size 3"), "line 2: expected 'p <size>'"),
        (with_lines(QC, l2="p x"), "line 2: circulant size must be an integer"),
        (with_lines(QC, l2="p 0"), "line 2: circulant size p must be >= 1"),
        (with_lines(QC, l2="p -3"), "line 2: circulant size p must be >= 1"),
        (with_lines(QC, l3="rows 1"), "line 3: expected 'rows <m_b> cols <n_b>'"),
        (with_lines(QC, l3="rows 1 cols y"), "line 3: base dimensions must be integers"),
        (with_lines(QC, l3="rows 0 cols 2"), "line 3: base dimensions must be positive"),
        (with_lines(QC, l3="rows 1 cols -2"), "line 3: base dimensions must be positive"),
        (with_lines(QC, l4="0"), "line 4: base row 1: expected 2 tokens, got 1"),
        (with_lines(QC, l4="0 z"), "line 4: base row 1: bad shift token 'z'"),
        (with_lines(QC, l4="0 3"), r"line 4: base row 1: shift 3 out of range \[0, 3\)"),
    ], ids=["p-line", "p-integer", "p-zero", "p-negative", "dims-line", "dims-integer",
            "rows-zero", "cols-negative", "token-count", "shift-token", "shift-range"])
    def test_rejections(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            md.parse_qc(text)

    def test_non_ascii_byte_reports_line(self):
        text = md.write_qc(array_host(2, 2, 3))
        data = text.encode() + "# café\n".encode()
        with pytest.raises(ParseError, match="non-ASCII byte 0xc3") as err:
            md.parse_qc(data)
        assert err.value.line == len(text.splitlines()) + 1

    def test_non_ascii_character_in_str_reports_line(self):
        text = md.write_qc(array_host(2, 2, 3))
        assert text.splitlines()[1] == "p 3"
        with pytest.raises(ParseError, match="line 2: non-ASCII character U\\+FF13") as err:
            md.parse_qc(text.replace("p 3", "p \uff13"))
        assert err.value.line == 2

    def test_missing_shift_line(self):
        q = array_host(2, 2, 3)
        text = "\n".join(md.write_qc(q).splitlines()[:-1]) + "\n"
        with pytest.raises(ParseError):
            md.parse_qc(text)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        p = data.draw(st.sampled_from([1, 2, 3, 5]))
        m_b = data.draw(st.integers(1, 4))
        n_b = data.draw(st.integers(1, 4))
        cells = [(i, j) for i in range(m_b) for j in range(n_b)]
        chosen = data.draw(st.sets(st.sampled_from(cells), min_size=1, max_size=len(cells)))
        blocks = {cell: data.draw(st.integers(0, p - 1)) for cell in sorted(chosen)}
        q = md.QcMatrix.from_blocks(p, m_b, n_b, blocks)
        assert md.parse_qc(md.write_qc(q)) == q
        assert md.expand_qc(q).n_rows == m_b * p


@st.composite
def entry_lists(draw, max_rows=6, max_cols=6, min_size=0):
    """(n_rows, n_cols, distinct positions in drawn order)."""
    n_rows, n_cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    return n_rows, n_cols, draw(st.lists(st.sampled_from(cells), min_size=min_size, unique=True))


def assert_plain_ints(m: md.BinaryMatrix):
    assert all(type(v) is int for pos in m.entries for v in pos)


@pytest.mark.differential
class TestDirectBuildsAgainstFromEntries:
    """The builders that sort distinct positions into the constructor, against ``from_entries``."""

    @settings(max_examples=40, deadline=None)
    @given(entry_lists())
    def test_parse_alist(self, drawn):
        want = md.BinaryMatrix.from_entries(*drawn)
        got = md.parse_alist(md.write_alist(want).encode())
        assert got == want
        assert_plain_ints(got)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 5]), entry_lists(4, 4), st.data())
    def test_qc_expansion(self, p, drawn, data):
        m_b, n_b, cells = drawn
        shifts = {cell: data.draw(st.integers(0, p - 1)) for cell in cells}
        q = md.QcMatrix.from_blocks(p, m_b, n_b, shifts)
        positions = [pos for bi, bj, _ in q.circulants for pos in q.block_positions(bi, bj)]
        want = md.BinaryMatrix.from_entries(m_b * p, n_b * p, positions)
        got = md.expand_qc(q)
        assert got == want
        assert_plain_ints(got)

    @settings(max_examples=40, deadline=None)
    @given(entry_lists(), st.sampled_from([3, 5]), st.data())
    def test_assemble_md(self, drawn, m_copies, data):
        host = md.BinaryMatrix.from_entries(*drawn)
        reloc = md.RelocationMap(m_copies, host)
        for r, c in host.entries:
            reloc.assign_entry(r, c, data.draw(st.integers(0, m_copies - 1)))
        got = md.assemble_md(reloc)
        assert got == reference_md.assemble_md(host, reloc)
        assert_plain_ints(got)

    @settings(max_examples=40, deadline=None)
    @given(entry_lists(min_size=1), st.data())
    def test_repeated_entry_rejected(self, drawn, data):
        # The constructor's row-major check is the one duplicate check of the direct builds.
        n_rows, n_cols, cells = drawn
        entries = sorted(cells + [data.draw(st.sampled_from(cells))])
        with pytest.raises(ValueError, match="strictly row-major"):
            md.BinaryMatrix(n_rows, n_cols, tuple(entries))
