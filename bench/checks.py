"""Correctness checks computed apart from mdreloc.

Nothing here imports the package: matrices are read from the files the
program wrote with a parser of our own, absorbing sets are tested against
the (a, d1) definition directly, and the closed forms are recomputed from
the basic-cycle count.  Each check raises ``CheckError`` with a message
naming what disagreed.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import networkx as nx


class CheckError(AssertionError):
    """A program output disagrees with an independent computation."""


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


class Matrix:
    """A sparse binary matrix as a set of (row, col) positions."""

    def __init__(self, n_rows: int, n_cols: int, entries):
        self.n_rows, self.n_cols = n_rows, n_cols
        self.entries = frozenset(entries)
        self.rows_of_col = [[] for _ in range(n_cols)]
        self.cols_of_row = [[] for _ in range(n_rows)]
        for r, c in sorted(self.entries):
            self.rows_of_col[c].append(r)
            self.cols_of_row[r].append(c)


# ---------------------------------------------------------------------------
# Inputs and outputs in text form


def array_shifts(rows: int, cols: int, p: int, row_off, col_off) -> dict:
    """Block shifts i*j + col_off[j] - row_off[i] mod p.

    Shifting the rows of block row i by row_off[i] and the columns of block
    column j by col_off[j] relabels the array host's Tanner graph without
    changing it, so every structural count is independent of the offsets.
    """
    return {
        (i, j): (i * j + col_off[j] - row_off[i]) % p
        for i in range(rows)
        for j in range(cols)
    }


def qc_text(p: int, rows: int, cols: int, shifts: dict) -> str:
    grid = [[str(shifts[(i, j)]) if (i, j) in shifts else "-" for j in range(cols)] for i in range(rows)]
    return "\n".join(["qc 1", f"p {p}", f"rows {rows} cols {cols}", *(" ".join(r) for r in grid)]) + "\n"


def qc_matrix(p: int, rows: int, cols: int, shifts: dict) -> Matrix:
    entries = [
        (bi * p + r, bj * p + (r + k) % p) for (bi, bj), k in shifts.items() for r in range(p)
    ]
    return Matrix(rows * p, cols * p, entries)


def alist_text(m: Matrix) -> str:
    col_deg = [len(x) for x in m.rows_of_col]
    row_deg = [len(x) for x in m.cols_of_row]
    wc, wr = max(max(col_deg), 1), max(max(row_deg), 1)

    def line(vals, width):
        return " ".join([str(v + 1) for v in vals] + ["0"] * (width - len(vals)))

    out = [f"{m.n_cols} {m.n_rows}", f"{wc} {wr}", " ".join(map(str, col_deg)), " ".join(map(str, row_deg))]
    out += [line(rows, wc) for rows in m.rows_of_col]
    out += [line(cols, wr) for cols in m.cols_of_row]
    return "\n".join(out) + "\n"


def parse_alist(text: str) -> Matrix:
    """Read alist text; the column and row sections must describe the same matrix."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n_cols, n_rows = map(int, lines[0])
    by_col = {(int(r) - 1, c) for c, ln in enumerate(lines[4 : 4 + n_cols]) for r in ln if r != "0"}
    by_row = {
        (r, int(c) - 1) for r, ln in enumerate(lines[4 + n_cols : 4 + n_cols + n_rows]) for c in ln if c != "0"
    }
    require(by_col == by_row, "alist column and row sections disagree")
    require(len(lines) == 4 + n_cols + n_rows, "alist has trailing or missing lines")
    return Matrix(n_rows, n_cols, by_col)


def parse_reloc(text: str, host: Matrix, p: int | None) -> tuple[int, dict]:
    """Relocation values per host entry (0 where unassigned), and M."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    fields = dict(tok.split("=", 1) for tok in lines[0][1:])
    m = int(fields["M"])
    values = dict.fromkeys(host.entries, 0)
    for kind, a, b, v in lines[1:]:
        a, b, v = int(a), int(b), int(v)
        if kind == "c":
            cells = [(r, c) for r, c in host.entries if r // p == a and c // p == b]
            require(len(cells) == p, f"circulant ({a}, {b}) has {len(cells)} entries, expected {p}")
        else:
            cells = [(a, b)]
        for cell in cells:
            require(cell in values, f"relocated position {cell} is not a host entry")
            values[cell] = v
    return m, values


# ---------------------------------------------------------------------------
# The MD matrix


def check_md_matrix(md: Matrix, host: Matrix, values: dict, m: int, gamma: int):
    """Block (i, j) of the MD matrix must hold the host entries of value (i - j) mod M."""
    require(
        (md.n_rows, md.n_cols) == (m * host.n_rows, m * host.n_cols),
        f"MD shape {md.n_rows}x{md.n_cols} is not M={m} times the host",
    )
    for i in range(m):
        for j in range(m):
            want = {(r, c) for (r, c), v in values.items() if v == (i - j) % m}
            got = {
                (r - i * host.n_rows, c - j * host.n_cols)
                for r, c in md.entries
                if r // host.n_rows == i and c // host.n_cols == j
            }
            require(got == want, f"MD block ({i}, {j}) differs from the relocation map")
    require(
        all(len(rows) == gamma for rows in md.rows_of_col),
        f"MD matrix is not column-regular with weight {gamma}",
    )
    require(four_cycle_free(md), "MD matrix has a 4-cycle")


def four_cycle_free(m: Matrix) -> bool:
    seen = set()
    for cols in m.cols_of_row:
        for k, u in enumerate(cols):
            for w in cols[k + 1 :]:
                if (u, w) in seen:
                    return False
                seen.add((u, w))
    return True


# ---------------------------------------------------------------------------
# Absorbing sets


def check_uas(m: Matrix, vns, a: int, d1: int, gamma: int):
    """Test a VN set against the (a, d1) definition; return its (deg1, deg2) checks."""
    vset = set(vns)
    require(len(vset) == len(vns) == a, f"VN set {sorted(vset)} does not have {a} distinct nodes")
    require(all(len(m.rows_of_col[v]) == gamma for v in vset), f"VN set {sorted(vset)}: degree is not {gamma}")
    induced = Counter(r for v in vset for r in m.rows_of_col[v])
    require(max(induced.values()) <= 2, f"VN set {sorted(vset)}: a check has induced degree >= 3")
    deg1 = {r for r, k in induced.items() if k == 1}
    deg2 = {r for r, k in induced.items() if k == 2}
    require(len(deg1) == d1, f"VN set {sorted(vset)}: {len(deg1)} degree-1 checks, expected {d1}")
    for v in vset:
        n1 = sum(r in deg1 for r in m.rows_of_col[v])
        require(gamma - n1 > n1, f"VN {v} of {sorted(vset)} fails the majority condition")
    g = nx.Graph()
    g.add_nodes_from(vset)
    for r in deg2:
        g.add_edge(*(c for c in m.cols_of_row[r] if c in vset))
    require(nx.is_connected(g), f"VN set {sorted(vset)}: degree-2 part is disconnected")
    return deg1, deg2


def is_uas(m: Matrix, vns, a: int, d1: int, gamma: int) -> bool:
    try:
        check_uas(m, vns, a, d1, gamma)
    except CheckError:
        return False
    return True


def check_instances(m: Matrix, instances, a: int, d1: int, gamma: int, p: int | None = None):
    """Every (vns, deg1_cns, deg2_cns) triple is a distinct instance with those checks."""
    seen = set()
    for vns, deg1_cns, deg2_cns in instances:
        deg1, deg2 = check_uas(m, vns, a, d1, gamma)
        require(
            (deg1, deg2) == (set(deg1_cns), set(deg2_cns)),
            f"VN set {sorted(vns)}: reported checks differ from the definition",
        )
        require(frozenset(vns) not in seen, f"VN set {sorted(vns)} reported twice")
        seen.add(frozenset(vns))
    if p is not None:
        # The Z_p shift inside every circulant is an automorphism; an a-set
        # it fixes is a union of orbits of size p, so for a < p instances
        # come in orbits of exactly p.
        require(len(seen) % p == 0, f"{len(seen)} instances is not a multiple of p={p}")


def basic_cycles(m: Matrix) -> int:
    """Cycle rank d2 - a + 1 of a matrix that is one absorbing set."""
    d2 = sum(len(cols) == 2 for cols in m.cols_of_row)
    return d2 - m.n_cols + 1


# ---------------------------------------------------------------------------
# Fractions and the Monte Carlo law


def closed_forms(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(f_active, f_basis_inactive) = (M^-n, (1 - 1/M)^n)."""
    return Fraction(1, m**n), (1 - Fraction(1, m)) ** n


MC_MARGIN_SE = 7


def check_mc(mean: float, host_instances: int, n: int, m: int, trials: int):
    """Mean within 7 standard errors of host_instances * M^(1 - n).

    A trial counts M surviving copies with probability M^-n per host
    instance, so the standard error follows from that law, not from the
    sample; 7 of them bound a correct estimator's miss probability far
    below 1e-6 at the trial counts used here.
    """
    p = Fraction(1, m**n)
    expected = host_instances * m * p
    se = m * math.sqrt(host_instances * float(p) * (1 - float(p)) / trials)
    require(
        abs(mean - float(expected)) <= MC_MARGIN_SE * se,
        f"Monte Carlo mean {mean:.6f} at M={m} is more than {MC_MARGIN_SE} standard"
        f" errors ({se:.6f}) from {expected}",
    )
    return expected
