"""Exact rational analysis of relocation arrangements for an absorbing set.

Relocation assignments of the degree-2 edges of a UAS fall into M^n_f
equally likely classes, indexed by the basic-cycle alternating sums.  The
quantities computed here are exact fractions of those classes:

* ``f_active``              all basic cycles active (the set survives per copy)
* ``f_inactive``            at least one basic cycle inactive
* ``f_basis_inactive``      every basic cycle inactive
* ``f_all_cycles_inactive_bound``  upper bound on every spanned cycle inactive
* ``f_deep_inactive``       inactive in a way no single check detachment explains

The last one subtracts, for every group of checks that is exclusive to
one basic cycle or shared by exactly two, the M-1 classes reachable by
detaching a single check of that group.  All arithmetic is over
``fractions.Fraction``; nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cycles import CycleBasis
from .relocation import check_copies


@dataclass(frozen=True)
class BasisIntersections:
    """CN-sharing structure of a cycle basis.

    ``exclusive_groups`` are the nonempty sets of CNs that appear in one
    basic cycle and no other; ``shared_groups`` the nonempty pairwise
    intersections of basic cycles.  Both are deduplicated as sorted
    tuples, which is what the fraction formulas consume.
    """

    exclusive_groups: tuple[tuple[int, ...], ...]
    shared_groups: tuple[tuple[int, ...], ...]


def basis_intersections(basis: CycleBasis) -> BasisIntersections:
    """Exclusive and pairwise-shared CN groups of the basic cycles."""
    cn_sets = tuple(frozenset(c.cns) for c in basis.cycles)
    n = len(cn_sets)
    shared = [cn_sets[i] & cn_sets[j] for i in range(n) for j in range(i + 1, n)]
    exclusive = [cn_sets[i].difference(*(cn_sets[j] for j in range(n) if j != i)) for i in range(n)]
    return BasisIntersections(
        exclusive_groups=tuple(sorted({tuple(sorted(d)) for d in exclusive if d})),
        shared_groups=tuple(sorted({tuple(sorted(s)) for s in shared if s})),
    )


@dataclass(frozen=True)
class FractionReport:
    """Exact class fractions for one (UAS, M) pair.

    ``f_deep_inactive`` is reported raw: for bases with many groups and
    small M the subtraction can go negative, and ``deep_inactive_negative``
    flags that instead of clamping.
    """

    m_copies: int
    basic_cycles: int
    exclusive_group_count: int
    shared_group_count: int
    f_active: Fraction
    f_inactive: Fraction
    f_basis_inactive: Fraction
    f_all_cycles_inactive_bound: Fraction
    f_deep_inactive: Fraction

    @property
    def deep_inactive_negative(self) -> bool:
        return self.f_deep_inactive < 0


def fraction_report(
    basic_cycles: int, m_copies: int, exclusive_groups: int, shared_groups: int
) -> FractionReport:
    """Closed-form class fractions from the basis size and group counts."""
    if basic_cycles < 1:
        raise ValueError("need at least one basic cycle")
    check_copies(m_copies)
    if exclusive_groups < 0 or shared_groups < 0:
        raise ValueError("group counts must be nonnegative")
    m, n_f = m_copies, basic_cycles
    classes = Fraction(m**n_f)
    f_active = 1 / classes
    f_inactive = 1 - f_active
    f_basis_inactive = Fraction(m - 1, m) ** n_f
    bound = Fraction(1)
    for delta in range(1, n_f + 1):
        bound *= Fraction(max(m - delta, 0), m)
    f_single = (exclusive_groups + shared_groups) * Fraction(m - 1) / classes
    return FractionReport(
        m_copies=m,
        basic_cycles=n_f,
        exclusive_group_count=exclusive_groups,
        shared_group_count=shared_groups,
        f_active=f_active,
        f_inactive=f_inactive,
        f_basis_inactive=f_basis_inactive,
        f_all_cycles_inactive_bound=bound,
        f_deep_inactive=f_inactive - f_single,
    )


def fraction_report_for_basis(basis: CycleBasis, m_copies: int) -> FractionReport:
    """Convenience wrapper: group counts taken from the basis itself."""
    groups = basis_intersections(basis)
    return fraction_report(
        basis.size, m_copies, len(groups.exclusive_groups), len(groups.shared_groups)
    )


def savings(report: FractionReport) -> tuple[Fraction, Fraction]:
    """Percentage-point savings (s1, s2) of targeted over blind relocation.

    s1 compares breaking the set against the all-cycles-inactive bound;
    s2 compares deep breaking against making every basic cycle inactive.
    Both are percentages as exact rationals (e.g. Fraction(48) for 48%).
    """
    s1 = (report.f_inactive - report.f_all_cycles_inactive_bound) * 100
    s2 = (report.f_deep_inactive - report.f_basis_inactive) * 100
    return s1, s2


def expected_md_instances(a_od: int, basic_cycles: int, m_copies: int) -> Fraction:
    """Expected surviving instances under uniform random relocation.

    Each of the a_od host instances is active in a fraction 1/M^n_f of
    the assignment classes and then appears M times, so the expectation
    is a_od * M^(1 - n_f).  Meaningful when instances share no cycles and
    the configuration cannot arise from smaller ones.
    """
    if a_od < 0:
        raise ValueError("instance count must be nonnegative")
    return Fraction(a_od * m_copies, m_copies**basic_cycles)


# ---------------------------------------------------------------------------
# Tabular output

TSV_HEADER = "config\tM\tn_f\tl1\tl2\tf_nof\tf_noc_bound\tf_nou\tf_not\ts1_pct\ts2_pct"


def tsv_row(config_label: str, report: FractionReport) -> str:
    """One TSV line; exact rationals rendered as integer or num/den."""
    s1, s2 = savings(report)
    cells = [
        config_label,
        report.m_copies,
        report.basic_cycles,
        report.exclusive_group_count,
        report.shared_group_count,
        report.f_basis_inactive,
        report.f_all_cycles_inactive_bound,
        report.f_inactive,
        report.f_deep_inactive,
        s1,
        s2,
    ]
    return "\t".join(str(c) for c in cells)
