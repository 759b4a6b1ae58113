"""Unlabeled elementary absorbing sets (UASs) in Tanner graphs.

An (a, d1) UAS over a column-weight-gamma code is a set of a variable
nodes whose neighbouring check nodes split into d1 checks of induced
degree 1 and d2 checks of induced degree 2, with no check of higher
induced degree, where every VN touches strictly more degree-2 than
degree-1 checks and the degree-2 part of the induced subgraph is
connected.

The structural identities used throughout:

    d2 = (a * gamma - d1) / 2
    basis size = d2 - a + 1          (cycle rank of the degree-2 part)

An instance (``UasInstance``) is stored as its nodes alone: sorted VN,
degree-1 and degree-2 check ids.  Its degree-2 edges are read off its
VNs' adjacency, by ``relocation.activity_plans`` and ``deg2_subgraph``.

``enumerate_uas`` searches modulo the graph's own cyclic shifts.  Every
MD matrix is fixed by the copy shift (VN and check copy j to j + 1), and
a QC host or a circulant-relocated MD matrix by the circulant shift
inside each p x p block.  The shifts are detected on the graph itself,
never taken from the caller (``shifts``), and kept on the graph as
permutation arrays (``TannerGraph.shift_group``); sets are grown from one
VN per orbit and expanded through the group, so the output is the plain
search's list.
A graph without such a free symmetry gets the plain search.

An (a, d1) set that loses degree-1 checks becomes an (a, d1 - 2), (a, d1 - 4),
... object; the search that lists a class lists these siblings too.

Two canonical fixtures, ``4_2_g3`` and ``4_4_g4``, are shipped for tests
and command-line experiments; they are the smallest problematic objects
for column weights 3 and 4 respectively.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .shifts import _distinct
from .tanner import BinaryMatrix, TannerGraph, build_graph


@dataclass(frozen=True)
class UasConfig:
    """The (a, d1) class of an absorbing set in a gamma-regular code."""

    a: int
    d1: int
    gamma: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("a must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be positive")
        if self.d1 < 0:
            raise ValueError("d1 must be nonnegative")
        if (self.a * self.gamma - self.d1) % 2:
            raise ValueError(
                f"a*gamma - d1 = {self.a * self.gamma - self.d1} is odd;"
                " every degree-2 check consumes two edges"
            )
        if self.d1 > self.a * ((self.gamma - 1) // 2):
            raise ValueError(
                "d1 too large: some VN would have at least as many degree-1"
                " as degree-2 check neighbours"
            )
        if (self.a * self.gamma - self.d1) // 2 < self.a - 1:
            raise ValueError(
                "too few degree-2 checks to connect all variable nodes"
            )

    @property
    def name(self) -> str:
        return f"{self.a}_{self.d1}_g{self.gamma}"


def degree2_check_count(c: UasConfig) -> int:
    """Number of degree-2 checks, d2 = (a*gamma - d1) / 2."""
    return (c.a * c.gamma - c.d1) // 2


def basic_cycle_count(c: UasConfig) -> int:
    """Cycle rank of the degree-2 part, d2 - a + 1; nonnegative by construction."""
    return degree2_check_count(c) - c.a + 1


def cycle_count_bounds(c: UasConfig) -> tuple[int, int]:
    """Inclusive bounds on the total number of cycles in the UAS subgraph.

    With n basic cycles the total lies between n(n+1)/2 (every consecutive
    run of basis cycles combines into one cycle) and 2^n - 1 (every
    nonempty combination is a cycle).
    """
    n = basic_cycle_count(c)
    return (n * (n + 1) // 2, 2**n - 1)


@dataclass(frozen=True)
class ConfigClass:
    """Structural classification; None means not decidable from (a, d1, gamma)."""

    non_regenerable: bool | None
    stand_alone: bool | None


def classify_config(c: UasConfig) -> ConfigClass:
    """Sufficient-condition classification of a config.

    d1 = 0 cannot lose any degree-1 checks to become a smaller-d1 object,
    and has all its edges internal, so it is both non-regenerable and
    stand-alone.  A config whose degree-2 checks saturate all C(a, 2) VN
    pairs is non-regenerable as well.  Anything else is left undecided.
    """
    if c.d1 == 0:
        return ConfigClass(non_regenerable=True, stand_alone=True)
    if degree2_check_count(c) == c.a * (c.a - 1) // 2:
        return ConfigClass(non_regenerable=True, stand_alone=None)
    return ConfigClass(non_regenerable=None, stand_alone=None)


@dataclass(frozen=True)
class UasInstance:
    """A concrete placement of a UAS inside a host Tanner graph.

    Node ids are the host's.  Equality and hashing ignore the graph
    reference so instances can be collected in sets.
    """

    vns: tuple[int, ...]
    deg1_cns: tuple[int, ...]
    deg2_cns: tuple[int, ...]
    graph: TannerGraph = field(compare=False)

    @property
    def a(self) -> int:
        return len(self.vns)

    @property
    def d1(self) -> int:
        return len(self.deg1_cns)

    def deg2_subgraph(self) -> TannerGraph:
        """The induced subgraph restricted to degree-2 checks, read off the VNs' own edges."""
        keep = set(self.deg2_cns)
        edges = sorted(((cn, vn, eid) for vn in self.vns for cn, eid in self.graph.vn_adj[vn]
                        if cn in keep), key=lambda e: e[2])
        return TannerGraph(self.deg2_cns, self.vns, tuple(edges))


class UasList(list):
    """The (a, d1) instances ``enumerate_uas`` lists.

    ``siblings`` maps d' = d1 - 2, d1 - 4, ... >= 0, in that order, to the (a, d') instances.
    ``expand(d')`` builds a class from the search's sets, on the first read of ``siblings``.
    """

    def __init__(self, instances, family, expand):
        super().__init__(instances)
        self._family, self._expand = family, expand

    @cached_property
    def siblings(self) -> dict[int, list[UasInstance]]:
        return {d: self._expand(d) for d in self._family}


def enumerate_uas(g: TannerGraph, c: UasConfig) -> UasList:
    """All (a, d1) instances in the graph, sorted by VN tuple, and their siblings.

    One pass finds the family d' = d1, d1 - 2, ... >= 0; the ``siblings``
    of the returned ``UasList`` list each smaller class in the same order.

    An ESU search (Wernicke 2006) over connected VN sets, pruned as soon
    as a check reaches induced degree 3, run modulo the graph's shift
    group (``TannerGraph.shift_group``: permutation arrays V and C over VN
    and CN positions).  VNs are ranked by (orbit, position), the least
    image ``V.min(axis=0)`` naming the orbit; sets grow only from each
    orbit's first VN and are mapped through the whole group at once, one
    sort of the image rows by VN tuple dropping repeats.  The count is
    checked against the orbit identity |G| * sum(1/r), r being how many of
    a set's VNs lie in its root's orbit.

    A set's state is four bitmasks.  ``one`` and ``two`` hold its checks
    of induced degree 1 and 2, one bit per position in ``g.cns``; D is
    ``one.bit_count()``.  ``ext`` holds the VN ranks that may join next,
    walked in rank order, and ``closed`` every rank up to the root and
    every rank in or next to the set; a child's ``ext`` is the ranks of
    ``ext`` above the one that joined plus its neighbours not in
    ``closed``.  A VN whose mask m meets ``two`` is refused (a check
    would reach degree 3); otherwise it makes one ^ m the degree-1 checks
    and two | (one & m) the degree-2 ones.  A VN that joins s VNs shares a
    check with one of them and at most lam checks with each (lam: the most
    checks two eligible VNs share), so it has 1 <= t <= min(gamma, lam * s)
    bits in ``one`` and changes D by gamma - 2t.  With d0 = d1 mod 2, a
    branch of k VNs is dropped unless D - drop[k] <= d1 and
    d0 <= D + (gamma - 2)(a - k), where drop[k] sums
    2 min(gamma, lam * s) - gamma over s = k .. a - 1; at a - 1 VNs it
    also needs D > d0.  The last VN is not searched for: a set of a - 1
    VNs is completed by a candidate with ``m & two == 0`` and one of the
    family's t = (D + gamma - d') / 2 > gamma / 2, which makes D = d'; the
    majority rule then needs each other VN to have fewer than gamma / 2
    checks among the final degree-1 ones.  A bound on D thus asks t >= t0;
    for t0 >= 2 only the ranks of ``ext`` on two or more checks of ``one``
    are tried, counted by bit-sliced counters over ``on[j]``, the eligible
    ranks on check position j, and each is still tested exactly.
    Masks become ids only for the sets found.
    """
    a, d1, gamma = c.a, c.d1, c.gamma
    family = range(d1, -1, -2)
    if a == 1:
        # Degenerate size-1 sets: gamma degree-1 checks, so only d1 == gamma
        # could match, and the strict majority condition always fails.
        return UasList([], family[1:], lambda d: [])
    vmaps, cmaps = g.shift_group
    size = len(vmaps)
    # The search works on ranks: order[i] is the position in g.vns of the
    # VN of rank i, and ranks size*k .. size*k + size - 1 form the k-th orbit.
    order = np.argsort(vmaps.min(axis=0), kind="stable").tolist()
    rank = {g.vns[v]: i for i, v in enumerate(order)}
    bit = {cn: 1 << i for i, cn in enumerate(g.cns)}
    # Check mask of every eligible VN rank (degree gamma); 0 for the rest.
    mask = [0] * len(order)
    for i, v in enumerate(order):
        adj_v = g.vn_adj[g.vns[v]]
        if len(adj_v) == gamma:
            mask[i] = sum(bit[cn] for cn, _ in adj_v)

    def positions(bits: int) -> list[int]:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    # Masks of eligible ranks: on[j] those on check position j, nbit[i] those
    # sharing a check with rank i.  lam is 1 unless some pair shares two checks.
    on = [sum(1 << rank[vn] for vn, _ in g.cn_adj[cn] if mask[rank[vn]]) for cn in g.cns]
    nbit = [0] * len(order)
    for both in on:
        for i in positions(both):
            nbit[i] |= both ^ 1 << i
    pairs = sum(k * (k - 1) for k in map(int.bit_count, on))
    lam = 1 if sum(map(int.bit_count, nbit)) == pairs else max(
        (mask[u] & mask[v]).bit_count() for u, b in enumerate(nbit) for v in positions(b)
    )
    # bounds[k]: the least and most D a branch of k VNs may have.
    drop = [sum(2 * min(gamma, lam * s) - gamma for s in range(k, a)) for k in range(a)]
    bounds = [(family[-1] - (gamma - 2) * (a - k), d1 + drop[k]) for k in range(a)]
    bounds[a - 1] = (family[-1] + 1, d1 + drop[a - 1])

    # (VN ranks, degree-1 check mask, degree-2 check mask) of every set found, by d'.
    found: dict[int, list[tuple[list[int], int, int]]] = {d: [] for d in family}
    # accept[D]: the family's t for a - 1 VNs with D degree-1 checks; 2t > gamma
    # exactly when D > d', and D + gamma - d' is even as a * gamma - d' is.
    accept = [{(n + gamma - d) // 2 for d in family if d < n} for n in range((a - 1) * gamma + 1)]

    def candidates(ext: int, one: int, t: int) -> int:
        # The ranks of ext on two or more checks of one; a_k: those on k so far.
        if t < 2:
            return ext
        a1 = a2 = 0
        while one:
            low = one & -one
            x = on[low.bit_length() - 1]
            a2 |= a1 & x
            a1 |= x
            one ^= low
        return ext & a2

    def finish(sub: list[int], ext: int, one: int, two: int):
        """Complete a set of a - 1 VNs with each candidate that makes D a family d'."""
        ts = accept[one.bit_count()]
        ext = candidates(ext, one, min(ts))
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            m = mask[w]
            if not m & two and (m & one).bit_count() in ts:
                final1 = one ^ m
                # Majority rule for the other VNs.
                if all(2 * (final1 & mask[v]).bit_count() < gamma for v in sub):
                    found[final1.bit_count()].append((sub + [w], final1, two | (one & m)))

    def extend(sub: list[int], ext: int, closed: int, one: int, two: int):
        if len(sub) == a - 1:
            finish(sub, ext, one, two)
            return
        lo, hi = bounds[len(sub) + 1]
        todo = candidates(ext, one, (one.bit_count() + gamma - hi + 1) // 2)
        while todo:
            low = todo & -todo
            todo ^= low
            w = low.bit_length() - 1
            m = mask[w]
            if m & two:
                continue
            one_w = one ^ m
            if lo <= one_w.bit_count() <= hi:
                # Exclusive new neighbours keep every connected set
                # reachable by exactly one insertion order.
                new = nbit[w] & ~closed
                sub.append(w)
                extend(sub, ext & ~((low << 1) - 1) | new, closed | new, one_w, two | (one & m))
                sub.pop()

    for root in range(0, len(order), size):
        if mask[root]:
            below = (2 << root) - 1
            extend([root], nbit[root] & ~below, below | nbit[root], mask[root], 0)

    def expand(d: int) -> list[UasInstance]:
        # Each (a, d) set found is one row of positions: its VNs, then its degree-1
        # and degree-2 checks, offset by len(g.vns).  All elements map all rows
        # at once, ids replace positions, and each part is sorted: an image is
        # one instance's row, named by its VN tuple.  Sorting the rows by VN
        # tuple and keeping the first of equal tuples leaves the instances.
        if not found[d]:
            return []
        n_v, width = len(g.vns), a + d + (a * gamma - d) // 2
        sets = np.array([[order[v] for v in sub] + [n_v + i for i in positions(one) + positions(two)]
                         for sub, one, two in found[d]], dtype=np.int64)
        images = np.array(g.vns + g.cns)[np.concatenate((vmaps, cmaps + n_v), axis=1)[:, sets]]
        parts = (images[..., :a], images[..., a:a + d], images[..., a + d:])
        rows = np.concatenate([np.sort(part, axis=2) for part in parts], axis=2).reshape(-1, width)
        by_vns, new = _distinct(rows[:, :a])
        rows = rows[by_vns[new]].tolist()
        # The orbit identity: a set with r of its VNs in its root's orbit
        # stands for |G| / r instances.
        hits = Counter(sum(v // size == sub[0] // size for v in sub) for sub, _, _ in found[d])
        weight = sum(Fraction(size * n, r) for r, n in hits.items())
        if weight != len(rows):
            raise AssertionError(f"orbit expansion gave {len(rows)} ({a}, {d}) instances, expected {weight}")
        return [UasInstance(tuple(r[:a]), tuple(r[a:a + d]), tuple(r[a + d:]), g) for r in rows]

    return UasList(expand(d1), family[1:], expand)


# ---------------------------------------------------------------------------
# Canonical fixtures


@dataclass(frozen=True)
class CanonicalUas:
    """A named reference UAS with its incidence matrix."""

    name: str
    config: UasConfig
    incidence: BinaryMatrix

    def graph(self) -> TannerGraph:
        return build_graph(self.incidence)

    def instance(self) -> UasInstance:
        found = enumerate_uas(self.graph(), self.config)
        if len(found) != 1:
            raise AssertionError(f"fixture {self.name} yields {len(found)} instances")
        return found[0]


def _canonical_4_2() -> CanonicalUas:
    # VNs v1..v4 are columns 0..3.  Degree-2 checks: the 4-ring plus one
    # diagonal; degree-1 checks hang off v1 and v3.
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    entries = [(r, c) for r, (u, v) in enumerate(pairs) for c in (u, v)]
    entries += [(5, 0), (6, 2)]
    m = BinaryMatrix.from_entries(7, 4, entries)
    return CanonicalUas("4_2_g3", UasConfig(4, 2, 3), m)


def _canonical_4_4() -> CanonicalUas:
    # Both diagonals present (degree-2 part is K4); one degree-1 check per VN.
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 2)]
    entries = [(r, c) for r, (u, v) in enumerate(pairs) for c in (u, v)]
    entries += [(6 + v, v) for v in range(4)]
    m = BinaryMatrix.from_entries(10, 4, entries)
    return CanonicalUas("4_4_g4", UasConfig(4, 4, 4), m)


CANONICAL_UAS: dict[str, CanonicalUas] = {
    f.name: f for f in (_canonical_4_2(), _canonical_4_4())
}


def canonical_uas(name: str) -> CanonicalUas:
    """Look up a canonical fixture by name ('4_2_g3' or '4_4_g4')."""
    try:
        return CANONICAL_UAS[name]
    except KeyError:
        options = ", ".join(sorted(CANONICAL_UAS))
        raise KeyError(f"unknown canonical UAS {name!r}; options: {options}") from None
