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

``enumerate_uas`` searches modulo the graph's own cyclic shifts.  Every
MD matrix is fixed by the copy shift (VN and check copy j to j + 1), and
a QC host or a circulant-relocated MD matrix by the circulant shift
inside each p x p block.  The shifts are detected on the graph itself,
never taken from the caller; sets are grown from one VN per orbit and
expanded through the group, so the output is the plain search's list.
A graph without such a free symmetry gets the plain search.

Two canonical fixtures, ``4_2_g3`` and ``4_4_g4``, are shipped for tests
and command-line experiments; they are the smallest problematic objects
for column weights 3 and 4 respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .relocation import is_prime
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

    Node and entry ids are the host's.  Hash/equality ignore the graph
    reference so instances can be collected in sets.
    """

    vns: tuple[int, ...]
    deg1_cns: tuple[int, ...]
    deg2_cns: tuple[int, ...]
    entry_ids: tuple[int, ...]
    deg2_entry_ids: tuple[int, ...]
    graph: TannerGraph

    def __eq__(self, other):
        if not isinstance(other, UasInstance):
            return NotImplemented
        return (self.vns, self.deg1_cns, self.deg2_cns) == (
            other.vns,
            other.deg1_cns,
            other.deg2_cns,
        )

    def __hash__(self):
        return hash((self.vns, self.deg1_cns, self.deg2_cns))

    @property
    def a(self) -> int:
        return len(self.vns)

    @property
    def d1(self) -> int:
        return len(self.deg1_cns)

    def deg2_subgraph(self) -> TannerGraph:
        """The induced subgraph restricted to degree-2 checks."""
        return self.graph.subgraph(self.vns, self.deg2_cns)


def _build_instance(g: TannerGraph, vns, deg1, deg2) -> UasInstance:
    d2set = set(deg2)
    all_entries = []
    deg2_entries = []
    for vn in vns:
        for cn, eid in g.vn_adj[vn]:
            all_entries.append(eid)
            if cn in d2set:
                deg2_entries.append(eid)
    return UasInstance(
        vns=tuple(sorted(vns)),
        deg1_cns=tuple(sorted(deg1)),
        deg2_cns=tuple(sorted(deg2)),
        entry_ids=tuple(sorted(all_entries)),
        deg2_entry_ids=tuple(sorted(deg2_entries)),
        graph=g,
    )


def _shift_group(g: TannerGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A free group of the graph's own cyclic shifts, as (VN map, CN map) pairs.

    The maps act on positions in ``g.vns`` and ``g.cns``.  Only graphs
    with ids 0..C-1 and 0..R-1, where positions are ids, are examined;
    any other graph gets the identity alone.  With k = gcd(R, C), the
    candidate shifts are the copy shift by (R/q, C/q) for each prime
    q | k, then the within-block circulant shift (x in block x // p goes
    to position x + 1 mod p of the same block) for each p | k, p > 1,
    largest p first.  A candidate is kept only if it maps the edge set
    onto itself.  The group is then grown greedily: each kept shift joins
    the generators only if the group they generate still acts freely on
    VNs (no element but the identity fixes a VN, so every VN orbit has
    |G| members).  The identity is always the first element.
    """
    n_r, n_c = len(g.cns), len(g.vns)
    identity = (tuple(range(n_c)), tuple(range(n_r)))
    if g.vns != identity[0] or g.cns != identity[1] or not g.edges:
        return [identity]

    def rotation(n: int, block: int, step: int) -> tuple[int, ...]:
        return tuple(x - x % block + (x + step) % block for x in range(n))

    def free_closure(gens):
        """The group the maps generate, or None if an element fixes a VN."""
        group = [identity]
        seen = {identity}
        for elem in group:
            for vmap, cmap in gens:
                new = (tuple(vmap[v] for v in elem[0]), tuple(cmap[c] for c in elem[1]))
                if new in seen:
                    continue
                if any(v == x for v, x in enumerate(new[0])):
                    return None
                seen.add(new)
                group.append(new)
        return group

    k = gcd(n_r, n_c)
    divisors = [d for d in range(2, k + 1) if k % d == 0]
    cands = [
        (rotation(n_c, n_c, n_c // q), rotation(n_r, n_r, n_r // q))
        for q in divisors
        if is_prime(q)
    ]
    cands += [(rotation(n_c, p, 1), rotation(n_r, p, 1)) for p in reversed(divisors)]
    edges = {(cn, vn) for cn, vn, _ in g.edges}
    group, gens = [identity], []
    for vmap, cmap in cands:
        if all((cmap[cn], vmap[vn]) in edges for cn, vn in edges):
            grown = free_closure(gens + [(vmap, cmap)])
            if grown is not None:
                group = grown
                gens.append((vmap, cmap))
    return group


def enumerate_uas(g: TannerGraph, c: UasConfig) -> list[UasInstance]:
    """All (a, d1) instances in the graph, sorted by VN tuple.

    Searches connected VN sets only (connectivity through shared checks),
    growing each set from its first VN in a fixed order so every
    candidate is visited once, and pruning as soon as any check reaches
    induced degree 3.

    The search runs modulo the graph's own cyclic shifts (``_shift_group``:
    the copy shift of an MD matrix, the circulant shift of a QC matrix).
    VNs are ordered by (orbit, position), each orbit led by its first VN,
    and sets are grown only from each orbit's first VN: every set has an
    image under the group whose first VN is one of those roots.  Each set
    found is mapped through the whole group, images are deduplicated by
    VN tuple, and the count is checked against the orbit identity
    |G| * sum(1/r) = number of instances, where r is how many of the
    set's VNs lie in its root's orbit.  When no shift survives detection
    the group is the identity, every VN is a root and the search is the
    plain one.

    The state of a set is two bitmasks of checks, one bit per check at
    its position in ``g.cns``: ``one`` holds the checks of induced degree
    1 and ``two`` those of degree 2.  A VN whose mask m meets ``two`` is
    refused (a check would reach degree 3); otherwise it makes
    one ^ m the degree-1 checks and two | (one & m) the degree-2 ones.
    D, the number of degree-1 checks, is ``one.bit_count()``.  Adding a
    VN of degree gamma that touches t degree-1 checks changes D by
    gamma - 2t, with 0 <= t <= gamma, so with r VNs still to add a branch
    is dropped unless D - gamma*r <= d1 <= D + gamma*r.  The last VN is
    not searched for: a set of a - 1 VNs is completed only by a
    candidate with ``m & two == 0`` and exactly
    t = (D + gamma - d1) / 2 bits in ``m & one``, which makes D = d1; the
    majority rule then needs 2t > gamma for that VN and, for each other
    VN v, fewer than gamma / 2 of v's checks among the final degree-1
    ones.  No connectivity test is needed: every set grows through checks
    it shares, and a shared check has induced degree 2.  Masks become
    check ids only for the sets found.
    """
    a, d1, gamma = c.a, c.d1, c.gamma
    if a == 1:
        # Degenerate size-1 sets: gamma degree-1 checks, so only d1 == gamma
        # could match, and the strict majority condition always fails.
        return []
    group = _shift_group(g)
    size = len(group)
    # The search works on ranks: order[i] is the position in g.vns of the
    # VN of rank i, and ranks size*k .. size*k + size - 1 form the k-th orbit.
    order = sorted(range(len(g.vns)), key=lambda v: (min(vmap[v] for vmap, _ in group), v))
    rank = {g.vns[v]: i for i, v in enumerate(order)}
    bit = {cn: 1 << i for i, cn in enumerate(g.cns)}
    # Check mask of every eligible VN rank (degree gamma); 0 for the rest.
    mask = [0] * len(order)
    for i, v in enumerate(order):
        adj_v = g.vn_adj[g.vns[v]]
        if len(adj_v) == gamma:
            mask[i] = sum(bit[cn] for cn, _ in adj_v)

    # VN adjacency via shared checks, restricted to eligible VNs.
    adj: list[set[int]] = [set() for _ in order]
    for cn in g.cns:
        members = [rank[vn] for vn, _ in g.cn_adj[cn] if mask[rank[vn]]]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                adj[members[i]].add(members[j])
                adj[members[j]].add(members[i])
    nbrs = [sorted(us) for us in adj]

    # (VN ranks, degree-1 check mask, degree-2 check mask) of every set found.
    found: list[tuple[list[int], int, int]] = []

    def finish(sub: list[int], ext: list[int], one: int, two: int):
        """Complete a set of a - 1 VNs with each candidate that makes D = d1."""
        t, odd = divmod(one.bit_count() + gamma - d1, 2)
        if odd or 2 * t <= gamma:
            # The last VN would keep gamma - t >= t degree-1 checks.
            return
        for w in ext:
            m = mask[w]
            if not m & two and (m & one).bit_count() == t:
                final1 = one ^ m
                # Majority rule for the other VNs.
                if all(2 * (final1 & mask[v]).bit_count() < gamma for v in sub):
                    found.append((sub + [w], final1, two | (one & m)))

    def extend(sub: list[int], ext: list[int], root: int, closed: set[int], one: int, two: int):
        if len(sub) == a - 1:
            finish(sub, ext, one, two)
            return
        reach = gamma * (a - len(sub) - 1)
        for i, w in enumerate(ext):
            m = mask[w]
            if m & two:
                continue
            one_w = one ^ m
            n_deg1 = one_w.bit_count()
            if n_deg1 - reach <= d1 <= n_deg1 + reach:
                # Exclusive new neighbours keep every connected set
                # reachable by exactly one insertion order.  ``closed``
                # already holds every member of ``ext``.
                new_ext = ext[i + 1 :] + [u for u in nbrs[w] if u > root and u not in closed]
                sub.append(w)
                extend(sub, new_ext, root, closed | set(new_ext), one_w, two | (one & m))
                sub.pop()

    for root in range(0, len(order), size):
        if mask[root]:
            ext0 = [u for u in nbrs[root] if u > root]
            extend([root], ext0, root, {root} | set(ext0), mask[root], 0)

    def positions(bits: int) -> list[int]:
        return [i for i in range(bits.bit_length()) if bits >> i & 1]

    instances: dict[tuple[int, ...], UasInstance] = {}
    weight = Fraction(0)
    for sub, deg1, deg2 in found:
        vns = [order[v] for v in sub]
        cns1, cns2 = positions(deg1), positions(deg2)
        weight += Fraction(size, sum(v // size == sub[0] // size for v in sub))
        for vmap, cmap in group:
            image = tuple(sorted(g.vns[vmap[v]] for v in vns))
            if image not in instances:
                instances[image] = _build_instance(
                    g,
                    image,
                    [g.cns[cmap[i]] for i in cns1],
                    [g.cns[cmap[i]] for i in cns2],
                )
    if weight != len(instances):
        raise AssertionError(
            f"orbit expansion gave {len(instances)} instances, expected {weight}"
        )
    return [instances[k] for k in sorted(instances)]


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
