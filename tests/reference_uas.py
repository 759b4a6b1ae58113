"""Reference UAS enumerator: the unpruned search the library's one replaced.

Kept as a differential oracle.  It visits every connected VN set of size
a (ESU order, pruning only on a check of induced degree 3) and classifies
each leaf from scratch, so it shares no bookkeeping, bound or last-VN
shortcut with ``mdreloc.enumerate_uas``.  It lists each instance's
degree-2 entry ids itself, to check the edges the potential plans of
``relocation.activity_plans`` read.  Slow on large MD matrices; keep the
inputs small.

The tuple shift group and its dict expansion are the library's earlier
versions of ``shifts._shift_group`` and of the orbit expansion in
``enumerate_uas``, kept as differential oracles for the permutation
arrays that replaced them.
"""

from __future__ import annotations

from math import gcd

from mdreloc import TannerGraph, UasConfig, UasInstance
from mdreloc.relocation import is_prime


def _deg2_connected(g: TannerGraph, vns, deg2_cns) -> bool:
    vlist = sorted(vns)
    if len(vlist) <= 1:
        return True
    cset = set(deg2_cns)
    adj: dict[int, set[int]] = {v: set() for v in vlist}
    for cn in cset:
        members = [vn for vn, _ in g.cn_adj[cn] if vn in adj]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                adj[members[i]].add(members[j])
                adj[members[j]].add(members[i])
    seen = {vlist[0]}
    stack = [vlist[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(vlist)


def _build_instance(g: TannerGraph, vns, deg1, deg2):
    """The instance, with its degree-2 entry ids computed here."""
    d2set = set(deg2)
    deg2_entries = [eid for vn in vns for cn, eid in g.vn_adj[vn] if cn in d2set]
    inst = UasInstance(tuple(sorted(vns)), tuple(sorted(deg1)), tuple(sorted(deg2)), g)
    return inst, tuple(sorted(deg2_entries))


def reference_enumerate_uas(g: TannerGraph, c: UasConfig) -> list:
    """All (a, d1) instances in the graph, sorted by VN tuple.

    Each item is (instance, degree-2 entry ids), the id list computed by
    this module rather than read off the instance.

    Searches connected VN sets only (connectivity through shared checks),
    growing each set from its smallest VN so every candidate is visited
    once, and pruning as soon as any check reaches induced degree 3.
    """
    eligible = {v for v in g.vns if len(g.vn_adj[v]) == c.gamma}

    # VN adjacency via shared checks, restricted to eligible VNs.
    nbrs: dict[int, set[int]] = {v: set() for v in eligible}
    for cn in g.cns:
        members = [vn for vn, _ in g.cn_adj[cn] if vn in eligible]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                nbrs[members[i]].add(members[j])
                nbrs[members[j]].add(members[i])

    results = []
    if c.a == 1:
        # Degenerate size-1 sets: gamma degree-1 checks, so only d1 == gamma
        # could match, and the strict majority condition always fails.
        return results

    cn_count: dict[int, int] = {}

    def add_vn(vn: int) -> bool:
        """Bump induced check degrees; undo and refuse if any reaches 3."""
        touched = []
        for cn, _ in g.vn_adj[vn]:
            cn_count[cn] = cn_count.get(cn, 0) + 1
            touched.append(cn)
            if cn_count[cn] > 2:
                for t in touched:
                    cn_count[t] -= 1
                return False
        return True

    def remove_vn(vn: int):
        for cn, _ in g.vn_adj[vn]:
            cn_count[cn] -= 1

    def emit(sub: list[int]):
        deg1 = sorted(cn for cn, k in cn_count.items() if k == 1)
        deg2 = sorted(cn for cn, k in cn_count.items() if k == 2)
        if len(deg1) != c.d1:
            return
        d1set, d2set = set(deg1), set(deg2)
        for vn in sub:
            n1 = sum(1 for cn, _ in g.vn_adj[vn] if cn in d1set)
            n2 = sum(1 for cn, _ in g.vn_adj[vn] if cn in d2set)
            if not n2 > n1:
                return
        if _deg2_connected(g, sub, deg2):
            results.append(_build_instance(g, sub, deg1, deg2))

    def extend(sub: list[int], ext: list[int], root: int, closed: set[int]):
        if len(sub) == c.a:
            emit(sub)
            return
        ext = list(ext)
        while ext:
            w = ext.pop(0)
            closed.add(w)
            if add_vn(w):
                # Exclusive new neighbours keep every connected set reachable
                # by exactly one insertion order.
                new_ext = ext + sorted(
                    u for u in nbrs[w] if u > root and u not in closed
                )
                closed_new = closed | set(new_ext)
                sub.append(w)
                extend(sub, new_ext, root, closed_new)
                sub.pop()
                remove_vn(w)

    for root in sorted(eligible):
        cn_count.clear()
        if not add_vn(root):
            continue
        ext0 = sorted(u for u in nbrs[root] if u > root)
        extend([root], ext0, root, {root} | set(ext0))
        remove_vn(root)

    results.sort(key=lambda found: found[0].vns)
    return results


def reference_shift_group(g: TannerGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The graph's free shift group as (VN map, CN map) tuples over positions, identity first.

    The same candidates, edge-set test and greedy free closure as
    ``tanner._shift_group``, composed as tuples.
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


def reference_expand(g: TannerGraph, group, sets) -> list:
    """Every image of the sets under the group, one instance per VN tuple, sorted by it.

    ``sets`` holds (VN, degree-1 check, degree-2 check) positions in
    ``g.vns`` and ``g.cns``; ``group`` is ``reference_shift_group(g)``.
    """
    instances: dict[tuple[int, ...], UasInstance] = {}
    for vns, cns1, cns2 in sets:
        for vmap, cmap in group:
            image = tuple(sorted(g.vns[vmap[v]] for v in vns))
            if image not in instances:
                instances[image] = UasInstance(
                    image,
                    tuple(sorted(g.cns[cmap[i]] for i in cns1)),
                    tuple(sorted(g.cns[cmap[i]] for i in cns2)),
                    g,
                )
    return [instances[k] for k in sorted(instances)]
