"""The free group of a Tanner graph's own cyclic shifts, as permutation arrays.

``TannerGraph.shift_group`` keeps on the graph the maps ``_shift_group``
computes here; the search of ``enumerate_uas`` reads them.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def _shift_group(g) -> tuple[np.ndarray, np.ndarray]:
    """A free group of the graph's own cyclic shifts, as int64 arrays (V, C).

    Row k of V (|G| x len(g.vns)) and of C (|G| x len(g.cns)) sends the
    VN and CN at position x to position V[k, x] and C[k, x]; row 0 is
    the identity.  Only graphs with ids 0..C-1 and 0..R-1, where
    positions are ids, are examined; any other graph, and any with
    k = gcd(R, C) = 1, gets the identity alone.  The candidate shifts
    are the copy shift by (R/q, C/q) for each prime q | k, then the
    within-block circulant shift (x in block x // p goes to position
    x + 1 mod p of the same block) for each p | k, p > 1, largest p
    first.  A candidate is kept only if it maps the edge set onto
    itself, and joins the generators only if the group they generate,
    composed as arrays, still acts freely on VNs (no element but the
    identity fixes a VN, so every VN orbit has |G| members).
    """
    n_r, n_c = len(g.cns), len(g.vns)
    x, y = identity = (np.arange(n_c), np.arange(n_r))
    k = gcd(n_r, n_c)
    if k == 1 or g.vns != tuple(range(n_c)) or g.cns != tuple(range(n_r)) or not g.edges:
        return x[None], y[None]

    def free_closure(gens):
        """The elements the maps generate, or None if one fixes a VN."""
        group, seen = [identity], {x.tobytes() + y.tobytes()}
        for vs, cs in group:
            for vmap, cmap in gens:
                new = (vmap[vs], cmap[cs])
                key = new[0].tobytes() + new[1].tobytes()
                if key not in seen:
                    if (new[0] == x).any():
                        return None
                    seen.add(key)
                    group.append(new)
        return group

    def rotation(z, block: int, step: int):
        return z - z % block + (z + step) % block

    def fixes_check_0(v_block, v_step, c_block, c_step) -> bool:
        image = {v for v, _ in g.cn_adj[rotation(0, c_block, c_step)]}
        return all(rotation(v, v_block, v_step) in image for v, _ in g.cn_adj[0])

    divisors = [d for d in range(2, k + 1) if k % d == 0]
    # (VN block, step, CN block, step); q is prime when no smaller divisor of k divides it.
    cands = [(n_c, n_c // q, n_r, n_r // q) for q in divisors if all(q % d for d in divisors if d < q)]
    # Check 0's edges are tried first, so most shifts that fail are refused
    # before any array is built.
    cands = [cand for cand in cands + [(p, 1, p, 1) for p in reversed(divisors)] if fixes_check_0(*cand)]
    group, gens = [identity], []
    if cands:
        cn, vn = np.array([e[:2] for e in g.edges], dtype=np.int64).T
        edges = np.sort(cn * n_c + vn)
    for v_block, v_step, c_block, c_step in cands:
        vmap, cmap = rotation(x, v_block, v_step), rotation(y, c_block, c_step)
        if (np.sort(cmap[cn] * n_c + vmap[vn]) == edges).all():
            grown = free_closure(gens + [(vmap, cmap)])
            if grown is not None:
                group, gens = grown, gens + [(vmap, cmap)]
    return np.array([v for v, _ in group]), np.array([c for _, c in group])


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new): the rows' stable lexicographic order, and which sorted rows differ from the one before."""
    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    return order, new
