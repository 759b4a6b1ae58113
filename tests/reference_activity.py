"""Reference activity tests: the paper's cycle-sum definition and the potential solve.

Kept as differential oracles for ``mdreloc.relocation.intact``, the
library's one activity test, which decides the same question for many
instances and maps at once by fundamental-cycle sums.  The first functions
read alternating entry-value sums off explicit cycles, so they share no
code with that kernel.

``intact`` below is the library's earlier potential-solve kernel, without
its instance blocks: it solves each instance's spanning tree for a copy
shift per VN and checks every loop against it, on the (tree, loops) plans
of ``activity_plans`` below.  That plan and the involvement loop are the
library's earlier versions too, kept as differential oracles for
``relocation.activity_plans`` and ``relocation.involvement``.  The plan
reads each degree-2 check's host row rather than the instance's VN
adjacency, and the loop reads each instance's degree-2 entry ids off the
graph rather than off the plans.
"""

from __future__ import annotations

import numpy as np

from mdreloc.cycles import Cycle
from mdreloc.relocation import RelocationMap


def alternating_value_sum(cycle: Cycle, value) -> int:
    """Signed sum of per-entry values along the cycle traversal.

    ``value`` maps entry-id -> int.  Signs alternate -, +, -, ... along
    the canonical step order.  Which entry takes which sign depends on
    the traversal's starting point and direction, but divisibility by M
    does not, and that is the only property read off this value.
    """
    total = 0
    for i, (_, _, eid) in enumerate(cycle.steps):
        v = value(eid)
        total += v if i % 2 else -v
    return total


def is_cycle_active(cycle: Cycle, reloc: RelocationMap) -> bool:
    """A cycle stays a within-copy cycle iff its alternating sum is 0 mod M."""
    return alternating_value_sum(cycle, reloc.values.item) % reloc.m_copies == 0


def is_uas_active(basis, reloc: RelocationMap) -> bool:
    """An absorbing set reappears per copy iff all its basic cycles are active.

    ``basis`` is a CycleBasis of the degree-2 subgraph; activity of the
    basic cycles forces activity of every cycle in the span.
    """
    return all(is_cycle_active(c, reloc) for c in basis.cycles)


def potential_plan(u):
    """(tree, loops) steps (x, y, e1, e2) that decide whether ``u`` survives."""
    vpos = {vn: i for i, vn in enumerate(u.vns)}
    steps, adj = {}, [[] for _ in u.vns]
    for cn in u.deg2_cns:
        ends = [(vpos[vn], eid) for vn, eid in u.graph.cn_adj[cn] if vn in vpos]
        if len(ends) != 2:
            raise ValueError(f"check {cn} has induced degree {len(ends)}, expected 2")
        (x, e1), (y, e2) = ends
        steps[cn] = (x, y, e1, e2)
        adj[x].append((cn, y, e1, e2))
        adj[y].append((cn, x, e2, e1))
    seen, tree, stack = {0}, [], [0]
    while stack:
        at = stack.pop()
        for cn, other, e_at, e_other in adj[at]:
            if other not in seen:
                seen.add(other)
                tree.append((at, other, e_at, e_other))
                stack.append(other)
                del steps[cn]
    if len(seen) != len(u.vns):
        raise ValueError("degree-2 subgraph is not connected")
    return tree, [steps[cn] for cn in sorted(steps)]


def activity_plans(instances) -> tuple[np.ndarray, np.ndarray]:
    """The reference plans, stacked as (tree, loops) arrays for ``intact`` below."""
    plans = [potential_plan(u) for u in instances]
    widths = [len(steps) for steps in plans[0]] if plans else [0, 0]
    return tuple(np.array([p[k] for p in plans], dtype=np.int64).reshape(len(plans), widths[k], 4)
                 for k in (0, 1))


def intact(plans, values: np.ndarray, m: int) -> np.ndarray:
    """Bool (instances, columns) by the potential solve on (tree, loops) plans.

    A potential gives each VN a copy shift s.  A check with edge e1 at VN
    x and e2 at VN y stays in one copy when R(e1) + s(x) = R(e2) + s(y)
    mod M; the tree steps solve the one candidate potential from the first
    VN (pinned to 0), and the set stays intact exactly when every loop
    agrees with it.
    """
    tree, loops = plans
    n_vns, cols = tree.shape[1] + 1, values.shape[1]
    at = np.arange(len(tree))
    s = np.zeros((len(tree), n_vns, cols), dtype=np.int64)
    for x, y, e1, e2 in tree.transpose(1, 2, 0):
        s[at, y] = s[at, x] + values[e1] - values[e2]
    ok = np.ones((len(tree), cols), dtype=bool)
    for x, y, e1, e2 in loops.transpose(1, 2, 0):
        ok &= (s[at, x] + values[e1] - values[e2] - s[at, y]) % m == 0
    return ok


def deg2_entry_ids(u) -> tuple[int, ...]:
    """Sorted entry-ids of the instance's edges into degree-2 checks."""
    deg2 = set(u.deg2_cns)
    return tuple(
        sorted(eid for vn in u.vns for cn, eid in u.graph.vn_adj[vn] if cn in deg2)
    )


def involvement(instances, units: dict) -> np.ndarray:
    """Bool (instances, units): instance i has a degree-2 edge in unit j."""
    column = {eid: j for j, eids in enumerate(units.values()) for eid in eids}
    out = np.zeros((len(instances), len(units)), dtype=bool)
    for i, u in enumerate(instances):
        out[i, [column[eid] for eid in deg2_entry_ids(u)]] = True
    return out
