"""Reference activity test: the paper's cycle-sum definition, one cycle at a time.

Kept verbatim as a differential oracle for ``mdreloc.relocation.intact``,
the library's one activity test, which decides the same question for many
instances and maps at once by a spanning-tree potential solve.  These
functions read alternating entry-value sums off explicit cycles, so they
share no code with that kernel.
"""

from __future__ import annotations

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
    return alternating_value_sum(cycle, reloc.value) % reloc.m_copies == 0


def is_uas_active(basis, reloc: RelocationMap) -> bool:
    """An absorbing set reappears per copy iff all its basic cycles are active.

    ``basis`` is a CycleBasis of the degree-2 subgraph; activity of the
    basic cycles forces activity of every cycle in the span.
    """
    return all(is_cycle_active(c, reloc) for c in basis.cycles)
