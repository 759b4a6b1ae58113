"""Reference designer: the cycle-basis loop the fundamental-cycle-sum designer replaced.

Kept verbatim as a differential oracle.  Every host instance gets a
minimum cycle basis, and activity and votes are read off its basic
cycles' alternating sums one entry at a time, so it shares no activity
code with ``mdreloc.designer.design_md``.  Only the unit table and the
result types are shared; ``select_unit`` picks units by a dict scan,
independently of the designer's argmax.  ``_precondition_warnings`` is
the designer's earlier note builder: one search per smaller-d1 sibling
class, apart from the target search that lists the siblings now.
"""

from __future__ import annotations

import warnings as _warnings
from fractions import Fraction

from mdreloc.absorbing import UasConfig, enumerate_uas
from mdreloc.cycles import CycleBasis, minimum_cycle_basis
from mdreloc.designer import DesignReport, DesignResult, StepRecord, Unit
from mdreloc.relocation import (
    RelocationMap,
    assemble_md,
    check_copies,
    unit_table,
)
from mdreloc.tanner import QcMatrix, build_graph, check_no_4cycles, check_regular_gamma, expand_qc

from reference_activity import alternating_value_sum, is_uas_active


def _precondition_warnings(graph, config) -> list[str]:
    notes = []
    if not check_no_4cycles(graph):
        notes.append("host has 4-cycles; cycle-length guarantees do not apply")
    d1 = config.d1 - 2
    while d1 >= 0:
        smaller = UasConfig(config.a, d1, config.gamma)
        if enumerate_uas(graph, smaller):
            notes.append(
                f"host contains ({smaller.a}, {smaller.d1}) instances; relocated"
                f" ({config.a}, {config.d1}) sets may degrade into them"
            )
        d1 -= 2
    return notes


def select_unit(counts: dict) -> Unit | None:
    """Unit with the highest count, smallest unit id on ties; None if all zero."""
    best: tuple[int, Unit] | None = None
    for unit, cnt in counts.items():
        if cnt <= 0:
            continue
        if best is None or cnt > best[0] or (cnt == best[0] and unit < best[1]):
            best = (cnt, unit)
    return None if best is None else best[1]


def vote(basis: CycleBasis, unit_entries, reloc: RelocationMap) -> frozenset[int]:
    """Relocation values that would break at least one basic cycle.

    Candidate values overlay all entries of the unit at once, holding
    every other entry at its current value (unassigned entries count
    as 0); a value gets the vote when some basic cycle's alternating sum
    stops being divisible by M under the overlay.
    """
    unit = frozenset(unit_entries)
    m = reloc.m_copies
    votes = set()
    for xi in range(1, m):
        def overlaid(eid, _xi=xi):
            return _xi if eid in unit else reloc.values.item(eid)

        if any(alternating_value_sum(c, overlaid) % m for c in basis.cycles):
            votes.add(xi)
    return frozenset(votes)


def design_md(
    host,
    m_copies: int,
    config: UasConfig,
    *,
    entry_granularity: bool = False,
) -> DesignResult:
    """Run the full design loop and assemble the MD matrix.

    ``host`` is a QcMatrix (relocating circulants unless
    ``entry_granularity``) or a BinaryMatrix (always entries).  M must be
    an odd prime and the host column weight must match the target's.
    Structural preconditions (no 4-cycles, no smaller-d1 siblings) are
    checked and reported as warnings, not errors.
    """
    check_copies(m_copies)
    if isinstance(host, QcMatrix):
        matrix, qc = expand_qc(host), host
    else:
        matrix, qc = host, None
    gamma = check_regular_gamma(matrix)
    if gamma != config.gamma:
        raise ValueError(
            f"host column weight {gamma} does not match target gamma {config.gamma}"
        )
    use_circulants = qc is not None and not entry_granularity
    granularity = "circulant" if use_circulants else "entry"
    graph = build_graph(matrix)

    notes = _precondition_warnings(graph, config)
    for note in notes:
        _warnings.warn(note, stacklevel=2)

    units = unit_table(qc if use_circulants else matrix)
    unit_of_entry: dict[int, Unit] = {}
    for unit, eids in units.items():
        for eid in eids:
            unit_of_entry[eid] = unit

    instances = enumerate_uas(graph, config)
    bases = [minimum_cycle_basis(inst.deg2_subgraph()) for inst in instances]
    instance_units = [
        frozenset(unit_of_entry[eid] for _, _, eid in inst.deg2_subgraph().edges)
        for inst in instances
    ]

    reloc = RelocationMap(m_copies, qc if use_circulants else matrix)
    active = [is_uas_active(b, reloc) for b in bases]
    aux_units = {xi: 0 for xi in range(1, m_copies)}
    assigned: set[Unit] = set()
    steps: list[StepRecord] = []

    # Each non-final pass assigns one unit, so len(units) + 1 passes always
    # suffice; running out anyway means the bookkeeping is corrupted.
    for _ in range(len(units) + 1):
        active_count = sum(active)
        if active_count == 0:
            break
        counts = {u: 0 for u in units if u not in assigned}
        for i, is_active in enumerate(active):
            if not is_active:
                continue
            for unit in instance_units[i]:
                if unit in counts:
                    counts[unit] += 1
        unit = select_unit(counts)
        if unit is None:
            break
        involved = [i for i in range(len(instances)) if unit in instance_units[i]]
        tally = {xi: 0 for xi in range(1, m_copies)}
        for i in involved:
            for xi in vote(bases[i], units[unit], reloc):
                tally[xi] += 1
        top = max(tally.values())
        if top == 0:
            steps.append(
                StepRecord(
                    unit=unit,
                    involvement=counts[unit],
                    votes=tuple(sorted(tally.items())),
                    chosen=None,
                    active_before=active_count,
                    active_after=active_count,
                )
            )
            break
        winners = [xi for xi, t in tally.items() if t == top]
        chosen = min(winners, key=lambda xi: (aux_units[xi], xi))
        if unit[0] == "c":
            reloc.assign_circulant(unit[1], unit[2], chosen)
        else:
            reloc.assign_entry(unit[1], unit[2], chosen)
        assigned.add(unit)
        aux_units[chosen] += 1
        active = [is_uas_active(b, reloc) for b in bases]
        steps.append(
            StepRecord(
                unit=unit,
                involvement=counts[unit],
                votes=tuple(sorted(tally.items())),
                chosen=chosen,
                active_before=active_count,
                active_after=sum(active),
            )
        )
    else:
        if any(active):
            raise RuntimeError(
                "design loop exhausted the unit budget with active instances left"
            )

    od_active = sum(active)
    report = DesignReport(
        m_copies=m_copies,
        config=config,
        od_instances=len(instances),
        baseline_md_instances=m_copies * len(instances),
        od_active_final=od_active,
        final_active=m_copies * od_active,
        total_units=len(units),
        relocated_units=len(assigned),
        relocated_fraction=Fraction(len(assigned), len(units)) if units else Fraction(0),
        aux_counts=tuple(aux_units[xi] for xi in range(1, m_copies)),
        steps=tuple(steps),
        warnings=tuple(notes),
    )
    return DesignResult(assemble_md(reloc), reloc, report)
