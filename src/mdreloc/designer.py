"""Greedy relocation design that removes a target absorbing set from an MD code.

The loop works on the *units* of ``RelocationMap(m, host)``: whole
circulants of a QcMatrix host, single entries of a BinaryMatrix (pass
``expand_qc(qc)`` for a QC host's entries).  Each round picks the
unassigned unit that most still-active target instances involve through
a degree-2 edge, lets every instance involving it vote for the
relocation values under which one of its fundamental-cycle sums is
nonzero mod M (``relocation.intact``), and permanently assigns the
winning value, preferring the auxiliary matrix that currently holds the
fewest units.  The vote's verdicts under the winning value become the
new activity of the instances involving the unit; no other instance can
change, so each step makes one ``intact`` call and moves the counts by
the instances that flipped.  The loop stops when no active instance
remains, or when no unit can attract a vote (the design is then
reported incomplete rather than forced).  The one host search that
lists the target instances also gives the smaller-d1 siblings the
report's notes name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .absorbing import UasConfig, enumerate_uas
from .relocation import (
    RelocationMap,
    activity_plans,
    assemble_md,
    intact,
    involvement,
)
from .tanner import BinaryMatrix, build_graph, check_no_4cycles, check_regular_gamma

Unit = tuple


@dataclass(frozen=True)
class StepRecord:
    """One round of the design loop."""

    unit: Unit
    involvement: int
    votes: tuple[tuple[int, int], ...]
    chosen: int | None
    active_before: int
    active_after: int


@dataclass(frozen=True)
class DesignReport:
    """Outcome summary of a design run.

    ``final_active`` is M x the host instances left active
    (``od_active_final``), each of which reappears in every copy of the
    MD matrix.  It is a prediction, not a count: relocation can also
    create target objects that project onto no host instance.
    ``oracle.enumerate_md_uas`` on ``h_md`` (``mdreloc verify``) gives
    the measured count.  On ``array_host(3,4,5)``, target (5,3), M=3,
    entry granularity, this report gives 0 and the recount gives 6.
    """

    m_copies: int
    config: UasConfig
    od_instances: int
    baseline_md_instances: int
    od_active_final: int
    final_active: int
    total_units: int
    relocated_units: int
    relocated_fraction: Fraction
    aux_counts: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class DesignResult:
    h_md: BinaryMatrix
    relocation: RelocationMap
    report: DesignReport


def vote(plans, unit_entries, values: np.ndarray, m: int) -> np.ndarray:
    """Bool (instances, M-1): planned instance i stays intact under value j + 1.

    ``plans`` comes from ``relocation.activity_plans``; ``values`` holds
    every host entry's current value (unassigned entries are 0).  Column
    xi - 1 of the trial values overlays xi on every entry of the unit, so
    all values and instances take one ``intact`` call; a value breaks the
    instances that read False in its column.
    """
    trial = np.repeat(values[:, None], m - 1, axis=1)
    trial[list(unit_entries)] = np.arange(1, m)
    return intact(plans, trial, m)


def design_md(host, m_copies: int, config: UasConfig) -> DesignResult:
    """Run the full design loop and assemble the MD matrix.

    ``host`` is a QcMatrix (relocating circulants) or a BinaryMatrix
    (relocating entries), so ``design_md(expand_qc(qc), m, config)``
    designs a QC host entry by entry.  The host column weight must match
    the target's.  Structural preconditions (no 4-cycles, no smaller-d1
    siblings) are checked and reported as notes in
    ``DesignReport.warnings``, not errors.
    """
    reloc = RelocationMap(m_copies, host)
    gamma = check_regular_gamma(reloc.matrix)
    if gamma is None:
        why = "column weights are irregular" if reloc.matrix.n_cols else "has no columns"
        raise ValueError(f"host {why}; target gamma {config.gamma} needs a regular host")
    if gamma != config.gamma:
        raise ValueError(
            f"host column weight {gamma} does not match target gamma {config.gamma}"
        )
    graph = build_graph(reloc.matrix)
    instances = enumerate_uas(graph, config)
    notes = [] if check_no_4cycles(graph) else ["host has 4-cycles; cycle-length guarantees do not apply"]
    notes += [f"host contains ({config.a}, {d}) instances; relocated ({config.a}, {config.d1})"
              f" sets may degrade into them" for d, found in instances.siblings.items() if found]

    assign = reloc.assign_entry if reloc.qc is None else reloc.assign_circulant
    units = list(reloc.units)

    plans = activity_plans(instances)
    touches = involvement(plans, reloc.units)

    # All instances are intact under the zero map; hits[j] counts those involving unit j.
    active = np.ones(len(instances), dtype=bool)
    hits = touches.sum(axis=0)
    aux = [0] * (m_copies - 1)
    steps: list[StepRecord] = []

    # Each unbroken pass assigns a free unit and zeroes its count, so at
    # most len(units) passes run.
    while active.any():
        active_count = int(active.sum())
        # Units are sorted, so argmax breaks ties to the smallest unit.
        j = int(hits.argmax())
        count = int(hits[j])
        if count == 0:
            break
        unit, involved = units[j], touches[:, j].nonzero()[0]
        kept = vote(tuple(p[involved] for p in plans), reloc.units[unit], reloc.values, m_copies)
        tally = (~kept).sum(axis=0).tolist()
        # Most votes, then the auxiliary matrix with the fewest units, then
        # the smallest value (min keeps the first of equal keys).
        c = min(range(m_copies - 1), key=lambda k: (-tally[k], aux[k]))
        chosen = c + 1 if tally[c] else None
        if chosen:
            assign(*unit[1:], chosen)
            aux[c] += 1
            # Only involved instances flip; their signed rows move the counts.
            hits += (kept[:, c] - active[involved].astype(np.int64)) @ touches[involved]
            hits[j] = 0
            touches[:, j] = False
            active[involved] = kept[:, c]
        steps.append(
            StepRecord(
                unit=unit,
                involvement=count,
                votes=tuple(enumerate(tally, start=1)),
                chosen=chosen,
                active_before=active_count,
                active_after=int(active.sum()),
            )
        )
        if chosen is None:
            break

    od_active = int(active.sum())
    relocated = reloc.assigned_units
    report = DesignReport(
        m_copies=m_copies,
        config=config,
        od_instances=len(instances),
        baseline_md_instances=m_copies * len(instances),
        od_active_final=od_active,
        final_active=m_copies * od_active,
        total_units=len(units),
        relocated_units=len(relocated),
        relocated_fraction=Fraction(len(relocated), len(units)) if units else Fraction(0),
        aux_counts=tuple(aux),
        steps=tuple(steps),
        warnings=tuple(notes),
    )
    return DesignResult(assemble_md(reloc), reloc, report)


# ---------------------------------------------------------------------------
# Report rendering

REPORT_TSV_HEADER = (
    "config\tM\tod_instances\tbaseline_md_instances\tod_active_final\t"
    "final_active\trelocated_units\ttotal_units\trelocated_fraction\taux_counts"
)


def report_tsv(report: DesignReport) -> str:
    row = [
        report.config.name,
        report.m_copies,
        report.od_instances,
        report.baseline_md_instances,
        report.od_active_final,
        report.final_active,
        report.relocated_units,
        report.total_units,
        report.relocated_fraction,
        ",".join(str(c) for c in report.aux_counts),
    ]
    return REPORT_TSV_HEADER + "\n" + "\t".join(str(c) for c in row) + "\n"


def _unit_label(unit: Unit) -> str:
    return " ".join(str(t) for t in unit)


def report_log(report: DesignReport) -> str:
    """Human-readable design narrative, one line per loop round."""
    lines = [
        f"target ({report.config.a}, {report.config.d1}) over gamma={report.config.gamma}, M={report.m_copies}",
        f"host instances: {report.od_instances}"
        f" (baseline {report.baseline_md_instances} across copies)",
    ]
    for note in report.warnings:
        lines.append(f"warning: {note}")
    for n, step in enumerate(report.steps, start=1):
        votes = ", ".join(f"{xi}:{t}" for xi, t in step.votes)
        if step.chosen is None:
            lines.append(
                f"step {n}: unit {_unit_label(step.unit)} drew no votes ({votes});"
                " finalizing"
            )
        else:
            lines.append(
                f"step {n}: unit {_unit_label(step.unit)} (in {step.involvement} active)"
                f" -> value {step.chosen} [{votes}];"
                f" active {step.active_before} -> {step.active_after}"
            )
    lines.append(
        f"relocated {report.relocated_units}/{report.total_units} units"
        f" ({float(report.relocated_fraction):.1%});"
        f" final active instances: {report.final_active}"
    )
    return "\n".join(lines) + "\n"
