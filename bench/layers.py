"""Per-layer figures from the spans of traced rounds.

Times are medians over traced rounds of each round's total; counts are
per round and must repeat exactly, so they are taken from the first
traced round and checked against the others.  Span times are inclusive
(``cycles.min_basis_s`` contains the ``cycles.enumerate_s`` it causes)
except where a name says ``self``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import checks as ck

# The library calls a CLI command makes; what is left of its span is cli overhead.
LIBRARY_CALLS = {
    "designer.design_md",
    "oracle.enumerate_md_uas",
    "oracle.exhaustive_fractions",
    "cycles.minimum_cycle_basis",
    "analysis.closed_form",
}

UNITS = {"_s": "s", "_us_per_call": "us"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def round_figures(tracer) -> dict[str, float]:
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    lib_child_time = [0.0] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
            if name in LIBRARY_CALLS:
                lib_child_time[parent] += dur[i]

    f: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent, info) in enumerate(spans):
        d = dur[i]
        pname = spans[parent][0] if parent >= 0 else None
        if name == "tanner.parse":
            f["tanner.parse_s"] += d
        elif name == "tanner.write":
            f["tanner.write_s"] += d
        elif name == "tanner.build_graph":
            f["tanner.build_graph_s"] += d
        elif name == "absorbing.enumerate_uas":
            f["absorbing.enum_calls"] += 1
            f["absorbing.enum_total_s"] += d
            if pname == "designer.design_md" and info["config"] != spans[parent][4]["config"]:
                f["absorbing.sibling_enum_s"] += d
                f["absorbing.sibling_enum_calls"] += 1
            elif pname in ("designer.design_md", "oracle.monte_carlo_avg"):
                f["absorbing.host_enum_s"] += d
                f["absorbing.host_instances"] += info["found"]
        elif name == "cycles.minimum_cycle_basis":
            f["cycles.min_basis_s"] += d
            f["cycles.min_basis_calls"] += 1
        elif name == "cycles.enumerate_cycles":
            f["cycles.enumerate_s"] += d
        elif name == "designer.design_md":
            f["designer.loop_self_s"] += d - child_time[i]
            f["designer.steps"] += info["steps"]
            f["designer.relocated_units"] += info["relocated"]
            f["designer.total_units"] += info["units"]
            f["tanner.md_entries"] += info["md_entries"]
        elif name == "relocation.map_build":
            f["relocation.map_build_s"] += d
        elif name == "relocation.assemble_md":
            f["relocation.assemble_s"] += d
            f["relocation.assemble_calls"] += 1
        elif name == "oracle.enumerate_md_uas":
            f["oracle.md_recount_s"] += d
            f["oracle.md_instances"] += info["count"]
        elif name == "oracle.monte_carlo_avg":
            f["oracle.mc_trials"] += info["trials"]
        elif name in ("oracle.exhaustive_fractions", "oracle.full_enumeration_fractions"):
            f["oracle.fractions_s"] += d
            key = "oracle.exhaustive_classes" if name == "oracle.exhaustive_fractions" else "oracle.full_enum_assignments"
            f[key] += info["classes"]
        elif name == "analysis.closed_form":
            f["analysis.closed_form_s"] += d
        elif name == "cli.main":
            f["cli.overhead_s"] += d - lib_child_time[i]
    calls = f.pop("absorbing.enum_calls", 0)
    total = f.pop("absorbing.enum_total_s", 0.0)
    f["absorbing.enum_calls"] = calls
    f["absorbing.enum_us_per_call"] = total / calls * 1e6 if calls else 0.0
    f["designer.vote_calls"] = tracer.counts["designer.vote"]
    f["designer.activity_checks"] = tracer.counts["designer.activity_check"]
    return f


NAMES = [
    "tanner.parse_s", "tanner.write_s", "tanner.build_graph_s", "tanner.md_entries",
    "absorbing.host_enum_s", "absorbing.host_instances", "absorbing.sibling_enum_s",
    "absorbing.sibling_enum_calls", "absorbing.enum_calls", "absorbing.enum_us_per_call",
    "cycles.min_basis_s", "cycles.min_basis_calls", "cycles.enumerate_s",
    "designer.loop_self_s", "designer.steps", "designer.relocated_units", "designer.total_units",
    "designer.vote_calls", "designer.activity_checks",
    "relocation.map_build_s", "relocation.assemble_s", "relocation.assemble_calls",
    "oracle.md_recount_s", "oracle.md_instances", "oracle.mc_trials", "oracle.fractions_s",
    "oracle.exhaustive_classes", "oracle.full_enum_assignments",
    "analysis.closed_form_s", "cli.overhead_s", "fault.md_instances", "trace.overhead_s",
]


def per_layer(plain, traced) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run: (value, unit) by metric name."""
    rounds = [round_figures(t) for _, t in traced]
    out = {}
    for name in NAMES:
        if name == "fault.md_instances":
            values = [r.fault_md_instances for r, _ in traced]
        elif name == "trace.overhead_s":
            values = [
                statistics.median(r.wall for r, _ in traced) - statistics.median(r.wall for r, _ in plain)
            ]
        else:
            values = [fig.get(name, 0.0) for fig in rounds]
        unit = _unit(name)
        if unit == "count":
            ck.require(len(set(values)) == 1, f"work count {name} differs between rounds: {values}")
            out[name] = (int(values[0]), unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out
