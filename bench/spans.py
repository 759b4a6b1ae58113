"""Span recording around calls into mdreloc's layers, for traced rounds only.

Each wrapped function is patched under the name its caller looks it up
by (``mdreloc.designer.enumerate_uas``, ``mdreloc.cli.design_md``, ...),
so the program itself is unchanged.  A span is (name, start, end,
parent span, info); spans stay in memory and the caller writes them out
when the run ends.  High-frequency helpers get a counter instead of a
span, so their time stays with the caller.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


def _enum_info(args, kwargs, result):
    return {"config": args[1] if len(args) > 1 else kwargs.get("c"), "found": len(result)}


def _design_info(args, kwargs, result):
    rep = result.report
    return {
        "config": args[2] if len(args) > 2 else kwargs.get("config"),
        "steps": len(rep.steps),
        "relocated": rep.relocated_units,
        "units": rep.total_units,
        "md_entries": len(result.h_md.entries),
    }


def _classes_info(args, kwargs, result):
    return {"classes": result.classes}


def _count_info(args, kwargs, result):
    return {"count": result}


def _mc_info(args, kwargs, result):
    return {"trials": result.trials}


# (module, attribute, span name, info extractor).  An attribute a module
# no longer has is skipped, so a refactor that moves a function makes its
# figures read 0 instead of breaking the benchmark.
SPANS = [
    ("mdreloc.cli", "parse_qc", "tanner.parse", None),
    ("mdreloc.cli", "parse_alist", "tanner.parse", None),
    ("mdreloc.cli", "expand_qc", "tanner.parse", None),
    ("mdreloc.designer", "expand_qc", "tanner.parse", None),
    ("mdreloc.cli", "write_alist", "tanner.write", None),
    ("mdreloc.designer", "build_graph", "tanner.build_graph", None),
    ("mdreloc.oracle", "build_graph", "tanner.build_graph", None),
    ("mdreloc.absorbing", "build_graph", "tanner.build_graph", None),
    ("mdreloc.designer", "enumerate_uas", "absorbing.enumerate_uas", _enum_info),
    ("mdreloc.oracle", "enumerate_uas", "absorbing.enumerate_uas", _enum_info),
    ("mdreloc.absorbing", "enumerate_uas", "absorbing.enumerate_uas", _enum_info),
    ("mdreloc.designer", "minimum_cycle_basis", "cycles.minimum_cycle_basis", None),
    ("mdreloc.oracle", "minimum_cycle_basis", "cycles.minimum_cycle_basis", None),
    ("mdreloc.cli", "minimum_cycle_basis", "cycles.minimum_cycle_basis", None),
    ("mdreloc", "minimum_cycle_basis", "cycles.minimum_cycle_basis", None),
    ("mdreloc.cycles", "enumerate_cycles", "cycles.enumerate_cycles", None),
    ("mdreloc.oracle", "enumerate_cycles", "cycles.enumerate_cycles", None),
    ("mdreloc.cli", "design_md", "designer.design_md", _design_info),
    ("mdreloc.designer", "assemble_md", "relocation.assemble_md", None),
    ("mdreloc.oracle", "assemble_md", "relocation.assemble_md", None),
    ("mdreloc.cli", "enumerate_md_uas", "oracle.enumerate_md_uas", _count_info),
    ("mdreloc.oracle", "enumerate_md_uas", "oracle.enumerate_md_uas", _count_info),
    ("mdreloc.cli", "exhaustive_fractions", "oracle.exhaustive_fractions", _classes_info),
    ("mdreloc", "exhaustive_fractions", "oracle.exhaustive_fractions", _classes_info),
    ("mdreloc", "full_enumeration_fractions", "oracle.full_enumeration_fractions", _classes_info),
    ("mdreloc", "monte_carlo_avg", "oracle.monte_carlo_avg", _mc_info),
    ("mdreloc.cli", "fraction_report", "analysis.closed_form", None),
    ("mdreloc", "fraction_report_for_basis", "analysis.closed_form", None),
    ("mdreloc.oracle", "expected_md_instances", "analysis.closed_form", None),
]

# Methods patched on the class, so every construction and assignment is seen.
METHOD_SPANS = [
    ("mdreloc.relocation", "RelocationMap", "__init__", "relocation.map_build"),
    ("mdreloc.relocation", "RelocationMap", "assign_entry", "relocation.map_build"),
    ("mdreloc.relocation", "RelocationMap", "assign_circulant", "relocation.map_build"),
]

COUNTERS = [
    ("mdreloc.designer", "vote", "designer.vote"),
    ("mdreloc.designer", "is_uas_active", "designer.activity_check"),
]


class Tracer:
    """Collects spans and counts while installed; restores everything on uninstall."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, info=None):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = info
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, info_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                info = info_fn(args, kwargs, result) if info_fn and result is not None else None
                tracer._close(idx, info)

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for mod_name, attr, name, info_fn in SPANS:
            mod = self.modules[mod_name]
            if attr in mod.__dict__:
                self._patch(mod, attr, self._wrap(mod.__dict__[attr], name, info_fn))
        for mod_name, cls_name, attr, name in METHOD_SPANS:
            cls = self.modules[mod_name].__dict__.get(cls_name)
            if cls is not None and attr in cls.__dict__:
                # the wrapper replaces the class attribute, so ``self`` arrives in args
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, None))
        for mod_name, attr, name in COUNTERS:
            mod = self.modules[mod_name]
            if attr in mod.__dict__:
                self._patch(mod, attr, self._counter(mod.__dict__[attr], name))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------

    def to_json(self):
        def plain(info):
            if info is None:
                return None
            return {k: (v.name if hasattr(v, "name") else v) for k, v in info.items()}

        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "info": plain(i)}
                for n, s, e, p, i in self.spans
            ],
            "counts": dict(self.counts),
        }
