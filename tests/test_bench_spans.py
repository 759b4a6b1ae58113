"""The benchmark's patch list against the names the package defines.

``bench/spans.py`` skips a patch target that no longer exists, so a
refactor that renames or moves a traced function silently zeroes that
layer's figures.  This test pins the set of targets that resolve to
nothing, so any new one fails here instead.
"""

import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Targets the package no longer defines; none is on a benchmarked path today.
KNOWN_MISSING = {
    "mdreloc.designer.minimum_cycle_basis",
    "mdreloc.designer.expand_qc",
    "mdreloc.designer.is_uas_active",
    "mdreloc.oracle.assemble_md",
}


def load_spans() -> dict:
    """Execute bench/spans.py from its source text, writing nothing next to it."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), namespace)
    return namespace


def test_missing_patch_targets_are_pinned():
    spans = load_spans()
    targets = [(mod, (attr,)) for mod, attr, *_ in spans["SPANS"]]
    targets += [(mod, (attr,)) for mod, attr, _ in spans["COUNTERS"]]
    targets += [(mod, (cls, attr)) for mod, cls, attr, _ in spans["METHOD_SPANS"]]
    missing = set()
    for mod_name, path in targets:
        owner = importlib.import_module(mod_name)
        for name in path:
            owner = vars(owner).get(name)
            if owner is None:
                missing.add(".".join((mod_name, *path)))
                break
    assert missing == KNOWN_MISSING
