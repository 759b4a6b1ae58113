"""mdreloc benchmark: one workload per run, timed, checked, one JSON result line.

    python3 bench/run.py --workload design-g3-circ --seed 1 --seconds 35 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in.  Whole rounds of the workload repeat
while the next one would end within ``--seconds``, give or take half a
round (at least one round).  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced and the last line holds the per-layer metrics.  Inputs, outputs and the trace of each run
go to ``.bench_runs/`` under the root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks as ck  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
MODULES = ("absorbing", "analysis", "cli", "cycles", "designer", "oracle", "relocation", "tanner")


def import_program():
    """Import mdreloc afresh from this checkout's ``src/``; return the module table."""
    for name in [n for n in sys.modules if n == "mdreloc" or n.startswith("mdreloc.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    md = importlib.import_module("mdreloc")
    if not Path(md.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"mdreloc imported from {md.__file__}, not from {ROOT / 'src'}")
    mods = {"mdreloc": md}
    for name in MODULES:
        mods[f"mdreloc.{name}"] = importlib.import_module(f"mdreloc.{name}")
    return mods


def setup(workload_name: str, seed: int, workdir: Path):
    """Import, generate the host and write the input files; repeated to time it."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_program()
        workload = WORKLOADS[workload_name]()
        workload.setup(mods["mdreloc"], workdir, seed)
        times.append(time.perf_counter() - t0)
    return mods, workload, statistics.median(times)


def run_rounds(workload, seconds: float, tracer_factory=None):
    """Repeat whole rounds while the next one would end within ``seconds``.

    A round may overrun by up to half its (median) length, so that long
    rounds still give two samples.  With a tracer factory, rounds
    alternate untraced and traced (at least one of each) and each traced
    round's tracer is kept.
    """
    plain, traced = [], []
    walls = []
    start = time.perf_counter()
    while True:
        trace_this = tracer_factory is not None and len(traced) < len(plain)
        tracer = tracer_factory() if trace_this else None
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
            try:
                rnd = workload.round(tracer)
            finally:
                tracer.uninstall()
        else:
            rnd = workload.round()
        rnd.wall = time.perf_counter() - t0
        (traced if trace_this else plain).append((rnd, tracer))
        walls.append(rnd.wall)
        elapsed = time.perf_counter() - start
        need_traced = tracer_factory is not None and not traced
        if not need_traced and elapsed + statistics.median(walls) / 2 > seconds:
            break
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    workdir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mods, workload, setup_s = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import mdreloc from this checkout: {exc}", file=sys.stderr)
        return 2

    rounds, metrics, notes = [], {}, []
    try:
        plain, traced = run_rounds(
            workload, args.seconds, (lambda: Tracer(mods)) if args.trace else None
        )
        rounds = [r for r, _ in plain + traced]
        digests = {r.digest for r in rounds}
        ck.require(len(digests) == 1, f"rounds produced {len(digests)} different outputs")
        notes = workload.check(rounds)
        if args.trace:
            metrics = layers.per_layer(plain, traced)
            (workdir / "trace.json").write_text(json.dumps([t.to_json() for _, t in traced], default=str))
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "main_s": (statistics.median(r.main for r in rounds), "s"),
                "check_s": (statistics.median(r.check for r in rounds), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        correct = True
    except Exception:  # a failure of the program or of a check makes the run incorrect
        traceback.print_exc()
        correct = False
    for note in notes:
        print(note, file=sys.stderr)

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(op.failed for r in rounds for op in r.ops)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
