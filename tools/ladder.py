"""Time the UAS search on a fixed ladder of hosts and MD matrices; write one column of BENCH_<n>.json.

    python3 tools/ladder.py --column change --out BENCH_33.json
    python3 tools/ladder.py --column parent --src ../parent/src --out BENCH_33.json

Run from the repository root.  ``--src`` names the ``src/`` directory to
import ``mdreloc`` from (default: this checkout's).  Each row is one
``enumerate_uas`` call on a fresh Tanner graph, timed as the mean of a
fixed number of calls (50 on the bench-scale rows, 1 on the others) and
repeated ``REPEATS`` times in this process: ``group_s`` is the median
time to detect the graph's shift group, ``search_s`` the median time of
the search with its expansion of the target class.  ``instances`` and ``sha256`` (over one
``vns;deg1;deg2`` line per instance, in list order) must agree between
columns.  The MD matrices are built once per run by ``design_md`` on the
same host and are not timed.  An existing output file keeps its other
columns, so two runs, one per checkout, fill one file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3

# (row name, array_host shape, target (a, d1, gamma), M of the MD matrix or None
# for the host itself, relocate entries rather than circulants, calls per repeat)
ROWS = [
    ("g3 host", (3, 7, 11), (4, 2, 3), None, False, 50),
    ("g3 MD recount", (3, 7, 11), (4, 2, 3), 3, False, 50),
    ("g4 host", (4, 7, 7), (4, 4, 4), None, True, 50),
    ("g4 MD recount", (4, 7, 7), (4, 4, 4), 3, True, 50),
    ("array_host(3,13,13) (6,2) host", (3, 13, 13), (6, 2, 3), None, False, 1),
    ("array_host(3,13,13) (6,2) M=3 recount", (3, 13, 13), (6, 2, 3), 3, False, 1),
    ("array_host(4,13,13) (6,4) host", (4, 13, 13), (6, 4, 4), None, False, 1),
    ("array_host(3,17,17) (6,2) host", (3, 17, 17), (6, 2, 3), None, False, 1),
]


def array_host(md, rows: int, cols: int, p: int):
    """Fully populated QC matrix with shift i*j mod p at block (i, j)."""
    return md.QcMatrix.from_blocks(p, rows, cols, {(i, j): (i * j) % p for i in range(rows) for j in range(cols)})


def digest(instances) -> str:
    h = hashlib.sha256()
    for i in instances:
        h.update(f"{i.vns};{i.deg1_cns};{i.deg2_cns}\n".encode())
    return h.hexdigest()


def time_row(md, matrix, config, calls: int) -> dict:
    group, search = [], []
    for _ in range(REPEATS):
        group_s = search_s = 0.0
        for _ in range(calls):
            found = None  # free the last list before the next search
            g = md.build_graph(matrix)
            t0 = time.perf_counter()
            g.shift_group
            t1 = time.perf_counter()
            found = md.enumerate_uas(g, config)
            search_s += time.perf_counter() - t1
            group_s += t1 - t0
        group.append(group_s / calls)
        search.append(search_s / calls)
    return {
        "group_s": statistics.median(group),
        "search_s": statistics.median(search),
        "instances": len(found),
        "sha256": digest(found),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--column", required=True, help="name of the column to write, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the mdreloc package")
    ap.add_argument("--out", default=str(ROOT / "BENCH_33.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import mdreloc as md

    rows = {}
    for name, shape, target, m, entry, calls in ROWS:
        qc = array_host(md, *shape)
        host = md.expand_qc(qc)
        config = md.UasConfig(*target)
        matrix = host if m is None else md.design_md(host if entry else qc, m, config).h_md
        rows[name] = time_row(md, matrix, config, calls)
        print(f"{name}: {rows[name]['search_s']:.4f} s, {rows[name]['instances']} instances", flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(
        tool="tools/ladder.py",
        repeats=REPEATS,
        python=platform.python_version(),
        machine=f"{platform.machine()}, {os.cpu_count()} cpus",
    )
    doc.setdefault("columns", {})[args.column] = rows
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
