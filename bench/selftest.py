"""Fast self-test of the benchmark (about 10 s).

    python3 bench/selftest.py

Runs every workload's code path (rounds, tracing, per-layer figures and
checks) on tiny hosts, then feeds the checks a corrupted MD matrix, a
corrupted relocation map, wrong instances, wrong fractions and shifted
Monte Carlo means, and requires each to be rejected.  Exits 0 when all
of that holds.
"""

from __future__ import annotations

import dataclasses
import sys
import warnings
from fractions import Fraction

import run
import checks as ck
import layers
from spans import Tracer
from workloads import DesignCase, DesignWorkload, OracleWorkload, check_fractions

FAILURES: list[str] = []


def expect_reject(label: str, fn, *args):
    try:
        fn(*args)
    except ck.CheckError as exc:
        print(f"ok   rejects {label}: {exc}".splitlines()[0][:160])
    else:
        FAILURES.append(label)
        print(f"FAIL accepts {label}")


def exercise(name: str, workload, mods, workdir):
    """One untraced and one traced round, then the checks and per-layer figures."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(mods["mdreloc"], workdir, seed=3)
    plain, traced = run.run_rounds(workload, 0, lambda: Tracer(mods))
    rounds = [r for r, _ in plain + traced]
    ck.require(len({r.digest for r in rounds}) == 1, f"{name}: rounds differ")
    workload.check(rounds)
    figures = layers.per_layer(plain, traced)
    missing = [n for n in layers.NAMES if n not in figures]
    ck.require(not missing, f"{name}: per-layer figures missing: {missing}")
    print(f"ok   {name}: {sum(len(r.ops) for r in rounds)} operations checked, {len(figures)} per-layer figures")
    return rounds


class TinyOracle(OracleWorkload):
    MC_TRIALS = 300
    SWEEP_M = (3, 5)
    FULL = ("4_2_g3", 3)


def main() -> int:
    warnings.simplefilter("ignore")
    mods = run.import_program()
    md = mods["mdreloc"]
    base = run.ROOT / ".bench_runs" / "selftest"

    g3 = DesignWorkload(DesignCase(3, 4, 5, 4, 2, 3, 3, False), "4_2_g3")
    g3_rounds = exercise("design (3,4,5) circulant", g3, mods, base / "g3")
    g4 = DesignWorkload(
        DesignCase(4, 5, 5, 4, 4, 4, 3, True), "4_4_g4", fault=DesignCase(3, 4, 5, 5, 3, 3, 3, True)
    )
    g4_rounds = exercise("design (4,5,5) entry + fault", g4, mods, base / "g4")
    ck.require(all(op.failed == (op.name == "fault") for op in g4_rounds[-1].ops), "fault op not counted")
    oracle = TinyOracle()
    exercise("oracle", oracle, mods, base / "oracle")

    # A corrupted MD matrix: one entry moved to the next copy's column block.
    md_path = g3.dir / "host.md.alist"
    good = md_path.read_text()
    mdm = ck.parse_alist(good)
    r, c = min(mdm.entries)
    host_cols = mdm.n_cols // g3.case.m
    moved = ck.Matrix(mdm.n_rows, mdm.n_cols, (mdm.entries - {(r, c)}) | {(r, (c + host_cols) % mdm.n_cols)})
    md_path.write_text(ck.alist_text(moved))
    expect_reject("an MD matrix with a moved entry", g3.check, g3_rounds)
    md_path.write_text(good)

    reloc_path = g3.dir / "host.reloc"
    good = reloc_path.read_text()
    head, *units = good.splitlines()
    kind, a, b, v = units[0].split()
    units[0] = f"{kind} {a} {b} {(int(v) + 1) % g3.case.m}"
    reloc_path.write_text("\n".join([head, *units]) + "\n")
    expect_reject("a relocation map with a changed value", g3.check, g3_rounds)
    reloc_path.write_text(good)
    g3.check(g3_rounds)

    host = ck.qc_matrix(g3.case.p, g3.case.rows, g3.case.cols, g3.shifts)
    graph = md.build_graph(md.expand_qc(md.parse_qc((g3.dir / "host.qc").read_text())))
    found = [(i.vns, i.deg1_cns, i.deg2_cns) for i in md.enumerate_uas(graph, md.UasConfig(4, 2, 3))]
    vns, d1, d2 = found[0]
    expect_reject("an instance with a swapped VN", ck.check_instances, host, [(vns[:-1] + (vns[-1] + 1,), d1, d2)], 4, 2, 3)
    expect_reject("an instance count that is not a multiple of p", ck.check_instances, host, found[:-1], 4, 2, 3, 5)

    # Wrong fractions: the library's result, then the CLI's table.
    inst = md.canonical_uas("4_4_g4").instance()
    basis = md.minimum_cycle_basis(inst.deg2_subgraph())
    emp, closed = md.exhaustive_fractions(inst, 5), md.fraction_report_for_basis(basis, 5)
    check_fractions(emp, closed, 3, 5, "4_4_g4 M=5")
    wrong = dataclasses.replace(emp, f_basis_inactive=emp.f_basis_inactive + Fraction(1, 125))
    expect_reject("a wrong measured fraction", check_fractions, wrong, closed, 3, 5, "4_4_g4 M=5")
    wrong = dataclasses.replace(closed, f_active=closed.f_active * 5)
    expect_reject("a wrong closed-form fraction", check_fractions, emp, wrong, 3, 5, "4_4_g4 M=5")
    table = g3_rounds[-1].ops[2].output
    header, row = table.splitlines()[:2]
    cells = row.split("\t")
    cells[header.split("\t").index("emp_f_nof")] = "1/2"
    expect_reject("a wrong fraction in the CLI table", g3._check_fractions, header + "\n" + "\t".join(cells) + "\n")

    # Shifted Monte Carlo means, a little past the margin on either side.
    res = oracle.mc[3]
    ck.check_mc(res.mean, 1, 3, 3, res.trials)
    se = 3 * (1 / 27 * 26 / 27 / res.trials) ** 0.5
    for shift in (+1, -1):
        mean = 1 / 9 + shift * (ck.MC_MARGIN_SE + 0.5) * se
        expect_reject(f"a Monte Carlo mean shifted {'up' if shift > 0 else 'down'}", ck.check_mc, mean, 1, 3, 3, res.trials)

    if FAILURES:
        print(f"{len(FAILURES)} check(s) accepted bad input: {FAILURES}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
