"""The benchmark's workloads: inputs, one round of operations, and the checks.

A round is the unit each run repeats: the same operations on the same
inputs, so every round attempts the same operations and the failed share
is fixed.  Design workloads drive the ``mdreloc`` command through
``mdreloc.cli.main``; the oracle workload calls the library API.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import checks as ck


@dataclass(frozen=True)
class DesignCase:
    """array_host(rows, cols, p) and the target (a, d1, gamma) designed at M."""

    rows: int
    cols: int
    p: int
    a: int
    d1: int
    gamma: int
    m: int
    entry: bool

    @property
    def uas(self) -> str:
        return f"{self.a},{self.d1},{self.gamma}"


@dataclass
class Op:
    """One attempted operation and whether it failed."""

    name: str
    failed: bool = False
    output: str = ""


@dataclass
class Round:
    """What one round did: its operations, the two timed phases, an output digest.

    ``main`` and ``check`` are the seconds of the workload's two
    user-facing steps (design and verify, or Monte Carlo and the fraction
    sweep).
    """

    ops: list[Op] = field(default_factory=list)
    main: float = 0.0
    check: float = 0.0
    digest: str = ""
    fault_md_instances: int = 0
    wall: float = 0.0


def cli(md, argv, tracer=None) -> tuple[int, str, float]:
    """Run ``mdreloc <argv>`` in-process; return (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            code = md.cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = md.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def _int_after(pattern: str, text: str) -> int:
    found = re.search(pattern, text)
    ck.require(found is not None, f"output lacks {pattern!r}: {text[-200:]!r}")
    return int(found.group(1))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Design workloads


class DesignWorkload:
    """``mdreloc design``, ``verify --expect`` and ``fractions --oracle`` for one QC host.

    ``fault`` is an optional second case, designed and verified as one
    more operation in the same round.  It counts as failed when verify
    disagrees with the count design reported, and its time stays out of
    the design and verify figures.
    """

    def __init__(self, case: DesignCase, reference: str, fault: DesignCase | None = None):
        self.case, self.reference, self.fault = case, reference, fault

    def setup(self, md, workdir, seed: int):
        self.md, self.dir = md, workdir
        rng = random.Random(seed)
        c = self.case
        self.shifts = ck.array_shifts(
            c.rows, c.cols, c.p,
            [rng.randrange(c.p) for _ in range(c.rows)],
            [rng.randrange(c.p) for _ in range(c.cols)],
        )
        (workdir / "host.qc").write_text(ck.qc_text(c.p, c.rows, c.cols, self.shifts))
        if self.fault is not None:
            # the failing operation's input does not depend on the seed
            f = self.fault
            self.fault_shifts = ck.array_shifts(f.rows, f.cols, f.p, [0] * f.rows, [0] * f.cols)
            (workdir / "fault.qc").write_text(ck.qc_text(f.p, f.rows, f.cols, self.fault_shifts))

    def _design(self, case: DesignCase, stem: str, tracer):
        d = self.dir
        argv = [
            "design", "--input", str(d / f"{stem}.qc"), "--M", str(case.m), "--uas", case.uas,
            "--out-md", str(d / f"{stem}.md.alist"), "--out-reloc", str(d / f"{stem}.reloc"),
            "--report", str(d / f"{stem}.report.tsv"),
        ] + (["--entry-granularity"] if case.entry else [])
        return cli(self.md, argv, tracer)

    def _verify(self, case: DesignCase, stem: str, expect: int, tracer):
        argv = ["verify", "--md", str(self.dir / f"{stem}.md.alist"), "--uas", case.uas, "--expect", str(expect)]
        return cli(self.md, argv, tracer)

    def round(self, tracer=None) -> Round:
        rnd = Round()
        c = self.case
        code, out, rnd.main = self._design(c, "host", tracer)
        rnd.ops.append(Op("design", code != 0, out))
        reported = _int_after(r"final active instances: (\d+)", out)
        code, vout, rnd.check = self._verify(c, "host", reported, tracer)
        rnd.ops.append(Op("verify", code != 0, vout))
        code, fout, _ = cli(
            self.md, ["fractions", "--uas", f"uas:{self.reference}", "--M", str(c.m), "--oracle"], tracer
        )
        rnd.ops.append(Op("fractions", code != 0, fout))
        outputs = [out, vout, fout] + [
            (self.dir / f"host.{ext}").read_bytes() for ext in ("md.alist", "reloc", "report.tsv")
        ]
        if self.fault is not None:
            f = self.fault
            _, dout, _ = self._design(f, "fault", tracer)
            f_reported = _int_after(r"final active instances: (\d+)", dout)
            code, fvout, _ = self._verify(f, "fault", f_reported, tracer)
            rnd.ops.append(Op("fault", code != 0, dout + fvout))
            rnd.fault_md_instances = _int_after(r"\) instances: (\d+)", fvout) - f_reported
            outputs += [dout, fvout, (self.dir / "fault.md.alist").read_bytes()]
        rnd.digest = _digest(*outputs)
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        """Check the last round's outputs; return notes on the failing operation."""
        md, c = self.md, self.case
        last = {op.name: op for op in rounds[-1].ops}
        for name in ("design", "verify", "fractions"):
            ck.require(not last[name].failed, f"{name} exited with an error:\n{last[name].output}")
        host = ck.qc_matrix(c.p, c.rows, c.cols, self.shifts)
        self._check_design(host, last["design"].output, last["verify"].output)
        self._check_fractions(last["fractions"].output)
        notes = []
        if self.fault is not None and last["fault"].failed:
            notes = self._check_fault(last["fault"].output)
        return notes

    def _host_instances(self, case: DesignCase, stem: str, host: ck.Matrix):
        md = self.md
        graph = md.build_graph(md.expand_qc(md.parse_qc((self.dir / f"{stem}.qc").read_text())))
        found = md.enumerate_uas(graph, md.UasConfig(case.a, case.d1, case.gamma))
        # orbits of the Z_p shift have exactly p members only for a < p
        orbit = case.p if case.a < case.p else None
        ck.check_instances(host, [(i.vns, i.deg1_cns, i.deg2_cns) for i in found], case.a, case.d1, case.gamma, orbit)
        return found

    def _check_design(self, host, design_out, verify_out):
        case = self.case
        found = self._host_instances(case, "host", host)
        reported = _int_after(r"host instances: (\d+)", design_out)
        ck.require(reported == len(found), f"design reported {reported} host instances, the host has {len(found)}")
        ck.require(_int_after(r"final active instances: (\d+)", design_out) == 0, "design left instances active")
        ck.require(_int_after(r"instances: (\d+)", verify_out) == 0, "verify found instances on the MD matrix")
        mdm = ck.parse_alist((self.dir / "host.md.alist").read_text())
        m, values = ck.parse_reloc((self.dir / "host.reloc").read_text(), host, case.p)
        ck.require(m == case.m, f"relocation map is for M={m}, expected {case.m}")
        ck.check_md_matrix(mdm, host, values, case.m, case.gamma)

    def _check_fractions(self, out: str):
        header, row = [ln.split("\t") for ln in out.splitlines()[:2]]
        cells = dict(zip(header, row))
        ref = self.md.canonical_uas(self.reference)
        n = ck.basic_cycles(ck.Matrix(ref.incidence.n_rows, ref.incidence.n_cols, ref.incidence.entries))
        f_active, f_basis_inactive = ck.closed_forms(n, self.case.m)
        ck.require(int(cells["n_f"]) == n, f"fractions reports n_f={cells['n_f']}, expected {n}")
        for key, want in (
            ("f_nof", f_basis_inactive), ("emp_f_nof", f_basis_inactive),
            ("f_nou", 1 - f_active), ("emp_f_nou", 1 - f_active),
        ):
            ck.require(cells[key] == str(want), f"fractions {key}={cells[key]}, expected {want}")
        ck.require(cells["match"] == "ok", "fractions --oracle reports a mismatch")

    def _check_fault(self, out: str) -> list[str]:
        """The failing operation's MD instances are real, and new across copies."""
        md, f = self.md, self.fault
        host = ck.qc_matrix(f.p, f.rows, f.cols, self.fault_shifts)
        self._host_instances(f, "fault", host)
        text = (self.dir / "fault.md.alist").read_text()
        mdm = ck.parse_alist(text)
        found = md.enumerate_uas(md.build_graph(md.parse_alist(text)), md.UasConfig(f.a, f.d1, f.gamma))
        ck.check_instances(mdm, [(i.vns, i.deg1_cns, i.deg2_cns) for i in found], f.a, f.d1, f.gamma)
        ck.require(
            len(found) == _int_after(r"\) instances: (\d+)", out),
            "verify's count differs from the instances on the MD matrix",
        )
        projected = [sorted({v % host.n_cols for v in inst.vns}) for inst in found]
        host_objects = sum(ck.is_uas(host, vs, f.a, f.d1, f.gamma) for vs in projected if len(vs) == f.a)
        reported = _int_after(r"final active instances: (\d+)", out)
        return [
            f"failing operation: design reported {reported} ({f.a}, {f.d1}) instances on the MD matrix,"
            f" verify found {len(found)}, all of which pass the definition check;"
            f" {host_objects} of them project onto a host ({f.a}, {f.d1}) instance"
        ]


# ---------------------------------------------------------------------------
# Oracle workload


def k4_entries():
    return [(r, v) for r, pair in enumerate(itertools.combinations(range(4), 2)) for v in pair]


class OracleWorkload:
    """Monte Carlo average law, the fraction sweep, and designer closure on the reference sets."""

    MC_M = (3, 5)
    MC_TRIALS = 1000
    SWEEP_M = (3, 5, 7, 11, 13)
    REFERENCES = ("4_2_g3", "4_4_g4")
    FULL = ("4_4_g4", 3)

    def setup(self, md, workdir, seed: int):
        self.md, self.dir, self.seed = md, workdir, seed
        self.k4 = md.BinaryMatrix.from_entries(6, 4, k4_entries())
        for name in self.REFERENCES:
            inc = md.canonical_uas(name).incidence
            (workdir / f"{name}.alist").write_text(ck.alist_text(ck.Matrix(inc.n_rows, inc.n_cols, inc.entries)))

    def round(self, tracer=None) -> Round:
        md, rnd = self.md, Round()
        t0 = time.perf_counter()
        self.mc = {
            m: md.monte_carlo_avg(self.k4, md.UasConfig(4, 0, 3), m, self.MC_TRIALS, seed=self.seed, threads=1)
            for m in self.MC_M
        }
        rnd.main = time.perf_counter() - t0
        rnd.ops += [Op("mc") for _ in self.MC_M]
        t0 = time.perf_counter()
        self.sweep = {}
        for name in self.REFERENCES:
            inst = md.canonical_uas(name).instance()
            basis = md.minimum_cycle_basis(inst.deg2_subgraph())
            for m in self.SWEEP_M:
                self.sweep[name, m] = (md.exhaustive_fractions(inst, m), md.fraction_report_for_basis(basis, m))
                rnd.ops.append(Op("fractions"))
            if name == self.FULL[0]:
                self.full = md.full_enumeration_fractions(inst, self.FULL[1])
                rnd.ops.append(Op("full-enumeration"))
        rnd.check = time.perf_counter() - t0
        outputs = [repr(sorted(self.mc.items())), repr(sorted(self.sweep.items())), repr(self.full)]
        self.closure = {}
        for name in self.REFERENCES:
            stem = self.dir / name
            argv = ["design", "--input", f"{stem}.alist", "--M", "3", "--uas", f"uas:{name}",
                    "--out-md", f"{stem}.md.alist", "--out-reloc", f"{stem}.reloc"]
            code, out, _ = cli(md, argv, tracer)
            rnd.ops.append(Op("closure-design", code != 0, out))
            reported = _int_after(r"final active instances: (\d+)", out)
            code, vout, _ = cli(md, ["verify", "--md", f"{stem}.md.alist", "--uas", f"uas:{name}",
                                     "--expect", str(reported)], tracer)
            rnd.ops.append(Op("closure-verify", code != 0, vout))
            self.closure[name] = (out, vout)
            outputs += [out, vout, (self.dir / f"{name}.md.alist").read_bytes()]
        rnd.digest = _digest(*outputs)
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        md = self.md
        for op in rounds[-1].ops:
            ck.require(not op.failed, f"{op.name} exited with an error:\n{op.output}")
        k4 = ck.Matrix(6, 4, k4_entries())
        found = md.enumerate_uas(md.build_graph(self.k4), md.UasConfig(4, 0, 3))
        ck.check_instances(k4, [(i.vns, i.deg1_cns, i.deg2_cns) for i in found], 4, 0, 3)
        n_k4 = ck.basic_cycles(k4)
        for m, res in self.mc.items():
            ck.require(res.host_instances == len(found) == 1, f"Monte Carlo saw {res.host_instances} host instances")
            ck.require(res.trials == self.MC_TRIALS, f"Monte Carlo ran {res.trials} trials")
            expected = ck.check_mc(res.mean, len(found), n_k4, m, res.trials)
            ck.require(res.expected == expected, f"Monte Carlo expects {res.expected}, the law gives {expected}")
        for (name, m), (emp, closed) in self.sweep.items():
            inc = md.canonical_uas(name).incidence
            n = ck.basic_cycles(ck.Matrix(inc.n_rows, inc.n_cols, inc.entries))
            check_fractions(emp, closed, n, m, f"{name} M={m}")
        emp3 = self.sweep[self.FULL][0]
        for key in ("f_active", "f_inactive", "f_one_detached", "f_deep_inactive", "f_basis_inactive",
                    "f_all_cycles_inactive"):
            ck.require(
                getattr(self.full, key) == getattr(emp3, key),
                f"full enumeration {key}={getattr(self.full, key)} differs from the class-reduced"
                f" {getattr(emp3, key)}",
            )
        for name, (out, vout) in self.closure.items():
            inc = md.canonical_uas(name).incidence
            host = ck.Matrix(inc.n_rows, inc.n_cols, inc.entries)
            cfg = md.canonical_uas(name).config
            ck.require(_int_after(r"final active instances: (\d+)", out) == 0, f"design left {name} active")
            ck.require(_int_after(r"instances: (\d+)", vout) == 0, f"verify found {name} on the MD matrix")
            mdm = ck.parse_alist((self.dir / f"{name}.md.alist").read_text())
            m, values = ck.parse_reloc((self.dir / f"{name}.reloc").read_text(), host, None)
            ck.check_md_matrix(mdm, host, values, m, cfg.gamma)
        return []


def check_fractions(emp, closed, n: int, m: int, label: str):
    """Measured fractions against the closed forms, ours and the program's."""
    f_active, f_basis_inactive = ck.closed_forms(n, m)
    ck.require(emp.classes == m**n, f"{label}: {emp.classes} classes, expected {m ** n}")
    for what, got, want in (
        ("f_active", emp.f_active, f_active),
        ("f_inactive", emp.f_inactive, 1 - f_active),
        ("f_basis_inactive", emp.f_basis_inactive, f_basis_inactive),
        ("closed-form f_active", closed.f_active, f_active),
        ("closed-form f_basis_inactive", closed.f_basis_inactive, f_basis_inactive),
        ("f_deep_inactive vs closed form", emp.f_deep_inactive, closed.f_deep_inactive),
    ):
        ck.require(got == want, f"{label}: {what} is {got}, expected {want}")
    ck.require(
        emp.f_all_cycles_inactive <= closed.f_all_cycles_inactive_bound,
        f"{label}: all-cycles-inactive fraction exceeds its bound",
    )


WORKLOADS = {
    "design-g3-circ": lambda: DesignWorkload(DesignCase(3, 7, 11, 4, 2, 3, 3, False), "4_2_g3"),
    "design-g4-entry": lambda: DesignWorkload(
        DesignCase(4, 7, 7, 4, 4, 4, 3, True), "4_4_g4", fault=DesignCase(3, 4, 5, 5, 3, 3, 3, True)
    ),
    "oracle": OracleWorkload,
}
