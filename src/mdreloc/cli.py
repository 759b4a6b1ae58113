"""Command-line front end.

Subcommands:

* ``analyze``    structural report on a host matrix (regularity, cycles,
                 target-instance count, per-circulant involvement)
* ``fractions``  exact relocation-arrangement fractions as TSV, optionally
                 cross-checked against the exhaustive oracle
* ``design``     run the greedy relocation designer and emit the MD matrix,
                 relocation map, and report
* ``verify``     recount instances on an assembled MD matrix
* ``oracle``     Monte Carlo estimate of the expected surviving instances

Exit codes: 0 success, 2 unreadable/unparsable input, 3 any other
refused input (a ``ValueError``: inconsistent configuration, a target
the library rejects, an output file that cannot be written) or out of
memory, 10 design finished with active instances left, 11 verify count
differed from --expect, 141 standard output was closed early (for
example by ``| head``), as a shell reports a command killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter

from .absorbing import (
    CanonicalUas,
    UasConfig,
    basic_cycle_count,
    canonical_uas,
    cycle_count_bounds,
    degree2_check_count,
    enumerate_uas,
)
from .analysis import TSV_HEADER, basis_intersections, fraction_report, tsv_row
from .cycles import enumerate_cycles, minimum_cycle_basis
from .designer import design_md, report_log, report_tsv
from .oracle import enumerate_md_uas, exhaustive_fractions, monte_carlo_avg
from .relocation import activity_plans, check_copies, involvement, unit_table
from .tanner import (
    BinaryMatrix,
    ParseError,
    QcMatrix,
    build_graph,
    check_regular_gamma,
    expand_qc,
    parse_alist,
    parse_qc,
    write_alist,
)


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _parse_uas_arg(
    spec: str, default_gamma: int | None, host: str = "is irregular"
) -> tuple[UasConfig, CanonicalUas | None]:
    """--uas accepts 'uas:<name>' or 'a,d1[,gamma]'; ``host`` says why there is no default gamma."""
    if spec.startswith("uas:"):
        try:
            fixture = canonical_uas(spec[4:])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        return fixture.config, fixture
    parts = spec.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(f"--uas expects 'a,d1[,gamma]' or 'uas:<name>', got {spec!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"--uas values must be integers, got {spec!r}") from None
    gamma = nums[2] if len(nums) == 3 else default_gamma
    if gamma is None:
        raise ValueError(f"--uas needs an explicit gamma when the host {host}")
    return UasConfig(nums[0], nums[1], gamma), None


def _load_target(
    path: str, spec: str | None
) -> tuple[BinaryMatrix, QcMatrix | None, UasConfig | None]:
    """Read a host matrix and the --uas target, checked against its column weight.

    The qc format is recognized by its 'qc 1' header (qc is None for an
    alist), and the target is None without ``spec``.
    """
    data = _read_file(path)
    # The parsers' first nonblank text: these are the ASCII characters str.strip removes.
    qc = parse_qc(data) if data.lstrip(b" \t\n\v\f\r\x1c\x1d\x1e\x1f").startswith(b"qc") else None
    matrix = parse_alist(data) if qc is None else expand_qc(qc)
    if spec is None:
        return matrix, qc, None
    gamma = check_regular_gamma(matrix)
    config, _ = _parse_uas_arg(spec, gamma, "is irregular" if matrix.n_cols else "has no columns")
    if gamma is not None and config.gamma != gamma:
        raise ValueError(f"target gamma {config.gamma} differs from host column weight {gamma}")
    return matrix, qc, config


def _check_m(m: int) -> int:
    try:
        check_copies(m)
    except ValueError as exc:
        raise ValueError(f"--M: {exc}") from None
    return m


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze(args) -> int:
    if args.max_cycle_len < 4 or args.max_cycle_len % 2:
        raise ValueError("--max-cycle-len must be an even number >= 4")
    matrix, qc, config = _load_target(args.input, args.uas)
    graph = build_graph(matrix)
    gamma = check_regular_gamma(matrix)
    print(f"matrix: {matrix.n_rows} x {matrix.n_cols}, {len(matrix.entries)} entries")
    if qc is not None:
        print(f"quasi-cyclic: p={qc.p}, base {qc.m_b} x {qc.n_b}, {len(qc.circulants)} circulants")
    weight = gamma if gamma is not None else "irregular" if matrix.n_cols else "none (no columns)"
    print(f"column weight: {weight}")
    # --max-cycle-len >= 4, so the enumeration lists every 4-cycle.
    cycles = enumerate_cycles(graph, args.max_cycle_len)
    by_len = Counter(c.length for c in cycles)
    print(f"4-cycle free: {'no' if by_len[4] else 'yes'}")
    counts = ", ".join(f"{n}: {by_len[n]}" for n in sorted(by_len)) or "none"
    print(f"cycles up to length {args.max_cycle_len}: {len(cycles)} ({counts})")
    if config is None:
        return 0
    instances = enumerate_uas(graph, config)
    low, high = cycle_count_bounds(config)
    print(
        f"target ({config.a}, {config.d1}): {len(instances)} instances;"
        f" d2={degree2_check_count(config)}, basic cycles={basic_cycle_count(config)},"
        f" cycle count in [{low}, {high}]"
    )
    if qc is not None and instances:
        units = unit_table(qc)
        counts = involvement(activity_plans(instances), units).sum(axis=0).tolist()
        print("per-circulant involvement (block_row block_col count):")
        for (_, bi, bj), cnt in zip(units, counts):
            print(f"  {bi} {bj} {cnt}")
    return 0


def _fraction_instance(args):
    """The single UAS instance named by --uas / --input."""
    if args.uas and args.uas.startswith("uas:"):
        if args.input is not None:
            raise ValueError("--input cannot be combined with --uas uas:<name>")
        _, fixture = _parse_uas_arg(args.uas, None)
        return fixture.config, fixture.instance(), fixture.name
    if args.input is None:
        raise ValueError("fractions needs uas:<name> or --input with a UAS incidence file")
    if args.uas is None:
        raise ValueError("--uas is required to classify the input instance")
    matrix, _, config = _load_target(args.input, args.uas)
    instances = enumerate_uas(build_graph(matrix), config)
    if len(instances) != 1:
        raise ValueError(
            f"input holds {len(instances)} ({config.a}, {config.d1}) instances, expected exactly 1"
        )
    return config, instances[0], config.name


def cmd_fractions(args) -> int:
    m = _check_m(args.m)
    config, instance, label = _fraction_instance(args)
    basis = minimum_cycle_basis(instance.deg2_subgraph())
    groups = basis_intersections(basis)
    report = fraction_report(
        basis.size, m, len(groups.exclusive_groups), len(groups.shared_groups)
    )
    emp = exhaustive_fractions(instance, m) if args.oracle else None
    header, row = TSV_HEADER, tsv_row(label, report)
    if emp is not None:
        header += "\temp_f_nof\temp_f_nou\temp_f_not\temp_f_noc\tmatch"
        ok = (
            emp.f_basis_inactive == report.f_basis_inactive
            and emp.f_active == report.f_active
            and emp.f_inactive == report.f_inactive
            and emp.f_deep_inactive == report.f_deep_inactive
            and emp.f_all_cycles_inactive <= report.f_all_cycles_inactive_bound
        )
        row += (
            f"\t{emp.f_basis_inactive}\t{emp.f_inactive}\t{emp.f_deep_inactive}"
            f"\t{emp.f_all_cycles_inactive}\t{'ok' if ok else 'MISMATCH'}"
        )
    print(header)
    print(row)
    if report.deep_inactive_negative:
        print("note: f_not is negative (group count exceeds what M supports)", file=sys.stderr)
    return 0


def cmd_design(args) -> int:
    m = _check_m(args.m)
    matrix, qc, config = _load_target(args.input, args.uas)
    result = design_md(matrix if qc is None or args.entry_granularity else qc, m, config)
    sys.stdout.write(report_log(result.report))
    if args.out_md:
        _write_file(args.out_md, write_alist(result.h_md))
    if args.out_reloc:
        _write_file(args.out_reloc, result.relocation.to_text())
    if args.report:
        _write_file(args.report, report_tsv(result.report))
    return 0 if result.report.final_active == 0 else 10


def cmd_verify(args) -> int:
    matrix, _, config = _load_target(args.md, args.uas)
    count = enumerate_md_uas(matrix, config)
    print(f"({config.a}, {config.d1}) instances: {count}")
    if args.expect is not None and count != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 11
    return 0


def cmd_oracle(args) -> int:
    m = _check_m(args.m)
    cpus = os.cpu_count() or 1
    if not 1 <= args.threads <= cpus:
        raise ValueError(f"--threads must be between 1 and {cpus}, got {args.threads}")
    matrix, _, config = _load_target(args.input, args.uas)
    result = monte_carlo_avg(
        matrix, config, m, args.trials, seed=args.seed, threads=args.threads
    )
    expected = float(result.expected)
    bound = 3 * result.std_error
    print(f"host instances: {result.host_instances}")
    print(f"trials: {result.trials}, mean: {result.mean:.6f} +/- {result.std_error:.6f}")
    print(f"expected: {result.expected} ({expected:.6f})")
    print(f"within 3 standard errors: {'yes' if abs(result.mean - expected) <= bound else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring

_M_HELP = "number of copies (odd prime below 2^32)"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mdreloc",
        description="Design and analyze multi-copy (MD) codes via entry relocation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report on a host matrix")
    p.add_argument("--input", required=True, help="host matrix (alist or qc format)")
    p.add_argument("--uas", help="target: a,d1[,gamma] or uas:<name>")
    p.add_argument("--max-cycle-len", type=int, default=8, dest="max_cycle_len")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("fractions", help="exact relocation-arrangement fractions")
    p.add_argument("--uas", help="uas:<name>, or a,d1[,gamma] describing --input")
    p.add_argument("--input", help="alist holding exactly one UAS instance")
    p.add_argument("--M", required=True, type=int, dest="m", help=_M_HELP)
    p.add_argument("--oracle", action="store_true", help="append exhaustive-oracle columns")
    p.set_defaults(fn=cmd_fractions)

    p = sub.add_parser("design", help="run the greedy relocation designer")
    p.add_argument("--input", required=True, help="host matrix (alist or qc format)")
    p.add_argument("--M", required=True, type=int, dest="m", help=_M_HELP)
    p.add_argument("--uas", required=True, help="target: a,d1[,gamma] or uas:<name>")
    p.add_argument("--out-md", dest="out_md", help="write the MD matrix (alist)")
    p.add_argument("--out-reloc", dest="out_reloc", help="write the relocation map")
    p.add_argument("--report", help="write the design report TSV")
    p.add_argument(
        "--entry-granularity",
        action="store_true",
        dest="entry_granularity",
        help="relocate single entries even for quasi-cyclic hosts",
    )
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("verify", help="recount instances on an MD matrix")
    p.add_argument("--md", required=True, help="assembled MD matrix (alist)")
    p.add_argument("--uas", required=True, help="target: a,d1[,gamma] or uas:<name>")
    p.add_argument("--expect", type=int, help="fail (exit 11) unless the count equals this")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="Monte Carlo check of the average formula")
    p.add_argument("--input", required=True, help="host matrix (alist or qc format)")
    p.add_argument("--uas", required=True, help="target: a,d1[,gamma] or uas:<name>")
    p.add_argument("--M", required=True, type=int, dest="m", help=_M_HELP)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_oracle)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # A ParseError is unreadable input; every other ValueError is refused input.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader went away.  Send what is still buffered to devnull so
        # the interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
