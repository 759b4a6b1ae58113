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

Exit codes: 0 success, 2 unreadable/unparsable input, 3 inconsistent
configuration, 10 design finished with active instances left, 11 verify
count differed from --expect, 141 standard output was closed early (for
example by ``| head``), as a shell reports a command killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
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
    involvement_counts,
)
from .analysis import TSV_HEADER, basis_intersections, fraction_report, tsv_row
from .cycles import enumerate_cycles, minimum_cycle_basis
from .designer import design_md, report_log, report_tsv
from .oracle import enumerate_md_uas, exhaustive_fractions, monte_carlo_avg
from .relocation import check_copies
from .tanner import (
    BinaryMatrix,
    ParseError,
    QcMatrix,
    build_graph,
    check_no_4cycles,
    check_regular_gamma,
    expand_qc,
    parse_alist,
    parse_qc,
    write_alist,
)


class ConfigError(Exception):
    """Mutually inconsistent or invalid command arguments."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _load_matrix(path: str) -> tuple[BinaryMatrix, QcMatrix | None]:
    """Read a host matrix; the qc format is recognized by its 'qc 1' header."""
    text = _read_file(path)
    head = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if head.startswith("qc"):
        qc = parse_qc(text)
        return expand_qc(qc), qc
    return parse_alist(text), None


def _parse_uas_arg(spec: str, default_gamma: int | None) -> tuple[UasConfig, CanonicalUas | None]:
    """--uas accepts 'uas:<name>' or 'a,d1[,gamma]'."""
    if spec.startswith("uas:"):
        try:
            fixture = canonical_uas(spec[4:])
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        return fixture.config, fixture
    parts = spec.split(",")
    if len(parts) not in (2, 3):
        raise ConfigError(f"--uas expects 'a,d1[,gamma]' or 'uas:<name>', got {spec!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--uas values must be integers, got {spec!r}") from None
    gamma = nums[2] if len(nums) == 3 else default_gamma
    if gamma is None:
        raise ConfigError("--uas needs an explicit gamma when the host is irregular")
    try:
        return UasConfig(nums[0], nums[1], gamma), None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_m(m: int) -> int:
    try:
        check_copies(m)
    except ValueError as exc:
        raise ConfigError(f"--M: {exc}") from None
    return m


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze(args) -> int:
    matrix, qc = _load_matrix(args.input)
    graph = build_graph(matrix)
    gamma = check_regular_gamma(matrix)
    print(f"matrix: {matrix.n_rows} x {matrix.n_cols}, {len(matrix.entries)} entries")
    if qc is not None:
        print(f"quasi-cyclic: p={qc.p}, base {qc.m_b} x {qc.n_b}, {len(qc.circulants)} circulants")
    print(f"column weight: {gamma if gamma is not None else 'irregular'}")
    print(f"4-cycle free: {'yes' if check_no_4cycles(graph) else 'no'}")
    cycles = enumerate_cycles(graph, args.max_cycle_len)
    by_len = Counter(c.length for c in cycles)
    counts = ", ".join(f"{n}: {by_len[n]}" for n in sorted(by_len)) or "none"
    print(f"cycles up to length {args.max_cycle_len}: {len(cycles)} ({counts})")
    if args.uas is None:
        return 0
    config, _ = _parse_uas_arg(args.uas, gamma)
    if gamma is not None and config.gamma != gamma:
        raise ConfigError(f"target gamma {config.gamma} differs from host column weight {gamma}")
    instances = enumerate_uas(graph, config)
    low, high = cycle_count_bounds(config)
    print(
        f"target ({config.a}, {config.d1}): {len(instances)} instances;"
        f" d2={degree2_check_count(config)}, basic cycles={basic_cycle_count(config)},"
        f" cycle count in [{low}, {high}]"
    )
    if qc is not None and instances:
        counts_by_block = involvement_counts(instances, qc)
        print("per-circulant involvement (block_row block_col count):")
        for (bi, bj), cnt in sorted(counts_by_block.items()):
            print(f"  {bi} {bj} {cnt}")
    return 0


def _fraction_instance(args):
    """The single UAS instance named by --uas / --input."""
    if args.uas and args.uas.startswith("uas:"):
        _, fixture = _parse_uas_arg(args.uas, None)
        return fixture.config, fixture.instance(), fixture.name
    if args.input is None:
        raise ConfigError("fractions needs uas:<name> or --input with a UAS incidence file")
    if args.uas is None:
        raise ConfigError("--uas is required to classify the input instance")
    matrix, _ = _load_matrix(args.input)
    config, _ = _parse_uas_arg(args.uas, check_regular_gamma(matrix))
    instances = enumerate_uas(build_graph(matrix), config)
    if len(instances) != 1:
        raise ConfigError(
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
    header, row = TSV_HEADER, tsv_row(label, report)
    if args.oracle:
        try:
            emp = exhaustive_fractions(instance, m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
    matrix, qc = _load_matrix(args.input)
    host = qc if qc is not None else matrix
    gamma = check_regular_gamma(matrix)
    config, _ = _parse_uas_arg(args.uas, gamma)
    try:
        result = design_md(
            host, m, config, entry_granularity=args.entry_granularity
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sys.stdout.write(report_log(result.report))
    if args.out_md:
        _write_file(args.out_md, write_alist(result.h_md))
    if args.out_reloc:
        _write_file(args.out_reloc, result.relocation.to_text())
    if args.report:
        _write_file(args.report, report_tsv(result.report))
    return 0 if result.report.final_active == 0 else 10


def cmd_verify(args) -> int:
    matrix, _ = _load_matrix(args.md)
    gamma = check_regular_gamma(matrix)
    config, _ = _parse_uas_arg(args.uas, gamma)
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
        raise ConfigError(f"--threads must be between 1 and {cpus}, got {args.threads}")
    matrix, _ = _load_matrix(args.input)
    gamma = check_regular_gamma(matrix)
    config, _ = _parse_uas_arg(args.uas, gamma)
    try:
        result = monte_carlo_avg(
            matrix, config, m, args.trials, seed=args.seed, threads=args.threads
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    expected = float(result.expected)
    bound = 3 * result.std_error
    print(f"host instances: {result.host_instances}")
    print(f"trials: {result.trials}, mean: {result.mean:.6f} +/- {result.std_error:.6f}")
    print(f"expected: {result.expected} ({expected:.6f})")
    print(f"within 3 standard errors: {'yes' if abs(result.mean - expected) <= bound else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


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
    p.add_argument("--M", required=True, type=int, dest="m", help="number of copies (odd prime)")
    p.add_argument("--oracle", action="store_true", help="append exhaustive-oracle columns")
    p.set_defaults(fn=cmd_fractions)

    p = sub.add_parser("design", help="run the greedy relocation designer")
    p.add_argument("--input", required=True, help="host matrix (alist or qc format)")
    p.add_argument("--M", required=True, type=int, dest="m")
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
    p.add_argument("--M", required=True, type=int, dest="m")
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
