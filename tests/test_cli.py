"""Command-line interface: subcommands, formats, and exit codes."""

import ast
import dataclasses
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mdreloc as md
from mdreloc.cli import main

from conftest import array_host, k4_host, shared_cycle_host

GOLDEN_4_2_M5 = (
    "config\tM\tn_f\tl1\tl2\tf_nof\tf_noc_bound\tf_nou\tf_not\ts1_pct\ts2_pct\n"
    "4_2_g3\t5\t2\t2\t1\t16/25\t12/25\t24/25\t12/25\t48\t-16\n"
)
GOLDEN_4_4_M5 = (
    "config\tM\tn_f\tl1\tl2\tf_nof\tf_noc_bound\tf_nou\tf_not\ts1_pct\ts2_pct\n"
    "4_4_g4\t5\t3\t3\t3\t64/125\t24/125\t124/125\t4/5\t80\t144/5\n"
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script_target(name: str) -> tuple[str, str]:
    """The ``(module, attr)`` that ``[project.scripts]`` maps ``name`` to."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    return module.strip(), attr.strip()


@pytest.fixture
def host33(tmp_path):
    path = tmp_path / "host33.qc"
    path.write_text(md.write_qc(array_host(3, 3, 3)))
    return str(path)


@pytest.fixture
def k4file(tmp_path):
    path = tmp_path / "k4.alist"
    path.write_text(md.write_alist(k4_host()))
    return str(path)


class TestAnalyze:
    def test_qc_host_summary(self, host33, capsys):
        assert main(["analyze", "--input", host33, "--uas", "4,2"]) == 0
        out = capsys.readouterr().out
        assert "matrix: 9 x 9, 27 entries" in out
        assert "quasi-cyclic: p=3, base 3 x 3, 9 circulants" in out
        assert "column weight: 3" in out
        assert "4-cycle free: yes" in out
        assert "target (4, 2): 27 instances" in out
        assert "d2=5, basic cycles=2, cycle count in [3, 3]" in out

    def test_per_circulant_involvement(self, host33, capsys):
        assert main(["analyze", "--input", host33, "--uas", "4,2"]) == 0
        _, block = capsys.readouterr().out.split(
            "per-circulant involvement (block_row block_col count):\n"
        )
        assert block.splitlines() == [f"  {bi} {bj} 24" for bi in range(3) for bj in range(3)]

    def test_plain_alist_input(self, k4file, capsys):
        assert main(["analyze", "--input", k4file, "--uas", "4,0"]) == 0
        out = capsys.readouterr().out
        assert "matrix: 6 x 4, 12 entries" in out
        assert "target (4, 0): 1 instances" in out

    @pytest.mark.parametrize(
        "rows, cols, weight",
        [(0, 0, "none (no columns)"), (2, 0, "none (no columns)"), (0, 3, "0")],
        ids=["0x0", "2x0", "0x3"],
    )
    def test_empty_matrix(self, tmp_path, capsys, rows, cols, weight):
        path = tmp_path / "empty.alist"
        path.write_text(md.write_alist(md.BinaryMatrix(rows, cols, ())))
        assert main(["analyze", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"matrix: {rows} x {cols}, 0 entries",
            f"column weight: {weight}",
            "4-cycle free: yes",
            "cycles up to length 8: 0 (none)",
        ]

    def test_host_with_4_cycles(self, tmp_path, capsys):
        path = tmp_path / "shared.alist"
        path.write_text(md.write_alist(shared_cycle_host()))
        assert main(["analyze", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "matrix: 6 x 5, 15 entries",
            "column weight: 3",
            "4-cycle free: no",
            "cycles up to length 8: 22 (4: 3, 6: 7, 8: 12)",
        ]

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["analyze", "--input", "/definitely/not/here.qc"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["5", "2", "-4"])
    def test_bad_max_cycle_len_exits_3(self, host33, capsys, length):
        assert main(["analyze", "--input", host33, "--max-cycle-len", length]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --max-cycle-len must be an even number >= 4\n"
        assert captured.out == ""

    def test_qc_header_after_blank_lines(self, tmp_path, capsys):
        # The qc header is found after any lines the parsers skip as blank.
        path = tmp_path / "padded.qc"
        blank = b"\n \t\x0b\x0c\r\x1c\x1d\x1e\x1f\n"
        path.write_bytes(blank + md.write_qc(array_host(3, 3, 3)).encode())
        assert main(["analyze", "--input", str(path)]) == 0
        assert "quasi-cyclic: p=3, base 3 x 3, 9 circulants" in capsys.readouterr().out

    def test_corrupt_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("qc 1\np x\nrows 1 cols 1\n")
        assert main(["analyze", "--input", str(bad)]) == 2
        assert "line" in capsys.readouterr().err


class TestFractions:
    def test_golden_4_2(self, capsys):
        assert main(["fractions", "--uas", "uas:4_2_g3", "--M", "5"]) == 0
        assert capsys.readouterr().out == GOLDEN_4_2_M5

    def test_golden_4_4(self, capsys):
        assert main(["fractions", "--uas", "uas:4_4_g4", "--M", "5"]) == 0
        assert capsys.readouterr().out == GOLDEN_4_4_M5

    @pytest.mark.parametrize("name", ["4_2_g3", "4_4_g4"])
    @pytest.mark.parametrize("m_copies", ["3", "5"])
    def test_oracle_column_matches(self, name, m_copies, capsys):
        assert main(["fractions", "--uas", f"uas:{name}", "--M", m_copies, "--oracle"]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()
        assert header.endswith("emp_f_nof\temp_f_nou\temp_f_not\temp_f_noc\tmatch")
        assert row.endswith("ok")

    def test_unique_instance_host(self, k4file, capsys):
        assert main(["fractions", "--input", k4file, "--uas", "4,0", "--M", "3"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split("\t")[:5] == ["4_0_g3", "3", "3", "3", "3"]

    def test_fixture_with_input_rejected(self, k4file, capsys):
        assert main(["fractions", "--uas", "uas:4_2_g3", "--input", k4file, "--M", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: --input cannot be combined with --uas uas:<name>\n"
        assert captured.out == ""

    def test_ambiguous_host_rejected(self, host33, capsys):
        assert main(["fractions", "--input", host33, "--uas", "4,2", "--M", "3"]) == 3
        assert "instances" in capsys.readouterr().err

    def test_oversized_oracle_rejected(self, capsys):
        # 10007^2 classes x 10007^3 potentials, far past the checking limit:
        # a configuration error before any work, not a traceback.
        assert main(["fractions", "--uas", "uas:4_2_g3", "--M", "10007"]) == 0
        capsys.readouterr()
        assert main(["fractions", "--uas", "uas:4_2_g3", "--M", "10007", "--oracle"]) == 3
        captured = capsys.readouterr()
        assert "checking limit" in captured.err
        assert captured.out == ""

    def test_cycle_free_instance_exits_3(self, tmp_path, capsys):
        # Two VNs under one check: a (2,0) set with no cycle to relocate.
        path = tmp_path / "pair.alist"
        path.write_text(md.write_alist(md.BinaryMatrix.from_entries(1, 2, [(0, 0), (0, 1)])))
        assert main(["fractions", "--input", str(path), "--uas", "2,0,1", "--M", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: need at least one basic cycle\n"
        assert captured.out == ""

    def test_huge_prime_m_refused(self, capsys):
        # Both are prime; the 2^32 bound is tested before primality.
        for m in (2**32 + 15, 2**61 - 1):
            t0 = time.perf_counter()
            assert main(["fractions", "--uas", "uas:4_2_g3", "--M", str(m)]) == 3
            assert time.perf_counter() - t0 < 1.0
            assert capsys.readouterr() == ("", f"error: --M: number of copies {m} must be below 2^32\n")

    def test_prime_m_far_past_the_bound_refused(self, capsys):
        # 2^89 - 1 is prime and past the range where 13 Miller-Rabin witnesses are exact.
        t0 = time.perf_counter()
        assert main(["fractions", "--uas", "uas:4_2_g3", "--M", str(2**89 - 1)]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == ("", f"error: --M: number of copies {2**89 - 1} must be below 2^32\n")

    def test_composite_m_rejected(self, capsys):
        assert main(["fractions", "--uas", "uas:4_2_g3", "--M", "4"]) == 3
        assert "odd prime" in capsys.readouterr().err

    def test_unknown_fixture_lists_options(self, capsys):
        assert main(["fractions", "--uas", "uas:9_9_g9", "--M", "3"]) == 3
        err = capsys.readouterr().err
        assert "4_2_g3" in err and "4_4_g4" in err


class TestDesignVerify:
    def test_round_trip(self, host33, tmp_path, capsys):
        md_path = str(tmp_path / "out.alist")
        reloc_path = str(tmp_path / "out.reloc")
        report_path = str(tmp_path / "report.tsv")
        rc = main([
            "design", "--input", host33, "--uas", "4,2", "--M", "3",
            "--out-md", md_path, "--out-reloc", reloc_path, "--report", report_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final active instances: 0" in out

        emitted = md.parse_alist(Path(md_path).read_text())
        reloc = md.parse_reloc(Path(reloc_path).read_text(), array_host(3, 3, 3))
        assert md.assemble_md(reloc) == emitted
        report = Path(report_path).read_text()
        assert report.splitlines()[1].split("\t")[5] == "0"

        assert main(["verify", "--md", md_path, "--uas", "4,2", "--expect", "0"]) == 0
        assert "instances: 0" in capsys.readouterr().out

    def test_copies_beyond_one_word_exit_3(self, host33, capsys):
        # Both are prime; the design would build lists of M - 1 values.
        for m in (2**32 + 15, 2**61 - 1):
            t0 = time.perf_counter()
            assert main(["design", "--input", host33, "--M", str(m), "--uas", "4,2"]) == 3
            assert time.perf_counter() - t0 < 1.0
            assert capsys.readouterr() == ("", f"error: --M: number of copies {m} must be below 2^32\n")

    def test_verify_mismatch_exits_11(self, host33, capsys):
        rc = main(["verify", "--md", host33, "--uas", "4,2", "--expect", "0"])
        assert rc == 11
        captured = capsys.readouterr()
        assert "instances: 27" in captured.out

    def test_verify_without_expect_reports_count(self, k4file, capsys):
        assert main(["verify", "--md", k4file, "--uas", "4,0"]) == 0
        assert "instances: 1" in capsys.readouterr().out

    def test_verify_rejects_wrong_gamma(self, host33, tmp_path, capsys):
        md_path = str(tmp_path / "out.alist")
        assert main(["design", "--input", host33, "--uas", "4,2", "--M", "3", "--out-md", md_path]) == 0
        capsys.readouterr()
        rc = main(["verify", "--md", md_path, "--uas", "4,2,4", "--expect", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "target gamma 4 differs from host column weight 3" in captured.err
        assert captured.out == ""

    def test_verify_irregular_host_with_explicit_gamma(self, tmp_path, capsys):
        # K4 plus a fifth column of weight 1: irregular, one (4, 0, 3) set.
        host = k4_host()
        irregular = md.BinaryMatrix.from_entries(6, 5, list(host.entries) + [(0, 4)])
        path = tmp_path / "irregular.alist"
        path.write_text(md.write_alist(irregular))
        assert main(["verify", "--md", str(path), "--uas", "4,0,3", "--expect", "1"]) == 0
        assert capsys.readouterr().out == "(4, 0) instances: 1\n"
        assert main(["verify", "--md", str(path), "--uas", "4,0"]) == 3
        assert "explicit gamma" in capsys.readouterr().err

    def test_design_irregular_host_exits_3(self, tmp_path, capsys):
        host = k4_host()
        irregular = md.BinaryMatrix.from_entries(6, 5, list(host.entries) + [(0, 4)])
        path = tmp_path / "irregular.alist"
        path.write_text(md.write_alist(irregular))
        assert main(["design", "--input", str(path), "--uas", "4,0,3", "--M", "3"]) == 3
        captured = capsys.readouterr()
        assert "host column weights are irregular" in captured.err
        assert "None" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--input", "{}", "--uas", "4,2"],
             "--uas needs an explicit gamma when the host has no columns"),
            (["verify", "--md", "{}", "--uas", "4,2"],
             "--uas needs an explicit gamma when the host has no columns"),
            (["design", "--input", "{}", "--uas", "4,2,3", "--M", "3"],
             "host has no columns; target gamma 3 needs a regular host"),
        ],
        ids=["analyze", "verify", "design"],
    )
    def test_host_without_columns_exits_3(self, tmp_path, capsys, argv, message):
        path = tmp_path / "empty.alist"
        path.write_text(md.write_alist(md.BinaryMatrix(2, 0, ())))
        assert main([str(path) if arg == "{}" else arg for arg in argv]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_readme_design_and_verify_examples(self, host33, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        monkeypatch.chdir(Path(host33).parent)
        for command in ("design", "verify"):
            # The command may continue over lines that end in a backslash.
            block = re.search(
                rf"```text\n\$ mdreloc {command} (.*?[^\\])\n(.*?)```", readme, re.S
            )
            argv = [command, *block.group(1).replace("\\\n", " ").split()]
            assert main(argv) == 0
            assert capsys.readouterr().out == block.group(2), command

    def test_incomplete_design_exits_10(self, host33, tmp_path, monkeypatch, capsys):
        import mdreloc.cli as cli_mod

        real = md.design_md

        def stubbed(host, m_copies, config, **kwargs):
            res = real(host, m_copies, config, **kwargs)
            report = dataclasses.replace(res.report, final_active=3, od_active_final=1)
            return dataclasses.replace(res, report=report)

        monkeypatch.setattr(cli_mod, "design_md", stubbed)
        report_path = str(tmp_path / "report.tsv")
        rc = main([
            "design", "--input", host33, "--uas", "4,2", "--M", "3",
            "--report", report_path,
        ])
        assert rc == 10
        assert "final active instances: 3" in capsys.readouterr().out
        assert Path(report_path).read_text().splitlines()[1].split("\t")[5] == "3"

    def test_entry_granularity_flag(self, host33, tmp_path, capsys):
        reloc_path = str(tmp_path / "entry.reloc")
        rc = main([
            "design", "--input", host33, "--uas", "4,2", "--M", "3",
            "--entry-granularity", "--out-reloc", reloc_path,
        ])
        assert rc == 0
        capsys.readouterr()
        text = Path(reloc_path).read_text()
        assert text.startswith("reloc M=3 granularity=entry")

    def test_entry_granularity_designs_the_expanded_host(self, host33, tmp_path, capsys):
        alist = tmp_path / "host33.alist"
        alist.write_text(md.write_alist(md.expand_qc(md.parse_qc(Path(host33).read_text()))))
        runs = []
        for name, argv in [("qc", [host33, "--entry-granularity"]), ("alist", [str(alist)])]:
            outs = [str(tmp_path / f"{name}.{ext}") for ext in ("md", "reloc", "tsv")]
            rc = main(["design", "--input", *argv, "--uas", "4,2", "--M", "3",
                       "--out-md", outs[0], "--out-reloc", outs[1], "--report", outs[2]])
            runs.append((rc, capsys.readouterr().out, *(Path(p).read_bytes() for p in outs)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--input"],
    ["verify", "--md"],
    ["design", "--M", "3", "--input"],
    ["oracle", "--M", "3", "--input"],
    ["fractions", "--M", "3", "--input"],
])
def test_target_gamma_mismatch_exits_3(k4file, capsys, argv):
    # The gamma-3 K4 against a gamma-4 target: every subcommand refuses it the same way.
    assert main([*argv, k4file, "--uas", "4,0,4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: target gamma 4 differs from host column weight 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--input", "{}", "--uas", "4"],
     "--uas expects 'a,d1[,gamma]' or 'uas:<name>', got '4'"),
    (["analyze", "--input", "{}", "--uas", "4,2,3,1"],
     "--uas expects 'a,d1[,gamma]' or 'uas:<name>', got '4,2,3,1'"),
    (["analyze", "--input", "{}", "--uas", "4,x"], "--uas values must be integers, got '4,x'"),
    (["analyze", "--input", "{}", "--uas", "1,3,3"],
     "d1 too large: some VN would have at least as many degree-1 as degree-2 check neighbours"),
    (["fractions", "--M", "3"], "fractions needs uas:<name> or --input with a UAS incidence file"),
    (["fractions", "--M", "3", "--input", "{}"], "--uas is required to classify the input instance"),
], ids=["uas-arity-short", "uas-arity-long", "uas-integer", "uas-d1", "fractions-nothing",
        "fractions-no-uas"])
def test_argument_rejections_exit_3(k4file, capsys, argv, message):
    assert main([k4file if arg == "{}" else arg for arg in argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, name", [
    (["verify", "--md", "{}", "--uas", "4,0"], "enumerate_md_uas"),
    (["analyze", "--input", "{}"], "enumerate_cycles"),
    (["analyze", "--input", "{}", "--uas", "4,0"], "enumerate_uas"),
], ids=["verify", "analyze-cycles", "analyze-target"])
def test_library_value_error_exits_3(k4file, monkeypatch, capsys, argv, name):
    # main alone maps a ValueError that escapes a subcommand to exit 3.
    import mdreloc.cli as cli_mod

    def refuse(*args, **kwargs):
        raise ValueError(f"{name} refused")

    monkeypatch.setattr(cli_mod, name, refuse)
    assert main([k4file if arg == "{}" else arg for arg in argv]) == 3
    assert capsys.readouterr().err == f"error: {name} refused\n"


def test_one_parser_serves_every_call(k4file, capsys):
    # main builds its parser once per process; an option given in one call
    # (--expect) must not carry over to the next.
    import mdreloc.cli as cli_mod

    calls = [
        ["verify", "--md", k4file, "--uas", "4,0", "--expect", "2"],
        ["analyze", "--input", k4file, "--uas", "4,0"],
        ["verify", "--md", k4file, "--uas", "4,0"],
        ["verify", "--md", k4file, "--uas", "5"],
    ]

    def run(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                cli_mod._build_parser.cache_clear()
            outputs.append((main(argv), capsys.readouterr()))
        return outputs

    reused = run(fresh=False)
    assert [code for code, _ in reused] == [11, 0, 0, 3]
    assert reused == run(fresh=True)
    assert cli_mod._build_parser() is cli_mod._build_parser()


class TestOracle:
    def test_reports_agreement(self, k4file, capsys):
        rc = main([
            "oracle", "--input", k4file, "--uas", "4,0", "--M", "3",
            "--trials", "400", "--seed", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "host instances: 1" in out
        assert "expected: 1/9" in out
        assert "within 3 standard errors: yes" in out

    def test_cycle_free_instance(self, tmp_path, capsys):
        # A (2,0) pair has no cycle to break, so every trial keeps all M copies.
        path = tmp_path / "pair.alist"
        path.write_text(md.write_alist(md.BinaryMatrix.from_entries(1, 2, [(0, 0), (0, 1)])))
        rc = main(["oracle", "--input", str(path), "--uas", "2,0,1", "--M", "3", "--trials", "5"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "trials: 5, mean: 3.000000 +/- 0.000000" in captured.out
        assert "expected: 3 (3.000000)" in captured.out
        assert captured.err == ""

    def test_seed_changes_mean(self, k4file, capsys):
        means = []
        for seed in ("1", "2"):
            assert main([
                "oracle", "--input", k4file, "--uas", "4,0", "--M", "3",
                "--trials", "60", "--seed", seed,
            ]) == 0
            line = next(
                ln for ln in capsys.readouterr().out.splitlines() if "mean" in ln
            )
            means.append(line)
        assert means[0] != means[1]

    def test_readme_example(self, k4file, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```text\n\$ mdreloc oracle (.*?)\n(.*?)```", readme, re.S)
        argv = ["oracle", *block.group(1).split()]
        argv[argv.index("--input") + 1] = k4file
        assert main(argv) == 0
        assert capsys.readouterr().out == block.group(2)

    def test_composite_m_rejected(self, k4file, capsys):
        rc = main(["oracle", "--input", k4file, "--uas", "4,0", "--M", "4", "--trials", "10"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "odd prime" in captured.err
        assert captured.out == ""

    def test_copies_beyond_one_word_exit_3(self, k4file, capsys):
        for m in (2**32 + 15, 2**61 - 1):
            t0 = time.perf_counter()
            assert main(["oracle", "--input", k4file, "--uas", "4,0", "--M", str(m), "--trials", "10"]) == 3
            assert time.perf_counter() - t0 < 1.0
            assert capsys.readouterr() == ("", f"error: --M: number of copies {m} must be below 2^32\n")

    @pytest.fixture
    def no_pool(self, monkeypatch):
        """Two CPUs, and a process pool that fails the test if it is built."""
        import mdreloc.oracle as oracle_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(oracle_mod, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("threads", ["0", "-1", "3", "1000000"])
    def test_thread_count_bounded(self, k4file, capsys, no_pool, threads):
        rc = main([
            "oracle", "--input", k4file, "--uas", "4,0", "--M", "3",
            "--trials", "10", "--threads", threads,
        ])
        assert rc == 3
        captured = capsys.readouterr()
        assert "--threads must be between 1 and 2" in captured.err
        assert captured.out == ""

    def test_shared_cycle_host_rejected(self, tmp_path, capsys):
        path = tmp_path / "shared.alist"
        path.write_text(md.write_alist(shared_cycle_host()))
        rc = main(["oracle", "--input", str(path), "--uas", "4,0", "--M", "3", "--trials", "10"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == "error: instances 0 and 1 share a cycle\n"
        assert captured.out == ""

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_too_few_trials(self, k4file, capsys, trials):
        rc = main([
            "oracle", "--input", k4file, "--uas", "4,0", "--M", "3", "--trials", trials,
        ])
        assert rc == 3
        captured = capsys.readouterr()
        assert "at least 2 trials" in captured.err
        assert "within 3 standard errors" not in captured.out


class TestEntryPoints:
    @pytest.fixture
    def source_env(self):
        """Environment whose PYTHONPATH puts the imported mdreloc tree first.

        Subprocesses then run the same source the test process imported,
        not some other installed copy.
        """
        src = str(Path(md.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def test_module_invocation(self, k4file, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "verify", "--md", k4file, "--uas", "4,0"],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 0
        assert "instances: 1" in proc.stdout

    def test_console_script(self, k4file, source_env):
        # Run the [project.scripts] target through the same shim that an
        # installer writes into the generated `mdreloc` executable.
        module, attr = console_script_target("mdreloc")
        shim = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'mdreloc'; sys.exit({attr}())"
        )

        def run(*args):
            return subprocess.run(
                [sys.executable, "-c", shim, *args],
                capture_output=True, text=True, env=source_env,
            )

        proc = run("analyze", "--input", k4file)
        assert proc.returncode == 0, proc.stderr
        assert "matrix: 6 x 4" in proc.stdout
        # A nonzero code must travel through main's return value.
        assert run("analyze", "--input", k4file + ".missing").returncode == 2

    @pytest.mark.skipif(
        shutil.which("mdreloc") is None, reason="mdreloc console script is not installed"
    )
    def test_installed_console_script(self, k4file, source_env):
        proc = subprocess.run(
            ["mdreloc", "analyze", "--input", k4file],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "matrix: 6 x 4" in proc.stdout

    def test_copies_beyond_one_word_exit_3_without_traceback(self, host33, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "design", "--input", host33, "--M", str(2**61 - 1), "--uas", "4,2"],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: --M: number of copies 2305843009213693951 must be below 2^32\n"
        assert proc.stdout == ""

    def test_out_of_memory_exits_3_without_traceback(self, host33, source_env):
        # 2^32 - 5 is the largest prime the bound admits; its design lists M - 1 values.
        # Every run is capped at 2 GiB of address space, so the test never allocates them.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        def design(m):
            return subprocess.run(
                [sys.executable, "-m", "mdreloc", "design", "--input", host33, "--M", str(m), "--uas", "4,2"],
                capture_output=True, text=True, env=source_env, preexec_fn=cap, timeout=60,
            )

        proc = design(2**32 - 5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")
        proc = design(3)
        assert proc.returncode == 0, proc.stderr
        assert "final active instances: 0" in proc.stdout

    def test_closed_pipe_exits_quietly(self, host33, source_env):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdreloc", "analyze", "--input", host33, "--uas", "4,2,3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env,
        )
        # Close the read end before the first write: every write then fails.
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        err = err.decode()
        assert proc.returncode == 141, err
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    @pytest.mark.parametrize("flag", ["--out-md", "--out-reloc", "--report"])
    def test_unwritable_output_exits_3(self, host33, tmp_path, source_env, flag):
        target = str(tmp_path / "missing" / "out.txt")
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "design", "--input", host33, "--uas", "4,2",
             "--M", "3", flag, target],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"
        assert "Traceback" not in proc.stderr

    def test_design_notes_only_in_log(self, tmp_path, source_env):
        # A host with 4-cycles: the note reaches the log once, and no
        # Python warning reaches stderr.
        shifts = [[0, 2, 0], [1, 0, 1], [1, 1, 2]]
        path = tmp_path / "host4c.qc"
        path.write_text(md.write_qc(md.QcMatrix.from_blocks(
            3, 3, 3, {(i, j): shifts[i][j] for i in range(3) for j in range(3)})))
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "design", "--input", str(path), "--uas", "4,2",
             "--M", "3"],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.count("4-cycles") == 1
        assert "warning: host has 4-cycles; cycle-length guarantees do not apply\n" in proc.stdout

    def test_fractions_without_chained_basis_exits_3(self, tmp_path, source_env):
        # The (4,2) instance on VNs (0, 1, 3, 5) of a 3x3 p=3 host with
        # 4-cycles: its degree-2 part holds two 4-cycles with no common
        # check, so its basic cycles cannot be ordered so that consecutive
        # cycles share a check node, and the closed form does not apply.
        shifts = [[0, 2, 0], [1, 0, 1], [1, 1, 2]]
        host = md.expand_qc(md.QcMatrix.from_blocks(
            3, 3, 3, {(i, j): shifts[i][j] for i in range(3) for j in range(3)}))
        vns = (0, 1, 3, 5)
        rows = sorted({r for r, c in host.entries if c in vns})
        inst = md.BinaryMatrix.from_entries(len(rows), len(vns), [
            (rows.index(r), vns.index(c)) for r, c in host.entries if c in vns])
        (uas,) = md.enumerate_uas(md.build_graph(inst), md.UasConfig(4, 2, 3))
        first, second = md.enumerate_cycles(uas.deg2_subgraph(), max_len=8)
        assert (first.length, second.length) == (4, 4)
        assert not first.cns & second.cns
        path = tmp_path / "inst.alist"
        path.write_text(md.write_alist(inst))
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "fractions", "--uas", "4,2,3", "--M", "3",
             "--input", str(path)],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: no ordering with consecutive cycles sharing a check node\n"
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["analyze --input", "verify --uas 4,0 --md"])
    def test_non_ascii_input_exits_2(self, k4file, source_env, command):
        path = Path(k4file)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", *command.split(), k4file],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: line 3: non-ASCII byte 0xff\n"
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_usage_error_exits_2(self, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "verify", "--uas", "4,2"],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 2


class TestReadmeLibrary:
    def test_block_results(self):
        """Run the README Library block; each commented expression must repr as its comment."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        source = re.search(r"## Library.*?```python\n(.*?)```", readme, re.S).group(1)
        lines = source.splitlines()
        scope: dict = {}
        seen = []
        for node in ast.parse(source).body:
            comment = lines[node.end_lineno - 1].partition("#")[2]
            if not (isinstance(node, ast.Expr) and comment):
                exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
                continue
            expected = comment.split(":")[0].strip()
            assert repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)) == expected
            seen.append(expected)
        assert seen == ["((4, 2), (4, 2), (4, 2))", "0", "Fraction(24, 25)", "0", "0"]
