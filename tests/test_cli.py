"""Command-line interface: subcommands, formats, and exit codes."""

import dataclasses
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mdreloc as md
from mdreloc.cli import main

from conftest import array_host, k4_host

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

    def test_plain_alist_input(self, k4file, capsys):
        assert main(["analyze", "--input", k4file, "--uas", "4,0"]) == 0
        out = capsys.readouterr().out
        assert "matrix: 6 x 4, 12 entries" in out
        assert "target (4, 0): 1 instances" in out

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["analyze", "--input", "/definitely/not/here.qc"]) == 2
        assert "error:" in capsys.readouterr().err

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

        emitted = md.parse_alist(open(md_path).read())
        host = md.expand_qc(array_host(3, 3, 3))
        reloc = md.parse_reloc(open(reloc_path).read(), host, qc=array_host(3, 3, 3))
        assert md.assemble_md(host, reloc) == emitted
        report = open(report_path).read()
        assert report.splitlines()[1].split("\t")[5] == "0"

        assert main(["verify", "--md", md_path, "--uas", "4,2", "--expect", "0"]) == 0
        assert "instances: 0" in capsys.readouterr().out

    def test_verify_mismatch_exits_11(self, host33, capsys):
        rc = main(["verify", "--md", host33, "--uas", "4,2", "--expect", "0"])
        assert rc == 11
        captured = capsys.readouterr()
        assert "instances: 27" in captured.out

    def test_verify_without_expect_reports_count(self, k4file, capsys):
        assert main(["verify", "--md", k4file, "--uas", "4,0"]) == 0
        assert "instances: 1" in capsys.readouterr().out

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
        assert open(report_path).read().splitlines()[1].split("\t")[5] == "3"

    def test_entry_granularity_flag(self, host33, tmp_path, capsys):
        reloc_path = str(tmp_path / "entry.reloc")
        rc = main([
            "design", "--input", host33, "--uas", "4,2", "--M", "3",
            "--entry-granularity", "--out-reloc", reloc_path,
        ])
        assert rc == 0
        capsys.readouterr()
        text = open(reloc_path).read()
        assert text.startswith("reloc M=3 granularity=entry")


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

    def test_usage_error_exits_2(self, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "mdreloc", "verify", "--uas", "4,2"],
            capture_output=True, text=True, env=source_env,
        )
        assert proc.returncode == 2
