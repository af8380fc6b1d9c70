import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entdetect import aggregate
from entdetect.cli import _workers, build_parser, cmd_bounds, cmd_scan_rank, main
from entdetect.harness import find_orphans, render_csv, stats_row
from entdetect.verify import run_checks

SRC = Path(__file__).resolve().parent.parent / "src"
SCAN = ["scan-rank", "--d1", "2", "--d2", "3", "--k", "2", "--samples", "5"]


def read_csv(path):
    with open(path, newline="") as fh:
        return fh.read()


def assert_missing_flag(capsys, argv, flag):
    """``argv`` lacks the required ``flag``: argparse's usage error, status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "the following arguments are required" in err and flag in err
    assert "Traceback" not in err


class TestSharedParser:
    """main parses every argv against one parser per process; a parse
    leaves no state on it."""

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_parses_are_independent(self):
        scan = build_parser().parse_args(SCAN + ["--out", "elsewhere"])
        bounds = build_parser().parse_args(["bounds", "--d1", "2", "--d2", "5"])
        assert (scan.func, scan.out, scan.samples) == (cmd_scan_rank, "elsewhere", 5)
        assert vars(bounds) == {"command": "bounds", "d1": 2, "d2": 5, "func": cmd_bounds}
        again = build_parser().parse_args(SCAN)
        assert (again.out, again.seed) == ("runs", 42) and again is not scan

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-rank", "--d1", "2", "--d2", "x", "--k", "2"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main(["bounds", "--d1", "2", "--d2", "5"]) == 0
        assert capsys.readouterr().out.startswith("bounds for 2x5\n")

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in (
            "scan-rank", "scan-dim", "asymmetry", "bounds", "verify")),
    ], ids=" ".join)
    def test_help_is_an_uncached_parsers(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        helps = []
        for parse in (main, build_parser.__wrapped__().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out.encode())
        assert helps[0].startswith(b"usage: entdetect")
        assert helps[0] == helps[1] == helps[2]


class TestScanRank:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        rc = main([
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2..3",
            "--samples", "150", "--seed", "4", "--out", str(tmp_path),
        ])
        assert rc == 0
        body = read_csv(tmp_path / "scan_rank_2x3.csv")
        lines = body.strip().split("\r\n")
        assert len(lines) == 3
        assert lines[0].startswith("d1,d2,k,n,n_npt,pt_F")
        assert os.path.exists(tmp_path / "scan_rank_2x3.manifest.json")

    def test_eps_reaches_aggregate_once(self, tmp_path, capsys, records_2x5_k8):
        main([
            "scan-rank", "--d1", "2", "--d2", "5", "--k", "8", "--samples", "2000",
            "--seed", "42", "--eps", "1e-2", "--out", str(tmp_path),
        ])
        expected = render_csv([stats_row(aggregate(records_2x5_k8, (2, 5, 8), 1e-2))])
        assert read_csv(tmp_path / "scan_rank_2x5.csv") == expected

    def test_rerun_is_noop(self, tmp_path, capsys):
        args = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "120", "--seed", "4", "--out", str(tmp_path),
        ]
        main(args)
        before = os.path.getmtime(tmp_path / "scan_rank_2x3.csv")
        capsys.readouterr()
        main(args)
        assert "skipping" in capsys.readouterr().out
        assert os.path.getmtime(tmp_path / "scan_rank_2x3.csv") == before

    def test_manifest_describes_the_run(self, tmp_path, capsys):
        args = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2..3",
            "--samples", "120", "--seed", "4", "--out", str(tmp_path),
        ]
        main(args + ["--workers", "1"])
        manifest = json.loads((tmp_path / "scan_rank_2x3.manifest.json").read_text())
        run = manifest["run"]
        assert set(run) == {
            "workers", "cpus", "python", "numpy", "blas", "wall_s", "states_per_s",
        }
        assert run["workers"] == 1 and run["cpus"] >= 1
        assert run["python"] == platform.python_version()
        assert run["numpy"] == np.__version__
        assert set(run["blas"]) == {"name", "version"}
        assert run["wall_s"] > 0
        assert run["states_per_s"] == pytest.approx(240 / run["wall_s"])
        # the worker count is not part of the configuration the cache checks
        capsys.readouterr()
        main(args + ["--workers", "2"])
        assert "skipping" in capsys.readouterr().out

    def test_corrupt_csv_is_recomputed(self, tmp_path, capsys):
        args = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "120", "--seed", "4", "--out", str(tmp_path),
        ]
        main(args)
        first = read_csv(tmp_path / "scan_rank_2x3.csv")
        # not UTF-8, under the first run's intact manifest
        (tmp_path / "scan_rank_2x3.csv").write_bytes(b"\xff\xfebad")
        assert find_orphans(str(tmp_path)) == ["scan_rank_2x3.csv"]
        capsys.readouterr()
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert "wrote" in out and "Traceback" not in err
        assert read_csv(tmp_path / "scan_rank_2x3.csv") == first
        assert find_orphans(str(tmp_path)) == []

    def test_missing_flag_rejected(self, tmp_path, capsys):
        assert_missing_flag(capsys, ["scan-rank", "--d1", "2", "--k", "2",
                                     "--out", str(tmp_path)], "--d2")
        assert os.listdir(tmp_path) == []


class TestScanDim:
    def test_rows_keyed_by_d2(self, tmp_path):
        main([
            "scan-dim", "--d1", "2", "--k", "3", "--d2", "3..4",
            "--samples", "120", "--seed", "4", "--out", str(tmp_path),
        ])
        lines = read_csv(tmp_path / "scan_dim_d12_k3.csv").strip().split("\r\n")
        assert [line.split(",")[1] for line in lines[1:]] == ["3", "4"]

    def test_rank_range_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan-dim", "--d1", "2", "--k", "2..3", "--d2", "3",
                  "--out", str(tmp_path)])

    def test_missing_flag_rejected(self, tmp_path, capsys):
        assert_missing_flag(capsys, ["scan-dim", "--d1", "2", "--d2", "3..4",
                                     "--out", str(tmp_path)], "--k")
        assert os.listdir(tmp_path) == []


class TestAsymmetry:
    def test_factorizations_at_extreme_ranks(self, tmp_path):
        main([
            "asymmetry", "--d12", "12", "--samples", "120", "--seed", "4",
            "--out", str(tmp_path),
        ])
        lines = read_csv(tmp_path / "asymmetry_12.csv").strip().split("\r\n")
        assert lines[0].startswith("d12,d1,d2,k,n,n_npt")
        keys = [tuple(line.split(",")[:4]) for line in lines[1:]]
        assert keys == [
            ("12", "2", "6", "2"), ("12", "2", "6", "12"),
            ("12", "3", "4", "2"), ("12", "3", "4", "12"),
        ]

    def test_prime_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["asymmetry", "--d12", "13", "--out", str(tmp_path)])

    def test_single_factorization_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["asymmetry", "--d12", "4", "--out", str(tmp_path)])

    def test_missing_flag_rejected(self, tmp_path, capsys):
        assert_missing_flag(capsys, ["asymmetry", "--samples", "5",
                                     "--out", str(tmp_path)], "--d12")
        assert os.listdir(tmp_path) == []


class TestBounds:
    def test_report_values(self, capsys):
        assert main(["bounds", "--d1", "2", "--d2", "5"]) == 0
        out = capsys.readouterr().out
        assert "entropy_rank_threshold   5" in out
        assert "realignment_rank_bound   6.5" in out

    @pytest.mark.parametrize("d1, d2, digest", [
        (2, 5, "8c3bbb58662cdebd33f1add437b709be88e4ad934c678da07f3642b562a7e32f"),
        (2, 8, "469d166b1fcaf1740450a4a1ccdfe50064d291b481e33fbd224bba4e52a7da57"),
        (12, 12, "44a7b09a8ae0054ac82e0fa689a00573d8dd7ec75b35fbe21d5a6ad5aa7b97d3"),
        (20, 20, "5ced06b1b33a9bff68ded43f059d54a26ab533113327eeec03ece7c0b29ed9b2"),
    ])
    def test_report_bytes(self, capsys, d1, d2, digest):
        # sha256 of the report as printed when the Page entropies were
        # summed term by term: the harmonic form changes no printed digit.
        assert main(["bounds", "--d1", str(d1), "--d2", str(d2)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_equal_dims_vacuous(self, capsys):
        main(["bounds", "--d1", "3", "--d2", "3"])
        assert "vacuous (equal dimensions)" in capsys.readouterr().out

    def test_missing_flag_rejected(self, capsys):
        assert_missing_flag(capsys, ["bounds", "--d2", "5"], "--d1")

    def test_reader_closing_early_is_quiet(self):
        # Unbuffered, every line is its own write, so the first write after
        # the reader has gone fails. The 3600 rank lines of 60x60 (~180 KB)
        # overfill the pipe's buffer, so bounds is still printing when the
        # pipe closes, however fast it computes them.
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "entdetect.cli", "bounds", "--d1", "60", "--d2", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"bounds for 60x60\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""


class TestVerify:
    def test_passes_on_default_run(self, capsys):
        assert main(["verify", "--samples", "120", "--seed", "8"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "prop3_verdict_agreement" in out
        for r in run_checks(samples=120, master_seed=8):
            assert type(r.passed) is bool and type(r.margin) is float

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--criteria", "pt"], ["--out", "x"]])
    def test_sweep_flags_rejected(self, capsys, monkeypatch, flag):
        def evaluated(*args, **kwargs):
            raise AssertionError("a state was evaluated")

        monkeypatch.setattr("entdetect.verify.evaluate_state", evaluated)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "12"] + flag)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "unrecognized arguments" in err and "Traceback" not in err


def test_serial_run_loads_no_pool_machinery():
    # concurrent.futures.process pulls in multiprocessing; a command that
    # starts no pool should import neither.
    code = (
        "import sys\n"
        "import entdetect.cli as cli\n"
        "cli.run_cell(2, 5, 2, 1, 42)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestWorkersEnv:
    """The worker count comes from --workers alone; the process
    environment has no say in it."""

    def test_worker_count_keeps_results_identical(self, tmp_path, capsys):
        args = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "300", "--seed", "4",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b"), "--workers", "4"])
        assert read_csv(tmp_path / "a" / "scan_rank_2x3.csv") == read_csv(
            tmp_path / "b" / "scan_rank_2x3.csv"
        )

    def test_environment_does_not_override_the_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ENTDETECT_WORKERS", "4")
        main([
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2", "--samples", "5",
            "--workers", "1", "--out", str(tmp_path),
        ])
        manifest = json.loads((tmp_path / "scan_rank_2x3.manifest.json").read_text())
        assert manifest["run"]["workers"] == 1

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        args = argparse.Namespace(workers="auto")
        # as under taskset -c 0 on a machine with more CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _workers(args) == 1
        # a platform without affinity masks
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _workers(args) == 4

    @pytest.mark.parametrize("workers", ["0", "abc", "-3", "2.5"])
    def test_bad_worker_count_rejected(self, tmp_path, workers):
        with pytest.raises(SystemExit) as exc:
            main(SCAN + ["--workers", workers, "--out", str(tmp_path)])
        message = str(exc.value.code)
        assert "worker count" in message and "\n" not in message
        assert not os.path.exists(tmp_path / "scan_rank_2x3.csv")


@pytest.mark.parametrize("argv", [
    ["scan-rank", "--d1", "2", "--d2", "3", "--k", "2", "--samples", "0"],
    ["scan-rank", "--d1", "2", "--d2", "3", "--k", "99", "--samples", "5"],
    ["scan-rank", "--d1", "2", "--d2", "3", "--k", "abc", "--samples", "5"],
    ["scan-rank", "--d1", "2", "--d2", "3", "--k", "2..x", "--samples", "5"],
    ["scan-rank", "--d1", "1", "--d2", "3", "--k", "2", "--samples", "5"],
    SCAN + ["--seed", "-1"],
    SCAN + ["--eps", "-1"],
    SCAN + ["--eps", "nan"],
    ["bounds", "--d1", "1", "--d2", "5"],
    ["asymmetry", "--d12", "-5", "--samples", "5"],
    ["asymmetry", "--d12", "0", "--samples", "5"],
    ["verify", "--samples", "12", "--eps", "-1"],
    ["verify", "--samples", "12", "--seed", "-1"],
    ["verify", "--samples", "0"],
    ["verify", "--samples", "-5"],
    ["verify", "--samples", "99999999999999999999"],
    SCAN[:-1] + ["99999999999999999999", "--workers", "2"],
], ids=" ".join)
def test_bad_numeric_input_is_one_line_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(tmp_path)] if argv[0] not in ("bounds", "verify") else []))
    message = exc.value.code
    # a string code exits with status 1 and prints that one line
    assert isinstance(message, str) and message and "\n" not in message
    assert "Traceback" not in message + capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", [["--config", "f.json"], ["--criteria", "pt"]], ids=" ".join)
@pytest.mark.parametrize("argv", [
    SCAN, ["scan-dim", "--d1", "2", "--d2", "3", "--k", "2", "--samples", "5"],
    ["asymmetry", "--d12", "12", "--samples", "5"],
], ids=lambda argv: argv[0])
def test_removed_flags_are_unrecognized(tmp_path, capsys, monkeypatch, argv, flag):
    # Every flag comes from the command line, and each sweep writes all
    # of CSV_COLUMNS: neither a config file nor a column filter is read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps({"samples": 7}))
    with pytest.raises(SystemExit) as exc:
        main(argv + flag + ["--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["f.json"]


def test_out_under_a_file_is_one_line_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "runs")
    with pytest.raises(SystemExit) as exc:
        main(SCAN + ["--out", out])
    message = exc.value.code
    assert isinstance(message, str) and out in message and "\n" not in message
    assert "Traceback" not in capsys.readouterr().err


def test_failed_write_is_one_line_error(tmp_path, capsys):
    # The sweep runs, then the CSV cannot replace the directory in its place.
    out = str(tmp_path / "runs")
    os.makedirs(os.path.join(out, "scan_rank_2x3.csv"))
    with pytest.raises(SystemExit) as exc:
        main(SCAN + ["--out", out])
    message = exc.value.code
    assert isinstance(message, str) and out in message and "\n" not in message
    assert "Traceback" not in capsys.readouterr().err


# sha256 of whole CSV bodies: a change to sampling, the criteria,
# aggregation or the CSV format, down to the last printed digit, shows here.
GOLDEN = {
    "scan_rank_2x5.csv": (
        ["scan-rank", "--d1", "2", "--d2", "5", "--k", "2..10",
         "--samples", "200", "--seed", "42"],
        "0a84017ae9b6cc8d608dcc48265d4939051c47999c537c12b00d9e7d56d3d06f",
    ),
    "asymmetry_12.csv": (
        ["asymmetry", "--d12", "12", "--samples", "120", "--seed", "4"],
        "f2df52e94c6b8704e478b432941214e60b69ea931e46e390fdd0b13507e7bed7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_bodies(tmp_path, capsys, name):
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    body = read_csv(tmp_path / name)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
