import hashlib
import json
import os

import pytest

from entdetect.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return fh.read()


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

    def test_missing_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan-rank", "--d1", "2", "--k", "2", "--out", str(tmp_path)])

    def test_criteria_subset_columns(self, tmp_path):
        main([
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "120", "--seed", "4", "--out", str(tmp_path),
            "--criteria", "pt,majorization",
        ])
        header = read_csv(tmp_path / "scan_rank_2x3.csv").split("\r\n")[0]
        assert "majorization_F" in header and "entropy_F" not in header

    def test_criteria_change_recomputes(self, tmp_path, capsys):
        args = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "120", "--seed", "4", "--out", str(tmp_path),
        ]
        main(args)
        capsys.readouterr()
        main(args + ["--criteria", "pt"])
        assert "skipping" not in capsys.readouterr().out
        header = read_csv(tmp_path / "scan_rank_2x3.csv").split("\r\n")[0]
        assert header == "d1,d2,k,n,n_npt,pt_F,pt_F_stderr,pt_M,pt_m"


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


class TestBounds:
    def test_report_values(self, capsys):
        assert main(["bounds", "--d1", "2", "--d2", "5"]) == 0
        out = capsys.readouterr().out
        assert "entropy_rank_threshold   5" in out
        assert "realignment_rank_bound   6.5" in out
        assert "ppt_rank_sufficient      89" in out

    def test_equal_dims_vacuous(self, capsys):
        main(["bounds", "--d1", "3", "--d2", "3"])
        assert "vacuous (equal dimensions)" in capsys.readouterr().out


class TestVerify:
    def test_passes_on_default_run(self, capsys):
        assert main(["verify", "--samples", "120", "--seed", "8"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "prop3_verdict_agreement" in out


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d1": 2, "d2": 3, "k": "2", "samples": 120, "seed": 4,
            "out": str(tmp_path / "runs"),
        }))
        main(["--config", str(cfg), "scan-rank"])
        assert os.path.exists(tmp_path / "runs" / "scan_rank_2x3.csv")
        # explicit flag beats the file
        main(["--config", str(cfg), "scan-rank", "--d2", "4"])
        assert os.path.exists(tmp_path / "runs" / "scan_rank_2x4.csv")

    def test_config_with_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d1": 2, "d2": 3, "k": "2", "samples": 5, "out": str(tmp_path / "runs"),
        }))
        main([f"--config={cfg}", "scan-rank"])
        with open(tmp_path / "runs" / "scan_rank_2x3.manifest.json") as fh:
            assert json.load(fh)["config"]["samples_per_cell"] == 5

    @pytest.mark.parametrize("argv", [["--config"], ["scan-rank", "--d1", "2", "--config"]])
    def test_config_without_path_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_unreadable_config_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--config"):
            main(["--config", str(tmp_path / "missing.json"), "scan-rank"])


class TestWorkersEnv:
    def test_env_override_keeps_results_identical(self, tmp_path, monkeypatch, capsys):
        args = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "300", "--seed", "4",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        monkeypatch.setenv("ENTDETECT_WORKERS", "4")
        main(args + ["--out", str(tmp_path / "b")])
        assert read_csv(tmp_path / "a" / "scan_rank_2x3.csv") == read_csv(
            tmp_path / "b" / "scan_rank_2x3.csv"
        )

    @pytest.mark.parametrize("env,flag", [("0", None), ("abc", None), (None, "-3")])
    def test_bad_worker_count_rejected(self, tmp_path, monkeypatch, env, flag):
        if env is None:
            monkeypatch.delenv("ENTDETECT_WORKERS", raising=False)
        else:
            monkeypatch.setenv("ENTDETECT_WORKERS", env)
        argv = [
            "scan-rank", "--d1", "2", "--d2", "3", "--k", "2",
            "--samples", "5", "--out", str(tmp_path),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--workers", flag] if flag else []))
        message = str(exc.value.code)
        assert "worker count" in message and "\n" not in message
        assert not os.path.exists(tmp_path / "scan_rank_2x3.csv")


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
def test_golden_csv_bodies(tmp_path, monkeypatch, capsys, name):
    monkeypatch.delenv("ENTDETECT_WORKERS", raising=False)
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    body = read_csv(tmp_path / name)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
