"""Smoke test of the benchmark itself.

Runs every workload for one pass, untraced and traced, at the reference
seed, and checks that each metric declared in BENCHMARK.json is emitted
with its unit and that the outputs match the seed-42 references. Run it
from the repository root with

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_metric_and_matches_references(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["numpy.eigvalsh_calls"]["value"] == 6
        assert result["metrics"]["numpy.svd_calls"]["value"] == 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
