"""The demos run end to end against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

# First line each demo prints.
HEADERS = {
    "rank_sweep.py": "fraction of NPT 2x5 states detected, 1000 samples per rank",
    "single_state_checks.py": "state                  log-negativity and per-criterion verdicts",
    "theory_bounds.py": "rank-8 states on 2x5, 2000 samples:",
}


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == HEADERS[name]


def test_every_demo_is_run():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADERS)
