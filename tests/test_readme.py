"""Every Python block of README.md runs against the package's source, so a
name the README uses cannot be deleted without failing here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
