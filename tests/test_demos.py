"""Each demo script prints exactly its recorded output in demos/expected/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
