"""The demos and the benchmark's self-test run as scripts, as a user would run
them, so an API change that breaks either fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_script(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    done = _run_script(demo)
    assert done.returncode == 0, done.stderr


def test_benchmark_selftest_passes():
    done = _run_script(ROOT / "nbcbench" / "selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("0 failed")
