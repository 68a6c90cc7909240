"""Every demo script runs to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK = ["01_autodiff_basics.py", "02_mdsc_block.py", "03_broadcast_attention.py",
         "04_complexity_report.py", "05_dataset_preview.py"]


def _run(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    _run(name)


@pytest.mark.slow
def test_training_demo_runs():
    _run("06_training_run.py")
