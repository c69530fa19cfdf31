"""Each walkthrough in demos/ runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import valsweep

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(valsweep.__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
