"""Each walkthrough in demos/ prints the same bytes, plain and under python -O:
its stdout's sha256 is pinned here, so a library change that alters what a
library user sees fails by name."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valsweep

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(valsweep.__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_quadratic_irrational.py":
        "e6796feb33deca5dddc229bdca41391cb0d603db77186ce9b4e9569143109b14",
    "02_lattice_quotients_and_hilbert_bases.py":
        "bdb60b3d5c0660e28ae6bf287c37daec1cdb096245026c151e991cf2a9fbe9ef",
    "03_cyclic_invariant_rings.py":
        "24fdf2d23a0a63133d0d6ee632441383914b7bf2a5b984745c64a4f28ac649c5",
    "04_full_counterexample.py":
        "fe32a8912975976ea30ef338663d2918d0f3ce0773a46d853286946f8b7a5dda",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(demo, flags):
    proc = subprocess.run([sys.executable, *flags, str(ROOT / "demos" / demo)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
