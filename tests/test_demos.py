"""The demos run cleanly and print exactly what they printed before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; a change to any printed byte shows here.
DEMO_STDOUT_SHA256 = {
    "01_labeled_trees.py": "dcdd61720b37fea03539a7d7027bbd1c42ffb6f4a5132804fb0c51e8d1262aae",
    "02_counting_covers.py": "bb6e0262028b916bfe238bdb80135097f9a4fccbb71c693fe03f05ca6a153223",
    "03_spectral_curve.py": "4c00cda516c87c704f695de58d63d22927ee353c4585378c6a01a464b975a64b",
    "04_free_energies.py": "91767de7eef59b7ef4005f9459dadcbd70f6b3ae7a36cf6efbf60c7af95ee62d",
    "05_monodromy_crosscheck.py": "ed964d42cfc9028cc78d55be6bd67e87fc54607b5d185000f3db2f22c5355cb7",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (REPO_ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / name)],
        capture_output=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
