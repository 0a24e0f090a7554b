import os
import subprocess
import sys
from pathlib import Path

import semidyn

ROOT = Path(__file__).resolve().parent.parent


def test_commutator_tour_runs():
    # the tour calls normal_form through the public package path
    src = os.path.dirname(os.path.dirname(semidyn.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "commutator_tour.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exponents" in proc.stdout
