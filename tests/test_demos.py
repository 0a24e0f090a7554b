import os
import subprocess
import sys
from pathlib import Path

import semidyn

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """The demo script in its own interpreter, with this semidyn on its path."""
    src = os.path.dirname(os.path.dirname(semidyn.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_commutator_tour_runs():
    # the tour calls normal_form through the public package path
    assert "exponents" in run_demo("commutator_tour.py").stdout


def test_render_transport_agrees(tmp_path):
    # the demo conjugates a semigroup and writes ./demo_out/ where it runs
    proc = run_demo("render_transport.py", cwd=tmp_path)
    assert "transport agreement: 1.00000" in proc.stdout
    assert sorted(p.name for p in (tmp_path / "demo_out").iterdir()) == [
        "conjugate.pgm", "original.pgm"]
