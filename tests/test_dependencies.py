import os
import subprocess
import sys

import semidyn


def test_import_loads_no_scipy():
    # the package runs on numpy alone; loading scipy would be most of its
    # start-up time and memory
    src = os.path.dirname(os.path.dirname(semidyn.__file__))
    code = ("import sys, semidyn, semidyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
