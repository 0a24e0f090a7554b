"""Byte pins of the CLI's outputs: for each run below, the sha256 of every
file it writes, of its stdout and of its stderr, and its exit code.

The digests in output_pins.json were recorded once, from the reference
commit, by running this file as a script:

    PYTHONPATH=src python tests/test_output_pins.py

A refactor that keeps every output leaves them unedited.  A change that
means to alter an output re-records them and says which digest moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from semidyn.cli import main

PINS_PATH = pathlib.Path(__file__).with_name("output_pins.json")

FIXTURES = ("example-2.1-exp", "example-2.1-cos", "derived-exp-shift")
GRID = ("--fixture", "example-2.1-cos", "--cells", "16", "--workers", "1")
# words of 14 letters and more fail on example-2.1-exp: no disk holds enough
# clean sample points for the whole word
WORDS = ("--word", "2,1", "--word", "1,2,2,1,2", "--word", "1,2,1,2,1,2,1,2,1,2,1,2,1,2")
NO_TABLE = ("--generators", "exp(z)", "pow(z,2)")

CASES = {
    **{f"commutator-{fx}": ("commutator", "--fixture", fx) for fx in FIXTURES},
    **{f"verify-{fx}": ("verify", "--fixture", fx) for fx in FIXTURES},
    "render-cos": ("render", *GRID, "--csv"),
    "transport-cos": ("transport", *GRID),
    "normal-form-exp": ("normal-form", "--fixture", "example-2.1-exp", *WORDS),
    "normal-form-cos": ("normal-form", "--fixture", "example-2.1-cos", *WORDS),
    "normal-form-unclosed": ("normal-form", "--fixture", "derived-exp-shift",
                             "--word", "2,1", "--word", "1,2,2,1"),
    "commutator-no-table": ("commutator", *NO_TABLE),
    "transport-no-table": ("transport", *NO_TABLE),
    "normal-form-no-table": ("normal-form", *NO_TABLE, "--word", "1,2"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(argv: tuple[str, ...]) -> dict:
    """The exit code, the digests of stdout and stderr, and the digest of
    each file written, of one in-process run into a fresh directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out])
        files = {p.name: _sha(p.read_bytes()) for p in sorted(pathlib.Path(out).iterdir())}
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()), "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_pinned(name):
    pins = json.loads(PINS_PATH.read_text())
    assert outputs(CASES[name]) == pins[name]


def test_every_case_is_pinned():
    assert sorted(json.loads(PINS_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    pins = {name: outputs(argv) for name, argv in CASES.items()}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
