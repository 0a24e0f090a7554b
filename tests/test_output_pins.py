"""Byte pins of the CLI's outputs: for each run below, the sha256 of every
file it writes, of its stdout and of its stderr, and its exit code.

Running this file as a script records the cases that output_pins.json
lacks, from the current code, and prints each name it writes:

    PYTHONPATH=src python tests/test_output_pins.py

An existing pin is rewritten only when it is named:

    PYTHONPATH=src python tests/test_output_pins.py --rerecord NAME ...

A refactor that keeps every output leaves the pins unedited.  A change that
means to alter an output re-records the cases it alters and says which
digest moved.
"""

import argparse
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
PARTIAL = ("--generators", "cos(z)", "neg(cos(z))", "exp(z)")
POLYNOMIAL = ("--generators", "pow(z,2)", "neg(pow(z,2))")

CASES = {
    **{f"commutator-{fx}": ("commutator", "--fixture", fx) for fx in FIXTURES},
    **{f"verify-{fx}": ("verify", "--fixture", fx) for fx in FIXTURES},
    "render-cos": ("render", *GRID, "--csv"),
    "transport-cos": ("transport", *GRID),
    "normal-form-exp": ("normal-form", "--fixture", "example-2.1-exp", *WORDS),
    "normal-form-cos": ("normal-form", "--fixture", "example-2.1-cos", *WORDS),
    "normal-form-unclosed": ("normal-form", "--fixture", "derived-exp-shift",
                             "--word", "2,1", "--word", "1,2,2,1"),
    # both generators affine: the word's right side is a chain of affine maps
    "normal-form-two-affine": ("normal-form", "--generators", "affine(2+0i,1+0i)",
                               "affine(0.5+0i,0+0i)", "--word", "2,1,2,1,1"),
    "commutator-no-table": ("commutator", *NO_TABLE),
    "transport-no-table": ("transport", *NO_TABLE),
    "normal-form-no-table": ("normal-form", *NO_TABLE, "--word", "1,2"),
    "render-unknown-fixture": ("render", "--fixture", "nope"),
    "commutator-two-sources": ("commutator", "--fixture", "example-2.1-cos", *NO_TABLE),
    # exits 0 only once stage 2 of the clean-point search zooms in
    "normal-form-stage-2": ("normal-form", "--fixture", "example-2.1-exp",
                            "--word", "1,2,1,2,1,2,1,2,1,2,1,2,1"),
    # the 12-letter word finds its points in stage 1 only after batch 1 is
    # nearly empty and the rest are taken at once; the 20-letter word finds
    # no disk
    "normal-form-long": ("normal-form", "--fixture", "example-2.1-exp",
                         "--word", "1,2,1,1,2,2,1,2,1,1,2,2",
                         "--word", "2,1,1,2,1,2,2,1,1,2,1,2,2,1,2,1,1,2,2,1"),
    "render-map": ("render", "--map", "exp(z)", "--cells", "8", "--workers", "1"),
    # the identity checks run, and the nearly-abelian check reads false
    "verify-no-table": ("verify", *NO_TABLE),
    # generators 1 and 2 pair up, 3 pairs with neither: a partial table
    "commutator-partial": ("commutator", *PARTIAL),
    "normal-form-partial": ("normal-form", *PARTIAL, "--word", "2,1"),
    # the table is incomplete, but the pair (1, 2) and (2, 1) is solved
    "verify-partial": ("verify", *PARTIAL),
    # phi12 = (e^-200, 200) needs a xi whose coefficient a is below the
    # rounding of f∘phi's values at the sample points
    "verify-far-shift": ("verify", "--generators", "affine(1+0i, 200+0i)", "exp(z)"),
    # the word f∘f has a = 1e400: the two affine maps apply one after the other
    "render-affine-overflow": ("render", "--generators", "affine(1e200+0i, 0+0i)", "exp(z)",
                               "--cells", "9", "--window=-1,1,-1,1", "--workers", "1"),
    # the brackets of identities 2 and 3 compose an affine map with an affine map
    "verify-two-affine": ("verify", "--generators", "affine(0.5+0i, 1+0i)",
                          "affine(2+0i, -1+0i)"),
    # identities 2 and 3 compare values: the coefficients of the two sides
    # differ by more than the tolerance, their values at |z| <= 2 by less;
    # with b near 1e8 at |z| <= 2, the fitted brackets are noise-bound
    "verify-two-affine-far": ("verify", "--generators", "affine(1+0i, 1e8+0i)",
                              "affine(1.5+0i, -1.5e8+0i)"),
    # Example 2.1 with the polynomial h = z²: a presentation takes any
    # entire maps
    "commutator-polynomial": ("commutator", *POLYNOMIAL),
    "verify-polynomial": ("verify", *POLYNOMIAL),
    # two nestings of one chain of maps: one tree, printed flat
    "commutator-chain": ("commutator", "--generators",
                         "compose(exp(z), compose(cos(z), z))",
                         "neg(compose(compose(exp(z), cos(z)), z))"),
    # a one-generator semigroup: the identity checks' brackets [f, f^m]
    # are the identity by construction
    "verify-one-tree": ("verify", "--generators", "pow(z,2)"),
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


def record(path: pathlib.Path, rerecord: list[str], run) -> list[str]:
    """Pin with run(argv) each case that the file at path lacks or that
    rerecord names, and keep every other pin as it is.  Returns the names
    written; the file is rewritten only when there is one."""
    unknown = sorted(set(rerecord) - set(CASES))
    if unknown:
        raise ValueError(f"not a case: {', '.join(unknown)}")
    pins = json.loads(path.read_text())
    names = [name for name in CASES if name not in pins or name in rerecord]
    for name in names:
        pins[name] = run(CASES[name])
    if names:
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return names


def test_recorder_keeps_every_pin(tmp_path):
    path = tmp_path / "output_pins.json"
    path.write_bytes(PINS_PATH.read_bytes())
    ran = []
    assert record(path, [], ran.append) == []
    assert ran == []
    assert path.read_bytes() == PINS_PATH.read_bytes()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="record the missing output pins")
    parser.add_argument("--rerecord", nargs="+", default=[], metavar="NAME",
                        help="rewrite these existing pins too")
    for name in record(PINS_PATH, parser.parse_args().rerecord, outputs):
        print(f"recorded {name}")
    sys.exit(0)
