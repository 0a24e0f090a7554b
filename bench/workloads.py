"""The benchmark's workloads: one operation is one `semidyn` CLI invocation.

Why these three (see README.md for the layer map):

- transport-cos: a bounded-heavy grid on two worker processes, so the
  cycle-window bookkeeping and the process pools dominate; no words.
- render-exp: every cell escapes and the kernel runs in-process, so
  `eval_array` on 262144-element arrays dominates and every kernel call is
  visible to the traced run.
- normal-form: no grid; deep expression trees on small arrays, the
  commutator table and group closure on every call, and `resolve_xi`
  growing with the square of the word length.

The grid workloads have one pinned input each; the seed only names the
run.  Their artifacts are gated byte for byte against `golden.json`.
BENCHMARK.json declares render-exp and normal-form only; README.md says
why transport-cos is run by hand.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

COS, EXP = "example-2.1-cos", "example-2.1-exp"
MAX_WORD = 32

# The fixtures' sample-plan tolerance at the time the benchmark was defined.
PLAN_TOLERANCE = 1e-9

# Both involution fixtures are f1 = h, f2 = -h with h even (cos z and
# exp(z^2) + 0.2), so every commutator is N(z) = -z and the commutator group
# is {id, N}.  A word w = f_{i_k} ... f_{i_1} equals N^[i_k = 2] h^k, and
# prefix h^{t1} (N h)^{t2} equals N^[t1 = 0] h^k, so the prefix is the
# unique element N^([i_k = 2] xor [t1 = 0]) of the group.
IDENTITY, NEGATION = (1 + 0j, 0j), (-1 + 0j, 0j)


class GateMismatch(Exception):
    """An operation exited 0 but its output is not the expected one."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    fixture: str
    word: tuple[int, ...] = ()


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class GridWorkload:
    """The same grid command every operation; artifacts gated byte for byte."""

    block = 1

    def __init__(self, name: str, command: str, fixture: str, workers: int, artifacts):
        self.name = name
        self.workers = workers
        self.argv = (command, "--fixture", fixture, "--cells", "512", "--workers", str(workers))
        self.fixture = fixture
        self.artifacts = tuple(artifacts)
        self.golden = json.loads(GOLDEN_PATH.read_text()).get(name, {})

    def ops(self, seed: int):
        return itertools.repeat(Op(self.argv, self.fixture))

    def warmup(self) -> Op:
        return Op(self.argv, self.fixture)

    def outputs(self, out_dir: Path) -> list[Path]:
        return [out_dir / a for a in self.artifacts]

    def check(self, op: Op, out_dir: Path) -> None:
        for path in self.outputs(out_dir):
            got, want = digest([path]), self.golden.get(path.name)
            if got != want:
                raise GateMismatch(f"{path.name}: sha256 {got} != {want}")


class NormalFormWorkload:
    """One word per operation.  Words come in blocks of 2 * MAX_WORD: each
    fixture gets every length 1..MAX_WORD once, in a seeded order, with
    seeded letters, and the fixtures alternate.  A run measures whole
    blocks, so every run has the same length mix."""

    name = "normal-form"
    block = 2 * MAX_WORD
    workers = 1  # no process pool

    def ops(self, seed: int):
        rng = random.Random(seed)
        while True:
            lengths = {fx: rng.sample(range(1, MAX_WORD + 1), MAX_WORD) for fx in (COS, EXP)}
            for i in range(MAX_WORD):
                for fx in (COS, EXP):
                    word = tuple(rng.choice((1, 2)) for _ in range(lengths[fx][i]))
                    yield self.op(fx, word)

    @staticmethod
    def op(fixture: str, word: tuple[int, ...]) -> Op:
        text = ",".join(map(str, word))
        return Op(("normal-form", "--fixture", fixture, "--word", text), fixture, word)

    def warmup(self) -> Op:
        return self.op(COS, (2, 1))

    def outputs(self, out_dir: Path) -> list[Path]:
        return [out_dir / "normal_forms.json"]

    def check(self, op: Op, out_dir: Path) -> None:
        doc = json.loads((out_dir / "normal_forms.json").read_text())
        (nf,) = doc["normal_forms"]
        if tuple(nf["word"]) != op.word:
            raise GateMismatch(f"report is for word {nf['word']}")
        exps = tuple(nf["exponents"])
        if sum(exps) != len(op.word) or exps != (op.word.count(1), op.word.count(2)):
            raise GateMismatch(f"exponents {exps} for word of length {len(op.word)}")
        if not nf["residual"] <= PLAN_TOLERANCE:
            raise GateMismatch(f"residual {nf['residual']} above {PLAN_TOLERANCE}")
        prefix = tuple(_complex(nf["prefix"][k]) for k in ("a", "b"))
        near = [g for g in (IDENTITY, NEGATION) if _distance(prefix, g) < PLAN_TOLERANCE]
        if not near:
            raise GateMismatch(f"prefix {nf['prefix']} is not in G = {{z, -z}}")
        flip = (op.word[0] == 2) != (exps[0] == 0)
        if near[0] != (NEGATION if flip else IDENTITY):
            raise GateMismatch(f"prefix {nf['prefix']} differs from the expected one")


def _complex(text: str) -> complex:
    re_, im = text.split(",")
    return complex(float(re_), float(im))


def _distance(m1, m2) -> float:
    return max(abs(m1[0] - m2[0]), abs(m1[1] - m2[1]))


def build(name: str) -> GridWorkload | NormalFormWorkload:
    if name == "transport-cos":
        # grids are bitwise identical for any worker count, so the cap at the
        # visible CPUs leaves the gated artifacts unchanged
        workers = min(2, len(os.sched_getaffinity(0)))
        artifacts = ("transport_report.json", "transport_diff.pgm")
        return GridWorkload(name, "transport", COS, workers, artifacts)
    if name == "render-exp":
        # render_meta.json records the worker count, so it stays pinned at 1
        artifacts = ("classification.pgm", "heatmap.pgm", "render_meta.json")
        return GridWorkload(name, "render", EXP, 1, artifacts)
    if name == "normal-form":
        return NormalFormWorkload()
    raise KeyError(name)


NAMES = ("transport-cos", "render-exp", "normal-form")
