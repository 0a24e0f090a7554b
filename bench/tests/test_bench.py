"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

import json
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def declared(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "normal-form",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = declared(section)
    assert set(result["metrics"]) == set(want)
    for name, m in result["metrics"].items():
        assert NAME_RE.fullmatch(name), name
        assert m["unit"] == want[name], name
    record = json.loads(done.stdout.splitlines()[-2])
    assert record["cpus"] >= 1 and record["workers"] == 1 and record["seed"] == 3
    if trace:
        assert all(record["checks"].values()), record["checks"]


def test_declared_names_are_well_formed():
    for section in ("end_to_end", "per_layer"):
        for name in declared(section):
            assert NAME_RE.fullmatch(name) and len(name) <= 64, name


def test_word_generator_is_deterministic_per_seed():
    wl = workloads.NormalFormWorkload()
    first = list(islice(wl.ops(7), 3 * wl.block))
    assert first == list(islice(wl.ops(7), 3 * wl.block))
    assert first != list(islice(wl.ops(8), 3 * wl.block))
    for b in range(3):
        block = first[b * wl.block:(b + 1) * wl.block]
        assert [op.fixture for op in block] == [workloads.COS, workloads.EXP] * 32
        for fx in (workloads.COS, workloads.EXP):
            lengths = sorted(len(op.word) for op in block if op.fixture == fx)
            assert lengths == list(range(1, 33))


def write_report(tmp_path, word, prefix_a, exponents=None, residual=0.0):
    exponents = exponents or [word.count(1), word.count(2)]
    doc = {"normal_forms": [{
        "word": list(word), "exponents": exponents, "residual": residual,
        "prefix": {"a": prefix_a, "b": "0.0,0.0"}, "prefix_in_table": True,
    }]}
    (tmp_path / "normal_forms.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("word,prefix", [
    ((1,), "1.0,0.0"), ((2,), "1.0,0.0"), ((2, 2), "1.0,0.0"),
    ((2, 1), "-1.0,0.0"), ((1, 2), "1.0,0.0"), ((2, 1, 2, 2), "-1.0,0.0"),
])
def test_normal_form_gate_accepts_the_forced_prefix(tmp_path, word, prefix):
    wl = workloads.NormalFormWorkload()
    write_report(tmp_path, word, prefix)
    wl.check(wl.op(workloads.COS, word), tmp_path)
    flipped = "1.0,0.0" if prefix.startswith("-") else "-1.0,0.0"
    write_report(tmp_path, word, flipped)
    with pytest.raises(workloads.GateMismatch):
        wl.check(wl.op(workloads.COS, word), tmp_path)


def test_normal_form_gate_rejects_bad_exponents_and_residual(tmp_path):
    wl = workloads.NormalFormWorkload()
    op = wl.op(workloads.EXP, (2, 1, 1))
    write_report(tmp_path, op.word, "-1.0,0.0", exponents=[1, 2])
    with pytest.raises(workloads.GateMismatch):
        wl.check(op, tmp_path)
    write_report(tmp_path, op.word, "-1.0,0.0", residual=1e-6)
    with pytest.raises(workloads.GateMismatch):
        wl.check(op, tmp_path)


def test_tracer_installs_on_every_alias_and_uninstalls():
    import semidyn.cli  # noqa: F401  (loads every module the CLI calls through)
    from semidyn import expr, grid, words

    original = expr.eval_array
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert grid.eval_array is expr.eval_array is not original
        z = np.zeros(5, dtype=complex)
        grid.eval_array(expr.Identity(), z)
        assert getattr(words.find_clean_points, tracing.MARK)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert grid.eval_array is expr.eval_array is original
    spans = tracer.arrays()
    assert list(spans["name"]) == [tracing.SPAN_NAMES.index("expr.eval_array")]
    assert list(spans["size"]) == [5]


def test_layer_metrics_self_time_and_outermost_groups():
    ids = {n: tracing.SPAN_NAMES.index(n) for n in tracing.SPAN_NAMES}
    # main(0..10) > fatou_mask(1..4) > extract_julia_boundary(2..3);
    # main > extract_julia_boundary(5..7); main > write_pgm(8..9)
    rows = [
        ("cli.main", -1, 0, 10), ("grid.fatou_mask", 0, 1, 4),
        ("grid.extract_julia_boundary", 1, 2, 3), ("grid.extract_julia_boundary", 0, 5, 7),
        ("grid.write_pgm", 0, 8, 9),
    ]
    spans = {
        "name": np.array([ids[r[0]] for r in rows]),
        "parent": np.array([r[1] for r in rows]),
        "start": np.array([float(r[2]) for r in rows]),
        "end": np.array([float(r[3]) for r in rows]),
        "op": np.zeros(len(rows), dtype=int),
        "size": np.zeros(len(rows), dtype=int),
        "raised": np.zeros(len(rows), dtype=int),
    }
    m = tracing.layer_metrics(spans, 1)
    assert m["grid.transport_post.s"][0] == 5.0  # 3 + 2, the nested call not twice
    assert m["grid.artifacts.s"][0] == 1.0
    assert m["cli.main.s"][0] == 10.0
    assert m["cli.main.self_s"][0] == 4.0  # 10 - 3 - 2 - 1


def test_quantile_is_harrell_davis():
    from scipy.stats.mstats import hdquantiles

    xs = np.random.default_rng(1).exponential(size=300)
    for p in (0.5, 0.9):
        assert run.quantile(list(xs), p) == pytest.approx(hdquantiles(xs, prob=[p])[0])
    assert run.quantile([3.0], 0.5) == 3.0


def test_reference_window_is_centred_on_the_operation():
    refs = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]
    assert run.reference_around(refs, 0) == 1.0  # refs[0..4]: three 1s, two 9s
    assert run.reference_around(refs, 6) == 9.0
