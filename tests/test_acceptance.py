"""End-to-end acceptance checks, one test per shipped guarantee.

Each test records a single ``[PASS]``/``[FAIL]`` line, re-printed as an
"acceptance report" section in the terminal summary, and then asserts, so
the suite doubles as a human-readable report.
Grid sizes, windows and tolerances are pinned here on purpose: they are the
contract, not tunables.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

import conftest

from semidyn.cli import EXIT_OK, main as cli_main
from semidyn.commutator import (
    build_commutator_table,
    conjugate_semigroup,
    find_affine_commutator,
    group_closure,
    is_nearly_abelian,
    verify_identity,
)
from semidyn.expr import (
    AffineMap,
    affine_distance,
    numerically_equal,
)
from semidyn.fixtures import FIXTURES, INVOLUTION_FIXTURES
from semidyn.grid import (
    STATUS_BOUNDED,
    STATUS_ESCAPING,
    classify_map,
    classify_semigroup,
    extract_julia_boundary,
    transport_ratios,
)
from semidyn.words import Word, normal_form

NEGATION = AffineMap(-1, 0)
IDENT = AffineMap(1, 0)


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    conftest.ACCEPTANCE_LINES.append(line)  # re-printed in the terminal summary
    return ok


def test_criterion_1_commutator_recovery():
    ok = True
    details = []
    for name in INVOLUTION_FIXTURES:
        fx = FIXTURES[name]
        t0 = time.perf_counter()
        res = find_affine_commutator(*fx.presentation.generators, fx.plan)
        dt = time.perf_counter() - t0
        err = max(abs(res.map.a + 1), abs(res.map.b))
        ok &= err < 1e-9 and dt < 1.0
        details.append(f"{name}: err={err:.1e} {dt:.2f}s")
    fx = FIXTURES["derived-exp-shift"]
    t0 = time.perf_counter()
    res = find_affine_commutator(*fx.presentation.generators, fx.plan)
    dt = time.perf_counter() - t0
    err = max(abs(res.map.a - math.e), abs(res.map.b + math.e))
    ok &= err < 1e-9 and dt < 1.0
    details.append(f"derived-exp-shift: err={err:.1e} {dt:.2f}s")
    assert report(1, "commutator recovery", ok, "; ".join(details))


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for name in INVOLUTION_FIXTURES:
        fx = FIXTURES[name]
        f, g = fx.presentation.generators
        for which in ("1", "2", "3"):
            for n in (1, 2, 3):
                rep = verify_identity(which, f, g, n=n, plan=fx.plan)
                ok &= rep.holds and rep.residual < 1e-9
                worst = max(worst, rep.residual)
    for name in FIXTURES:
        fx = FIXTURES[name]
        f, g = fx.presentation.generators
        for which in ("diagonal", "inverse"):
            rep = verify_identity(which, f, g, plan=fx.plan)
            ok &= rep.holds and rep.residual < 1e-9
            worst = max(worst, rep.residual)
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    assert report(2, "identity suite", ok, f"max residual {worst:.1e}, {dt:.1f}s")


def test_criterion_3_conjugation_property():
    ok = True
    worst = 0.0
    for name in INVOLUTION_FIXTURES:
        fx = FIXTURES[name]
        verdict = is_nearly_abelian(fx.presentation, fx.plan).algebraic
        conj = conjugate_semigroup(fx.presentation, NEGATION)
        ok &= verdict == is_nearly_abelian(conj, fx.plan).algebraic
        back = conjugate_semigroup(conj, NEGATION)  # negation is an involution
        for g1, g2 in zip(back.generators, fx.presentation.generators):
            rep = numerically_equal(g1, g2, fx.plan)
            ok &= rep.equal and rep.max_error < 1e-9
            worst = max(worst, rep.max_error)
    assert report(3, "conjugation invariance", ok, f"max residual {worst:.1e}")


def test_criterion_4_transport_agreement():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in INVOLUTION_FIXTURES:
        fx = FIXTURES[name]
        spec = fx.window  # 512x512 on [-4,4]^2, max_iter 100, radius 50
        assert (spec.cols, spec.rows, spec.max_iter) == (512, 512, 100)
        assert spec.escape_radius == 50
        conj = conjugate_semigroup(fx.presentation, NEGATION)
        gs = classify_semigroup(fx.presentation, spec, workers=4)
        gc = classify_semigroup(conj, spec, workers=4)
        _, ratios, vacuous = transport_ratios(gs, gc, NEGATION, spec)
        ok &= all(r >= 0.99 for r in ratios.values())
        # a ratio between two single-class masks passes without evidence
        details.append(f"{name}: " + " ".join(
            f"{label}={ratios[k]:.4f}" + (" (vacuous)" if vacuous[k] else "")
            for label, k in (("I", "escaping"), ("J", "julia"), ("F", "fatou"))
        ))
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    details.append(f"{dt:.1f}s")
    assert report(4, "affine transport of I/J/F grids", ok, "; ".join(details))


def test_criterion_5_normal_form_oracle():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for name in INVOLUTION_FIXTURES:
        fx = FIXTURES[name]
        table = build_commutator_table(fx.presentation, fx.plan)
        G = group_closure(table.maps(), cap=64)
        rng = np.random.default_rng(fx.plan.seed)
        for _ in range(100):
            length = int(rng.integers(1, 7))
            w = Word(tuple(int(x) for x in rng.integers(1, 3, length)))
            nf = normal_form(w, fx.presentation, table, G, fx.plan)
            ok &= nf.residual < 1e-9 and sum(nf.exponents) == len(w)
            worst = max(worst, nf.residual)
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    assert report(5, "normal form oracle equivalence", ok,
                  f"200 words, max residual {worst:.1e}, {dt:.1f}s")


def test_criterion_6_xi_resolution():
    from semidyn.words import left_resolve_exists, resolve_xi

    ok = True
    for name in INVOLUTION_FIXTURES:
        fx = FIXTURES[name]
        table = build_commutator_table(fx.presentation, fx.plan)
        G = group_closure(table.maps(), cap=64)
        for gen in fx.presentation.generators:
            xi = resolve_xi(gen, NEGATION, G, fx.plan)
            ok &= affine_distance(xi, IDENT) < 1e-9
            ok &= not left_resolve_exists(gen, NEGATION, G, fx.plan)
    assert report(6, "right migration resolves, left does not", ok)


def test_criterion_7_determinism_and_scaling(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["render", "--map", "exp(z)", "--window", "-4,4,-4,4",
            "--cells", "1024", "--max-iter", "100"]
    # warm-up so one-time costs such as numpy's caches do not bias the timings
    assert cli_main(args + ["--workers", "4", "--out", str(tmp_path / "w")]) == EXIT_OK

    # same config, two runs: everything on disk must match byte for byte
    t_four = math.inf
    for out in (a, b):
        t0 = time.perf_counter()
        assert cli_main(args + ["--workers", "4", "--out", str(out)]) == EXIT_OK
        t_four = min(t_four, time.perf_counter() - t0)
    identical = all(
        (a / n).read_bytes() == (b / n).read_bytes()
        for n in ("classification.pgm", "heatmap.pgm", "render_meta.json")
    )

    # min-of-3 per worker count keeps scheduler noise out of the ratio
    t0 = time.perf_counter()
    assert cli_main(args + ["--workers", "4", "--out", str(tmp_path / "t")]) == EXIT_OK
    t_four = min(t_four, time.perf_counter() - t0)
    t_one = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        assert cli_main(args + ["--workers", "1", "--out", str(tmp_path / "t")]) == EXIT_OK
        t_one = min(t_one, time.perf_counter() - t0)
    speedup = t_one / t_four
    in_budget = t_four < 10.0
    scales = speedup >= 2.5
    ok = identical and in_budget and scales
    assert report(
        7, "determinism and 1->4 worker scaling", ok,
        f"bitwise={identical}, 4w={t_four:.2f}s, 1w={t_one:.2f}s, "
        f"speedup={speedup:.2f}x on {os.cpu_count()} visible cpu(s)",
    )


def test_criterion_8_grid_sanity():
    ok = True
    details = []
    for name in FIXTURES:
        fx = FIXTURES[name]
        f = fx.presentation.generator(1)
        grid = classify_map(f, fx.window)
        n_escaping = int((grid.status == STATUS_ESCAPING).sum())
        boundary = int(extract_julia_boundary(grid).sum())
        from dataclasses import replace

        deeper = classify_map(f, replace(fx.window, max_iter=fx.window.max_iter * 2))
        flipped = int(
            ((grid.status == STATUS_ESCAPING) & (deeper.status == STATUS_BOUNDED)).sum()
        )
        ok &= n_escaping >= 1 and boundary > 0 and flipped == 0
        details.append(f"{name}: esc={n_escaping} boundary={boundary} flips={flipped}")
    assert report(8, "grid sanity (witness, boundary, monotonicity)", ok,
                  "; ".join(details))
