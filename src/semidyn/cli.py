"""Command-line front end: reproducible runs over fixtures and inline
expressions, emitting JSON reports, PGM rasters and CSV dumps.

Exit codes are a stable scripting contract: 0 success, 2 incomplete
commutator table, 3 failed identity check, 4 word budget exceeded,
5 transport agreement below threshold, 6 normal-form failure of some
word, 64 usage error (a malformed flag, config file, expression, fixture
name, window, word or SEMIDYN_THREADS value, a word depth over 32, a
sample seed or count that is not an integer, a window, escape radius,
sample radius, abs_floor or threshold that is not finite, or transport
without --phi on a single generator).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .commutator import (
    ClosureOverflowError,
    DegenerateSamplesError,
    MissingCommutatorError,
    NotNearlyRepresentableError,
    SemigroupPresentation,
    build_commutator_table,
    conjugate_semigroup,
    group_closure,
    is_nearly_abelian,
    presentation_to_json_dict,
    verify_identity,
)
from .expr import AffineMap, ExprParseError, SamplePlan, parse_complex, parse_expr
from .fixtures import Fixture, get_fixture
from .grid import (
    GridSpec,
    SpecMismatchError,
    WordBudgetExceededError,
    check_fatou_invariance,
    classify_map,
    classify_semigroup,
    escape_boundary,
    heatmap_bytes,
    resolve_workers,
    status_bytes,
    transport_ratios,
    write_csv,
    write_pgm,
)
from .words import (
    MAX_WORD_LENGTH,
    NoXiError,
    VerificationFailedError,
    Word,
    left_resolve_exists,
    normal_form,
    normal_form_to_json_dict,
    resolve_xi,
)

EXIT_OK = 0
EXIT_TABLE_INCOMPLETE = 2
EXIT_VERIFY_FAILED = 3
EXIT_WORD_BUDGET = 4
EXIT_TRANSPORT_BELOW_THRESHOLD = 5
EXIT_NORMAL_FORM_FAILED = 6
EXIT_USAGE = 64


class UsageError(ValueError):
    pass


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"config {path} is not a JSON object")
    return config


class Run:
    """One invocation's inputs, resolved from the flags and ``--config``
    (a flag wins over its config key).  Each piece is built only for the
    subcommands that declare its flag, and all of it before any work
    starts, so malformed input raises ValueError, KeyError, OSError or,
    for a config value of the wrong JSON type, TypeError here."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        flags = vars(args)
        self.config = _load_config(args.config)
        map_text = self.get("map")
        self.map = parse_expr(map_text) if map_text else None
        self.S, self.fx = (None, None) if self.map is not None else self._presentation()
        self.plan = self._plan()
        self.spec = self._grid() if "window" in flags else None
        self.workers = resolve_workers(self.get("workers")) if "workers" in flags else None
        self.phi = None
        if phi := self.get("phi"):
            a, b = phi.split(";") if ";" in phi else phi.split("/")
            self.phi = AffineMap(parse_complex(a), parse_complex(b))
        self.words = self._words() if "word" in flags else []
        self.threshold = self.get("threshold", 0.99)
        if not math.isfinite(self.threshold):
            raise UsageError(f"threshold {self.threshold!r} is not finite")
        self.out = self.get("out", ".")
        os.makedirs(self.out, exist_ok=True)

    def get(self, key: str, default=None):
        """The flag's value, else the config key's, else default; default
        also for a key whose flag the subcommand does not declare."""
        flags = vars(self.args)
        if key not in flags:
            return default
        if flags[key] is not None:
            return flags[key]
        return self.config.get(key, default)

    def _presentation(self) -> tuple[SemigroupPresentation, Fixture | None]:
        name = self.get("fixture")
        if name:
            fx = get_fixture(name)
            return fx.presentation, fx
        gens = self.get("generators")
        if not gens:
            raise UsageError("need --fixture or --generators (render: or --map)")
        exprs = tuple(parse_expr(t) for t in gens)
        S = SemigroupPresentation(exprs, label="inline", require_transcendental=False)
        return S, None

    def _plan(self) -> SamplePlan:
        kwargs = {}
        for key in ("seed", "tolerance"):
            if (val := self.get(key)) is not None:
                kwargs[key] = val
        plan_cfg = self.config.get("plan", {})
        for key in ("count", "radius", "abs_floor"):
            if key in plan_cfg:
                kwargs[key] = plan_cfg[key]
        return replace(self.fx.plan if self.fx else SamplePlan(), **kwargs)

    def _grid(self) -> GridSpec:
        cfg = dict(self.config.get("grid", {}))
        window = self.args.window or cfg.pop("window", None)
        kwargs = {}
        if window:
            if isinstance(window, str):
                window = window.split(",")
            xmin, xmax, ymin, ymax = (float(t) for t in window)
            kwargs["center"] = complex((xmin + xmax) / 2, (ymin + ymax) / 2)
            kwargs["width"] = xmax - xmin
            kwargs["height"] = ymax - ymin
        cells = self.args.cells or cfg.pop("cells", None)
        if cells:
            kwargs["cols"] = kwargs["rows"] = int(cells)
        for key in ("max_iter", "escape_radius", "word_depth", "cols", "rows"):
            val = getattr(self.args, key, None)
            if val is None:
                val = cfg.pop(key, None)
            if val is not None:
                kwargs[key] = val
        return replace(self.fx.window if self.fx else GridSpec(), **kwargs)

    def _words(self) -> list[Word]:
        words = []
        for text in self.args.word or self.config.get("words", []):
            letters = text.split(",") if isinstance(text, str) else text
            words.append(Word(tuple(int(t) for t in letters)))
        n_random = self.get("random", 0) or 0
        if n_random:
            max_len = self.get("max_len", 6)
            if not 1 <= max_len <= MAX_WORD_LENGTH:
                raise UsageError(f"--max-len must be 1..{MAX_WORD_LENGTH}, got {max_len}")
            rng = np.random.default_rng(self.plan.seed)
            for _ in range(int(n_random)):
                length = int(rng.integers(1, max_len + 1))
                letters = rng.integers(1, len(self.S) + 1, length)
                words.append(Word(tuple(int(x) for x in letters)))
        if not words:
            raise UsageError("no words given; use --word or --random")
        for w in words:
            w.validate(self.S)
        return words

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def meta(self, extra: dict) -> dict:
        doc = {"seed": self.plan.seed, "tolerance": self.plan.tolerance, **extra}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return doc


# ---------------------------------------------------------------------------
# subcommands


def cmd_commutator(run: Run) -> int:
    doc = run.meta({"presentation": presentation_to_json_dict(run.S)})
    try:
        table = build_commutator_table(run.S, run.plan)
    except NotNearlyRepresentableError as exc:
        doc["failing_pairs"] = [list(p) for p in exc.failing_pairs]
        _write_json(run.path("commutator_table.json"), doc)
        print(f"no affine commutator for pairs: {exc.failing_pairs}", file=sys.stderr)
        return EXIT_TABLE_INCOMPLETE
    doc["table"] = table.to_json_dict()
    _write_json(run.path("commutator_table.json"), doc)
    print(f"table complete: {len(table.entries)} entries")
    return EXIT_OK


def cmd_verify(run: Run) -> int:
    S, plan = run.S, run.plan
    f = S.generator(1)
    g = S.generator(2) if len(S) >= 2 else S.generator(1)

    checks: list[dict] = []

    def record(name: str, holds: bool, residual: float, expected: bool | None = True):
        # expected None: informational, either outcome passes
        ok = expected is None or holds == expected
        checks.append(
            dict(check=name, holds=holds, expected=expected, ok=ok, residual=residual)
        )

    def record_error(name: str, exc: Exception):
        record(name, False, float("nan"))
        checks[-1]["error"] = str(exc)

    identities = [("diagonal", 1, "diagonal"), ("inverse", 1, "inverse")] + [
        (which, n, f"identity-{which}(n={n})")
        for which in ("1", "2", "3")
        for n in ((1, 2, 3) if which in ("1", "2") else (1,))
    ]
    for which, n, name in identities:
        try:
            rep = verify_identity(which, f, g, n=n, plan=plan)
        except MissingCommutatorError as exc:
            record_error("bracket-solve", exc)
            break
        except DegenerateSamplesError as exc:
            # no clean sample points for this comparison: it cannot pass
            record_error(name, exc)
            continue
        record(name, rep.holds, rep.residual)

    near = is_nearly_abelian(S, plan)
    record("nearly-abelian(algebraic)", near.algebraic, 0.0)

    if near.algebraic and len(S) >= 2:
        phi = near.table.entry(1, 2)
        conj = conjugate_semigroup(S, phi)
        near_conj = is_nearly_abelian(conj, plan)
        same = near.algebraic == near_conj.algebraic
        record("conjugation-preserves-nearly-abelian", same, 0.0)
        try:
            G = group_closure(near.table.maps())
        except ClosureOverflowError as exc:
            G, unclosed = None, exc  # xi is fitted and used unchecked, as in normal-form
        try:
            xi = resolve_xi(f, phi, G, plan)
            record("resolve-xi(f, phi)", True, 0.0)
            checks[-1]["xi"] = xi.to_json_dict()
            if G is not None:
                exists = left_resolve_exists(f, phi, G, plan)
                # the remark: the left-sided resolution may or may not exist,
                # so inline generators only report it; for the fixtures whose
                # commutator group closes (the involution pairs) it does not,
                # so its absence is their pass state
                expect_left = None if run.fx is None else False
                record("left-resolve-exists", exists, 0.0, expected=expect_left)
        except NoXiError as exc:
            # the migration f o phi = xi o f that the rewriting needs fails
            record_error("xi-resolution", exc)
        except DegenerateSamplesError as exc:
            record_error("resolve-xi(f, phi)", exc)
        if G is None:
            # the left-sided search runs over G, which did not close
            checks.append({"check": "left-resolve-exists", "not_run": str(unclosed),
                           "ok": True})

    doc = run.meta({"presentation": presentation_to_json_dict(S), "checks": checks})
    _write_json(run.path("verify_report.json"), doc)
    for c in checks:
        status = "skip" if "not_run" in c else "ok" if c.get("ok") else "FAIL"
        print(f"{status:4} {c.get('check')} residual={c.get('residual')}")
    return EXIT_OK if all(c["ok"] for c in checks) else EXIT_VERIFY_FAILED


def cmd_render(run: Run) -> int:
    spec, plan = run.spec, run.plan
    if run.map is not None:
        grid = classify_map(run.map, spec, workers=run.workers)
    else:
        grid = classify_semigroup(run.S, spec, workers=run.workers)

    meta = run.meta(
        {
            "grid": spec.to_json_dict(),
            "subject": grid.subject,
            "counts": grid.counts(),
            "boundary_cells": int(escape_boundary(grid).sum()),
            "workers": run.workers,
        },
    )
    comment = f"config={meta['config_hash']} seed={plan.seed}"
    write_pgm(run.path("classification.pgm"), status_bytes(grid), comment)
    write_pgm(run.path("heatmap.pgm"), heatmap_bytes(grid), comment)
    _write_json(run.path("render_meta.json"), meta)
    if run.args.csv or run.config.get("csv"):
        write_csv(run.path("classification.csv"), grid)
    print(
        f"rendered {spec.cols}x{spec.rows} {grid.subject}: "
        + ", ".join(f"{k}={v}" for k, v in grid.counts().items())
    )
    return EXIT_OK


def cmd_transport(run: Run) -> int:
    S, spec, workers = run.S, run.spec, run.workers
    threshold = run.threshold
    phi = run.phi
    if phi is None:
        if len(S) < 2:
            raise UsageError("phi defaults to the commutator of generators 1 and 2, "
                             "and a single generator has none; give --phi")
        near = is_nearly_abelian(S, run.plan)
        if not near.algebraic:
            print(f"incomplete commutator table: {near.failing_pairs}; give --phi",
                  file=sys.stderr)
            return EXIT_TABLE_INCOMPLETE
        phi = near.table.entry(1, 2)

    conj = conjugate_semigroup(S, phi)
    grid_s = classify_semigroup(S, spec, workers=workers)
    grid_c = classify_semigroup(conj, spec, workers=workers)

    rep_i, ratios, vacuous = transport_ratios(grid_s, grid_c, phi, spec)
    fatou_inv = check_fatou_invariance(grid_s, phi)
    meta = run.meta(
        {
            "grid": spec.to_json_dict(),
            "phi": phi.to_json_dict(),
            "ratios": ratios,
            "threshold": threshold,
            "compared": rep_i.compared,
            "fatou_invariance": {
                "ratio": fatou_inv.ratio,
                "indeterminate": fatou_inv.indeterminate,
            },
            "subjects": [grid_s.subject, grid_c.subject],
        },
    )
    diff = (rep_i.disagreement * 255).astype("uint8")
    write_pgm(run.path("transport_diff.pgm"), diff, f"config={meta['config_hash']}")
    _write_json(run.path("transport_report.json"), meta)
    for k, v in ratios.items():
        print(f"{k}: {v:.5f}")
        if vacuous[k]:
            print(f"{k}: vacuous (single-class masks)", file=sys.stderr)
    if any(v < threshold for v in ratios.values()):
        return EXIT_TRANSPORT_BELOW_THRESHOLD
    return EXIT_OK


def cmd_normal_form(run: Run) -> int:
    S, plan = run.S, run.plan
    near = is_nearly_abelian(S, plan)
    if not near.algebraic:
        print(f"incomplete commutator table: {near.failing_pairs}", file=sys.stderr)
        return EXIT_TABLE_INCOMPLETE
    try:
        G = group_closure(near.table.maps())
    except ClosureOverflowError:
        G = None  # each xi is fitted and used unchecked against the group

    # a failed word gets an error record, and the batch goes on
    results = []
    for w in run.words:
        try:
            nf = normal_form(w, S, near.table, G, plan)
        except (NoXiError, VerificationFailedError, DegenerateSamplesError) as exc:
            print(f"word {list(w.letters)}: {exc}", file=sys.stderr)
            results.append({"word": list(w.letters), "error": str(exc)})
        else:
            results.append(normal_form_to_json_dict(w, nf))

    doc = run.meta(
        {
            "presentation": presentation_to_json_dict(S),
            "normal_forms": results,
            "composition_order": "rightmost letter applied first",
        }
    )
    _write_json(run.path("normal_forms.json"), doc)
    residuals = [r["residual"] for r in results if "error" not in r]
    failed = len(results) - len(residuals)
    print(f"{len(residuals)} normal forms, max residual "
          f"{max(residuals, default=math.nan):.3e}"
          + (f", {failed} failed" if failed else ""))
    return EXIT_NORMAL_FORM_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, each returns a fresh Namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="sample plan seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--tolerance", type=float, help="relative tolerance")
    common.add_argument("--fixture", help="built-in fixture name")
    common.add_argument("--generators", nargs="+", help="inline prefix expressions")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--window", help="xmin,xmax,ymin,ymax")
    grid.add_argument("--cells", type=int, help="square cell count")
    grid.add_argument("--max-iter", type=int)
    grid.add_argument("--escape-radius", type=float)
    grid.add_argument("--word-depth", type=int)
    grid.add_argument("--workers", type=int)

    parser = argparse.ArgumentParser(
        prog="semidyn",
        description="semigroup dynamics of transcendental entire maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    command("commutator", cmd_commutator, "solve the pairwise commutator table")
    command("verify", cmd_verify, "run the identity and conjugation checks")

    p = command("render", cmd_render, "escape-time classification raster", grid)
    p.add_argument("--map", help="single map as a prefix expression")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--csv", action="store_true")

    p = command(
        "transport", cmd_transport, "verify affine transport of I/J/F grids", grid
    )
    p.add_argument("--phi", help="affine map as 'a;b' complex literals")
    p.add_argument("--threshold", type=float)

    p = command(
        "normal-form", cmd_normal_form, "rewrite words to prefix + sorted powers"
    )
    p.add_argument("--word", action="append", help="comma-separated letters, repeatable")
    p.add_argument("--random", type=int, help="number of random words")
    p.add_argument("--max-len", type=int)

    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    # argparse rejects values that start with '-' (e.g. --window -4,4,-4,4);
    # fold them into --flag=value form
    out, i = [], 0
    joinable = {"--window", "--phi"}
    while i < len(argv):
        tok = argv[i]
        if tok in joinable and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _fail(exc: Exception, code: int) -> int:
    print(f"semidyn: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = _join_dash_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        run = Run(args)
    except (ValueError, KeyError, OSError, TypeError) as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        return args.func(run)
    except (UsageError, ExprParseError, SpecMismatchError) as exc:
        return _fail(exc, EXIT_USAGE)
    except WordBudgetExceededError as exc:
        return _fail(exc, EXIT_WORD_BUDGET)


if __name__ == "__main__":
    sys.exit(main())
