"""Command-line front end: reproducible runs over fixtures and inline
expressions, emitting JSON reports, PGM rasters and CSV dumps.

Exit codes are a stable scripting contract: 0 success, 2 incomplete
commutator table, 3 failed identity check, 4 word budget exceeded,
5 transport agreement below threshold, 6 normal-form failure of some
word, 64 usage error (a malformed flag, expression, fixture name, window,
word or --phi, two of --fixture, --generators and --map, an empty
--fixture, --map or --phi, --word-depth with --map, a config file that
is not a JSON object or has a key that is not a flag of the subcommand
or a value that the flag rejects, a worker count that is negative or
over grid.WORKER_CAP, a grid under 2x2 or over grid.CELL_BUDGET cells, a
word depth over 32, a window, escape radius or threshold that is not
finite, a --random count over RANDOM_CAP, transport without --phi on a
single generator, or an --out directory where a report or raster cannot
be written).

A --config file is flags in JSON: each key is a flag's dest (max_iter for
--max-iter), at the top level or inside a top-level "grid" or "plan"
object, which only groups them, and no dest may appear twice.  The
subcommand's own parser reads the entries as those flags, and a flag given
on the command line wins.
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
    AffineGroup,
    ClosureOverflowError,
    CommutatorTable,
    DegenerateSamplesError,
    MissingCommutatorError,
    SemigroupPresentation,
    check_identity,
    conjugate_semigroup,
    group_closure,
    is_nearly_abelian,
    presentation_to_json_dict,
)
from .expr import AffineMap, SamplePlan, parse_complex, parse_expr
from .fixtures import Fixture, get_fixture
from .grid import (
    GridSpec,
    WordBudgetExceededError,
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
# the most words --random draws; 65536 cos words of up to 6 letters take 12 s
RANDOM_CAP = 65536


class UsageError(ValueError):
    pass


class Run:
    """One invocation's inputs, read from the merged namespace of flags
    and config.  Each piece is built only for the subcommands that declare
    its flag, and all of it before any work starts, so malformed input
    raises ValueError or OSError here; a flag is given when not None."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        flags = vars(args)
        sources = [k for k in ("map", "fixture", "generators") if flags.get(k) is not None]
        if not sources:
            raise UsageError("need --fixture or --generators (render: or --map)")
        if len(sources) > 1:
            raise UsageError(f"--{sources[0]} and --{sources[1]} each name the semigroup; "
                             "give one")
        self.map = parse_expr(args.map) if sources == ["map"] else None
        if self.map is not None and args.word_depth is not None:
            raise UsageError("--word-depth takes a semigroup; --map iterates one map")
        self.S, self.fx = (None, None) if self.map is not None else self._presentation()
        self.plan = self._plan()
        self.spec = self._grid() if "window" in flags else None
        self.workers = resolve_workers(args.workers) if "workers" in flags else None
        self.phi = None
        if (phi := flags.get("phi")) is not None:
            if phi.count(";") != 1:
                raise UsageError(f"--phi takes 'a;b', got {phi!r}")
            a, b = phi.split(";")
            self.phi = AffineMap(parse_complex(a), parse_complex(b))
        self.words = self._words() if "words" in flags else []
        self.threshold = 0.99 if flags.get("threshold") is None else args.threshold
        if not math.isfinite(self.threshold):
            raise UsageError(f"threshold {self.threshold!r} is not finite")
        self.out = "." if args.out is None else args.out
        os.makedirs(self.out, exist_ok=True)
        if "phi" in flags and self.phi is None and len(self.S) < 2:
            raise UsageError("phi defaults to the commutator of generators 1 and 2, "
                             "and a single generator has none; give --phi")

    def _presentation(self) -> tuple[SemigroupPresentation, Fixture | None]:
        if self.args.fixture is not None:
            fx = get_fixture(self.args.fixture)
            return fx.presentation, fx
        exprs = tuple(parse_expr(t) for t in self.args.generators)
        S = SemigroupPresentation(exprs, label="inline")
        return S, None

    def _given(self, *keys: str) -> dict:
        """The flags among keys that are set, by dest."""
        return {k: v for k, v in vars(self.args).items() if k in keys and v is not None}

    def _plan(self) -> SamplePlan:
        given = self._given("seed", "tolerance")
        return replace(self.fx.plan if self.fx else SamplePlan(), **given)

    def _grid(self) -> GridSpec:
        kwargs = {}
        if (window := self.args.window) is not None:
            try:
                xmin, xmax, ymin, ymax = (float(t) for t in window.split(","))
            except ValueError:
                raise UsageError(f"--window takes xmin,xmax,ymin,ymax, got {window!r}") from None
            kwargs["center"] = complex((xmin + xmax) / 2, (ymin + ymax) / 2)
            kwargs["width"] = xmax - xmin
            kwargs["height"] = ymax - ymin
        if self.args.cells is not None:
            kwargs["cols"] = kwargs["rows"] = self.args.cells
        kwargs.update(self._given("max_iter", "escape_radius", "word_depth",
                                  "cols", "rows"))
        return replace(self.fx.window if self.fx else GridSpec(), **kwargs)

    def _words(self) -> list[Word]:
        words = []
        for text in self.args.words or []:
            try:
                letters = tuple(int(t) for t in text.split(","))
            except ValueError:
                raise UsageError(f"--word takes generator numbers separated by commas, "
                                 f"got {text!r}") from None
            words.append(Word(letters))
        max_len = 6 if self.args.max_len is None else self.args.max_len
        if not 1 <= max_len <= MAX_WORD_LENGTH:
            raise UsageError(f"--max-len must be 1..{MAX_WORD_LENGTH}, got {max_len}")
        count = self.args.random or 0
        if count < 0:
            raise UsageError(f"--random must be >= 0, got {count}")
        if count > RANDOM_CAP:
            raise UsageError(f"--random must be at most {RANDOM_CAP}, got {count}")
        if count:
            rng = np.random.default_rng(self.plan.seed)
            for _ in range(count):
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

    def report(self, name: str, body: dict) -> str:
        """Write the JSON report `name`: the seed, the tolerance and body,
        and their hash as config_hash.  Returns config_hash."""
        doc = {"seed": self.plan.seed, "tolerance": self.plan.tolerance, **body}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
        with open(self.path(name), "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return doc["config_hash"]


# ---------------------------------------------------------------------------
# subcommands


def _table(run: Run, hint: str = "") -> CommutatorTable | None:
    """run.S's commutator table, or None after naming its missing pairs on stderr."""
    table = is_nearly_abelian(run.S, run.plan)
    if not table.algebraic:
        print(f"incomplete commutator table: {table.failing_pairs}{hint}", file=sys.stderr)
    return table if table.algebraic else None


def _group(table: CommutatorTable) -> tuple[AffineGroup | None, str]:
    """The group the table's maps generate and "", or None where it does
    not close and why: each xi is then fitted and used unchecked against
    the group."""
    try:
        return group_closure(table.maps()), ""
    except ClosureOverflowError as exc:
        return None, str(exc)


def cmd_commutator(run: Run) -> int:
    table = is_nearly_abelian(run.S, run.plan)
    pairs = list(table.failing_pairs)
    results = ({"table": table.to_json_dict()} if table.algebraic
               else {"failing_pairs": [list(p) for p in pairs]})
    run.report("commutator_table.json",
               {"presentation": presentation_to_json_dict(run.S), **results})
    if not table.algebraic:
        print(f"no affine commutator for pairs: {pairs}", file=sys.stderr)
        return EXIT_TABLE_INCOMPLETE
    print(f"table complete: {len(table.entries)} entries")
    return EXIT_OK


def cmd_verify(run: Run) -> int:
    S, plan = run.S, run.plan
    f, g = S.generator(1), S.generator(min(2, len(S)))

    checks: list[dict] = []

    def record(name: str, holds: bool, residual: float, expected: bool | None = True,
               **extra):
        # expected None: informational, either outcome passes
        ok = expected is None or holds == expected
        checks.append(dict(check=name, holds=holds, expected=expected, ok=ok,
                           residual=residual, **extra))

    identities = [("diagonal", 1, "diagonal"), ("inverse", 1, "inverse")] + [
        (which, n, f"identity-{which}(n={n})")
        for which in ("1", "2", "3")
        for n in ((1, 2, 3) if which in ("1", "2") else (1,))
    ]
    table = is_nearly_abelian(S, plan)
    for which, n, name in identities:
        try:
            rep = check_identity(which, f, g, n, plan, table)
        except MissingCommutatorError as exc:
            record("bracket-solve", False, math.nan, error=str(exc))
            break
        except DegenerateSamplesError as exc:
            # no clean sample points for this comparison: it cannot pass
            record(name, False, math.nan, error=str(exc))
            continue
        record(name, rep.holds, rep.residual)
    record("nearly-abelian(algebraic)", table.algebraic, 0.0)

    if table.algebraic and len(S) >= 2:
        phi = table.entry(1, 2)
        conj = conjugate_semigroup(S, phi)
        same = is_nearly_abelian(conj, plan).algebraic  # table.algebraic holds here
        record("conjugation-preserves-nearly-abelian", same, 0.0)
        G, not_closed = _group(table)
        try:
            xi = resolve_xi(f, phi, G, plan)
            record("resolve-xi(f, phi)", True, 0.0, xi=xi.to_json_dict())
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
            record("xi-resolution", False, math.nan, error=str(exc))
        except DegenerateSamplesError as exc:
            record("resolve-xi(f, phi)", False, math.nan, error=str(exc))
        if G is None:
            # the left-sided search runs over G, which did not close
            checks.append({"check": "left-resolve-exists",
                           "not_run": not_closed, "ok": True})

    run.report("verify_report.json",
               {"presentation": presentation_to_json_dict(S), "checks": checks})
    for c in checks:
        status = "skip" if "not_run" in c else "ok" if c.get("ok") else "FAIL"
        print(f"{status:4} {c.get('check')} residual={c.get('residual')}")
    if f == g:  # every bracket is [f, f^m], the identity
        print("identities: vacuous (f and g are one tree)", file=sys.stderr)
    return EXIT_OK if all(c["ok"] for c in checks) else EXIT_VERIFY_FAILED


def cmd_render(run: Run) -> int:
    spec = run.spec
    record = spec.to_json_dict()
    if run.map is not None:
        grid = classify_map(run.map, spec, workers=run.workers)
        del record["word_depth"]  # the one map is iterated, not words of it
    else:
        grid = classify_semigroup(run.S, spec, workers=run.workers)

    counts = grid.counts()
    config_hash = run.report("render_meta.json", {
        "grid": record,
        "subject": grid.subject,
        "counts": counts,
        "boundary_cells": int(escape_boundary(grid).sum()),
        "workers": run.workers,
    })
    comment = f"config={config_hash} seed={run.plan.seed}"
    write_pgm(run.path("classification.pgm"), status_bytes(grid), comment)
    write_pgm(run.path("heatmap.pgm"), heatmap_bytes(grid), comment)
    if run.args.csv:
        write_csv(run.path("classification.csv"), grid)
    print(f"rendered {spec.cols}x{spec.rows} {grid.subject}: "
          + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return EXIT_OK


def cmd_transport(run: Run) -> int:
    S, spec, workers, phi = run.S, run.spec, run.workers, run.phi
    if phi is None:
        table = _table(run, "; give --phi")
        if table is None:
            return EXIT_TABLE_INCOMPLETE
        phi = table.entry(1, 2)

    conj = conjugate_semigroup(S, phi)
    grid_s = classify_semigroup(S, spec, workers=workers)
    grid_c = classify_semigroup(conj, spec, workers=workers)

    (rep_i, fatou_inv), ratios, vacuous = transport_ratios(grid_s, grid_c, phi, spec)
    config_hash = run.report("transport_report.json", {
        "grid": spec.to_json_dict(),
        "phi": phi.to_json_dict(),
        "ratios": ratios,
        "threshold": run.threshold,
        "compared": rep_i.compared,
        "fatou_invariance": {
            "ratio": fatou_inv.ratio,
            "indeterminate": fatou_inv.indeterminate,
        },
        "subjects": [grid_s.subject, grid_c.subject],
    })
    diff = (rep_i.disagreement * 255).astype("uint8")
    write_pgm(run.path("transport_diff.pgm"), diff, f"config={config_hash}")
    for k, v in ratios.items():
        print(f"{k}: {v:.5f}")
        if vacuous[k]:
            print(f"{k}: vacuous (single-class masks)", file=sys.stderr)
    if fatou_inv.indeterminate:
        print("fatou_invariance: indeterminate (no Fatou cells compared)", file=sys.stderr)
    below = any(v < run.threshold for v in ratios.values())
    return EXIT_TRANSPORT_BELOW_THRESHOLD if below else EXIT_OK


def cmd_normal_form(run: Run) -> int:
    S, plan = run.S, run.plan
    table = _table(run)
    if table is None:
        return EXIT_TABLE_INCOMPLETE
    G, _ = _group(table)

    # a failed word gets an error record, and the batch goes on
    results = []
    for w in run.words:
        try:
            nf = normal_form(w, S, table, G, plan)
        except (NoXiError, VerificationFailedError, DegenerateSamplesError) as exc:
            print(f"word {list(w.letters)}: {exc}", file=sys.stderr)
            results.append({"word": list(w.letters), "error": str(exc)})
        else:
            results.append(normal_form_to_json_dict(w, nf))

    run.report("normal_forms.json", {
        "presentation": presentation_to_json_dict(S),
        "normal_forms": results,
        "composition_order": "rightmost letter applied first",
    })
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
    p.add_argument("--csv", action="store_true", default=None)

    p = command(
        "transport", cmd_transport, "verify affine transport of I/J/F grids", grid
    )
    p.add_argument("--phi", help="affine map as 'a;b' complex literals")
    p.add_argument("--threshold", type=float)

    p = command(
        "normal-form", cmd_normal_form, "rewrite words to prefix + sorted powers"
    )
    p.add_argument("--word", dest="words", action="append",
                   help="comma-separated letters, repeatable")
    p.add_argument("--random", type=int, help="number of random words")
    p.add_argument("--max-len", type=int)

    return parser


def _config_argv(options: dict[str, argparse.Action], config: dict) -> list[str]:
    """The flags a config object stands for, each option by its dest; a
    top-level "grid" or "plan" object only groups them.  A JSON value must
    be what the flag takes: true or false for a switch, a string for text,
    a number for a number, and a list only for a flag that takes several
    values."""
    entries = []
    for key, value in config.items():
        grouped = key in ("grid", "plan") and isinstance(value, dict)
        entries += value.items() if grouped else [(key, value)]
    keys, argv = [key for key, _ in entries], []
    for key, value in entries:
        if key not in options:
            raise UsageError(f"config key {key!r} is not a flag of this subcommand")
        if keys.count(key) > 1:
            raise UsageError(f"config key {key!r} is given twice")
        action = options[key]
        flag = action.option_strings[0]
        many = action.nargs == "+" or isinstance(action, argparse._AppendAction)
        values = value if many and isinstance(value, list) else [value]
        kinds = ((bool,) if action.nargs == 0 else (str,) if action.type is None
                 else (int, float))
        if not all(type(v) in kinds for v in values):
            raise UsageError(f"config key {key!r}: {flag} cannot take "
                             f"{json.dumps(value)}")
        texts = [v if type(v) is str else json.dumps(v) for v in values]
        if action.nargs == 0:
            argv += [flag] if value else []
        elif action.nargs == "+":
            argv += [flag, *texts]
        else:
            argv += [f"{flag}={t}" for t in texts]
    return argv


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The command line's namespace.  With --config, each dest it leaves
    unset takes its value from a second parse, of the file's flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"config {args.config} is not a JSON object")
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    options = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    from_file = parser.parse_args([args.command, *_config_argv(options, config)])
    for dest, value in vars(args).items():
        if value is None:
            setattr(args, dest, getattr(from_file, dest))
    return args


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
        args = parse_args(argv)
        run = Run(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        return args.func(run)
    except WordBudgetExceededError as exc:
        return _fail(exc, EXIT_WORD_BUDGET)
    except OSError as exc:  # a report or raster that cannot be written
        return _fail(exc, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
