import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semidyn
import semidyn.commutator
import semidyn.expr
import semidyn.words
from semidyn.cli import (
    EXIT_NORMAL_FORM_FAILED,
    EXIT_OK,
    EXIT_TABLE_INCOMPLETE,
    EXIT_TRANSPORT_BELOW_THRESHOLD,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    EXIT_WORD_BUDGET,
    RANDOM_CAP,
    Run,
    UsageError,
    _join_dash_values,
    build_parser,
    main,
    parse_args,
)
from semidyn.expr import MAX_EXPR_DEPTH, AffineMap, children, compose, format_expr


def run(*args):
    return main(list(args))


def run_process(*args):
    """The CLI in its own interpreter, as a user would start it."""
    src = os.path.dirname(os.path.dirname(semidyn.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-m", "semidyn.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestCommutatorCommand:
    def test_fixture_table(self, tmp_path):
        out = tmp_path / "o"
        assert run("commutator", "--fixture", "example-2.1-exp",
                   "--out", str(out)) == EXIT_OK
        doc = json.loads((out / "commutator_table.json").read_text())
        entries = {(e["i"], e["j"]): e for e in doc["table"]["entries"]}
        a12 = float(entries[(1, 2)]["a"].split(",")[0])
        assert abs(a12 + 1) < 1e-9
        assert "config_hash" in doc and "seed" in doc

    def test_single_generator(self, tmp_path):
        assert run("commutator", "--generators", "cos(z)",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "commutator_table.json").read_text())
        assert len(doc["table"]["entries"]) == 1

    def test_non_pair_exits_2(self, tmp_path, capsys):
        code = run("commutator", "--generators", "exp(z)", "pow(z,2)",
                   "--out", str(tmp_path))
        assert code == EXIT_TABLE_INCOMPLETE
        assert "(1, 2)" in capsys.readouterr().err

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("commutator", "--out", str(tmp_path)) == EXIT_USAGE


class TestVerifyCommand:
    def test_fixture_passes(self, tmp_path):
        assert run("verify", "--fixture", "example-2.1-cos",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        names = {c["check"] for c in doc["checks"]}
        assert {"diagonal", "inverse", "left-resolve-exists"} <= names
        left = next(c for c in doc["checks"] if c["check"] == "left-resolve-exists")
        assert left["holds"] is False and left["expected"] is False

    def test_abelian_single_generator(self, tmp_path):
        assert run("verify", "--generators", "cos(z)",
                   "--out", str(tmp_path)) == EXIT_OK

    def test_inline_involution_passes(self, tmp_path):
        # the same maps as example-2.1-cos; with no fixture the left-sided
        # resolution is reported, not expected either way
        assert run("verify", "--generators", "cos(z)", "neg(cos(z))",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        left = next(c for c in doc["checks"] if c["check"] == "left-resolve-exists")
        assert left["expected"] is None and left["ok"] is True

    def test_failing_brackets_exit_3(self, tmp_path):
        code = run("verify", "--generators", "exp(z)", "cos(z)",
                   "--out", str(tmp_path))
        assert code == EXIT_VERIFY_FAILED

    def test_unclosed_group_resolves_xi_without_it(self, tmp_path):
        # the commutator group of derived-exp-shift does not close: xi is
        # fitted as in normal-form, where e^(ez - e) is no affine map of e^z,
        # and the left-sided search over the group is recorded as not run
        assert run("verify", "--fixture", "derived-exp-shift",
                   "--out", str(tmp_path)) == EXIT_VERIFY_FAILED
        checks = {c["check"]: c for c in json.loads(
            (tmp_path / "verify_report.json").read_text())["checks"]}
        assert checks["xi-resolution"]["error"].startswith("no affine xi migrates")
        assert checks["xi-resolution"]["ok"] is False
        assert checks["left-resolve-exists"] == {
            "check": "left-resolve-exists", "not_run": "closure exceeded cap 64", "ok": True}

    @staticmethod
    def searched_lists(monkeypatch, tmp_path, *argv) -> list[tuple[str, ...]]:
        """The expression lists a verify run searches, spied on every module
        that binds find_clean_points."""
        real, lists = semidyn.expr.find_clean_points, []

        def spy(exprs, plan):
            lists.append(tuple(map(format_expr, exprs)))
            return real(exprs, plan)

        for module in (semidyn.expr, semidyn.commutator, semidyn.words):
            monkeypatch.setattr(module, "find_clean_points", spy)
        run("verify", *argv, "--out", str(tmp_path))
        return lists

    @pytest.mark.parametrize("fixture,searches", [
        ("example-2.1-exp", 16), ("example-2.1-cos", 16), ("derived-exp-shift", 7)])
    def test_each_search_once(self, tmp_path, monkeypatch, fixture, searches):
        # the identity checks read [f, g] and [g, f] from S's table, whose
        # one search serves both orders of the pair
        lists = self.searched_lists(monkeypatch, tmp_path, "--fixture", fixture)
        assert len(lists) == len(set(lists)) == searches
        f, g = semidyn.FIXTURES[fixture].presentation.generators
        fg, gf = format_expr(compose(f, g)), format_expr(compose(g, f))
        assert lists.count((fg, gf)) + lists.count((gf, fg)) == 1

    @pytest.mark.parametrize("g", ["pow(z,2)", "cos(z)"])
    def test_failing_table_searches_once(self, tmp_path, monkeypatch, g):
        # the inverse identity reads the failed pair's error from S's table
        # instead of searching the pair again for it
        lists = self.searched_lists(monkeypatch, tmp_path, "--generators", "exp(z)", g)
        assert len(lists) == len(set(lists)) == 1

    @pytest.mark.parametrize("argv,vacuous", [
        (["--generators", "exp(z)"], True),
        (["--generators", "exp(z)", "exp(z)"], True),
        *((["--fixture", fx], False)
          for fx in ("example-2.1-exp", "example-2.1-cos", "derived-exp-shift")),
    ])
    def test_one_tree_identities_flagged(self, tmp_path, capsys, argv, vacuous):
        # with f and g one tree every bracket is [f, f^m], the identity, so
        # the identity checks pass by construction
        code = run("verify", *argv, "--out", str(tmp_path))
        flagged = "identities: vacuous (f and g are one tree)\n" in capsys.readouterr().err
        assert flagged == vacuous
        if vacuous:
            assert code == EXIT_OK


class TestRenderCommand:
    def test_map_render(self, tmp_path):
        out = tmp_path / "r"
        assert run("render", "--map", "exp(z)", "--window", "-4,4,-4,4",
                   "--cells", "32", "--out", str(out)) == EXIT_OK
        assert (out / "classification.pgm").exists()
        assert (out / "heatmap.pgm").exists()
        meta = json.loads((out / "render_meta.json").read_text())
        assert meta["grid"]["cols"] == 32
        assert "word_depth" not in meta["grid"]  # one map, no words of it
        assert meta["counts"]["escaping"] > 0

    def test_semigroup_depth_one_equals_map(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("render", "--generators", "cos(z)", "--cells", "32",
                   "--word-depth", "1", "--out", str(a)) == EXIT_OK
        assert run("render", "--map", "cos(z)",
                   "--cells", "32", "--out", str(b)) == EXIT_OK
        pa = (a / "classification.pgm").read_bytes()
        pb = (b / "classification.pgm").read_bytes()
        assert pa.split(b"\n", 2)[-1].split(b"\n", 1)[-1] == \
               pb.split(b"\n", 2)[-1].split(b"\n", 1)[-1]

    def test_smoke_run_is_fast(self, tmp_path):
        t0 = time.time()
        assert run("render", "--map", "cos(z)", "--cells", "16",
                   "--csv", "--out", str(tmp_path)) == EXIT_OK
        assert time.time() - t0 < 1.0
        assert (tmp_path / "classification.csv").exists()

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("render", "--fixture", "example-2.1-cos", "--cells", "48",
                       "--out", str(out)) == EXIT_OK
        for name in ("classification.pgm", "heatmap.pgm", "render_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overflow_prints_no_warning(self, tmp_path):
        # iterates up to the 1e150 ceiling stay inside the 1e200 escape
        # radius, and cubing them overflows a float; the bad mask records
        # those cells, so numpy's warning is noise
        proc = run_process("render", "--generators", "mul(z, z, z)",
                           "neg(mul(z,z,z))", "--window", "-4,4,-4,4", "--cells", "8",
                           "--escape-radius", "1e200", "--out", str(tmp_path))
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""

    def test_word_budget_exit_4(self, tmp_path):
        assert run("render", "--fixture", "example-2.1-cos", "--cells", "16",
                   "--word-depth", "13", "--out", str(tmp_path)) == EXIT_WORD_BUDGET

    def test_no_subject_usage_error(self, tmp_path):
        assert run("render", "--out", str(tmp_path)) == EXIT_USAGE


class TestTransportCommand:
    def test_identity_phi_exact(self, tmp_path):
        assert run("transport", "--fixture", "example-2.1-cos", "--cells", "48",
                   "--phi", "1+0i;0+0i", "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "transport_report.json").read_text())
        assert all(v == 1.0 for v in doc["ratios"].values())

    def test_fixture_negation(self, tmp_path):
        assert run("transport", "--fixture", "example-2.1-cos", "--cells", "96",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "transport_report.json").read_text())
        assert all(v >= 0.99 for v in doc["ratios"].values())
        assert (tmp_path / "transport_diff.pgm").exists()

    def test_without_phi_names_the_cause(self, tmp_path, capsys):
        # one generator's table is complete but has no pair to take phi
        # from, and inline generators are no fixture
        run("transport", "--generators", "exp(z)", "--cells", "8", "--out", str(tmp_path))
        assert "single generator" in capsys.readouterr().err
        run("transport", "--generators", "exp(z)", "pow(z,2)", "--cells", "8",
            "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert "incomplete commutator table: ((1, 2), (2, 1))" in err
        assert "fixture" not in err

    def test_exp_fatou_invariance_is_indeterminate(self, tmp_path):
        # every cell escapes and e^{z^2}+0.2 is in class B, so the Fatou
        # mask is empty and the invariance check has nothing to compare
        assert run("transport", "--fixture", "example-2.1-exp", "--cells", "48",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "transport_report.json").read_text())
        assert doc["fatou_invariance"]["indeterminate"] is True

    # on the two exp fixtures every cell escapes and the generators are in
    # class B, so the Fatou mask is empty and the invariance check compares
    # no cell; the cos fixture has Fatou cells
    @pytest.mark.parametrize("fixture,flagged", [
        ("derived-exp-shift", True), ("example-2.1-exp", True), ("example-2.1-cos", False),
    ])
    def test_indeterminate_fatou_invariance_flagged(self, tmp_path, capsys, fixture, flagged):
        assert run("transport", "--fixture", fixture, "--cells", "64",
                   "--out", str(tmp_path)) == EXIT_OK
        line = "fatou_invariance: indeterminate (no Fatou cells compared)"
        assert (line in capsys.readouterr().err.splitlines()) is flagged
        doc = json.loads((tmp_path / "transport_report.json").read_text())
        assert doc["fatou_invariance"]["indeterminate"] is flagged

    @pytest.mark.parametrize("fixture,vacuous", [
        # every cell escapes: I and J are all-True and F all-False on both sides
        ("example-2.1-exp", ["escaping", "julia", "fatou"]),
        ("example-2.1-cos", []),
    ])
    def test_vacuous_ratios_flagged(self, tmp_path, capsys, fixture, vacuous):
        assert run("transport", "--fixture", fixture, "--cells", "64",
                   "--out", str(tmp_path)) == EXIT_OK
        flagged = [line.split(":")[0] for line in capsys.readouterr().err.splitlines()
                   if line.endswith(": vacuous (single-class masks)")]
        assert flagged == vacuous

    def test_bad_phi_usage(self, tmp_path):
        assert run("transport", "--fixture", "example-2.1-cos",
                   "--phi", "0+0i;0+0i", "--out", str(tmp_path)) == EXIT_USAGE

    def test_threshold_failure_exit_5(self, tmp_path):
        # an unattainable threshold exercises the failure exit path
        code = run("transport", "--fixture", "example-2.1-cos", "--cells", "48",
                   "--phi", "1+0i;0+0i", "--threshold", "1.1",
                   "--out", str(tmp_path))
        assert code == EXIT_TRANSPORT_BELOW_THRESHOLD

    # f = 0.2 e^z and g = f + 0.1 are not symmetric under any phi below, and
    # some target cells have preimages outside the source window, so the
    # Julia ratio (over every cell) and the Fatou ratio (over the cells with
    # a preimage) differ; the first phi is the pair's commutator entry (2, 1)
    @pytest.mark.parametrize("phi,code,report,diff", [
        ("0.9048374180359595+0i;0.1+0i", EXIT_TRANSPORT_BELOW_THRESHOLD,
         "249d0e617abf7588f2bf3abd0bf358811d36301c6bfa3a589daacce19c070713",
         "4de7df5e159d80dee7c07a94bb47944c3774747ead8f0af4677e4442be9d7898"),
        ("1+0i;0.5+0.25i", EXIT_OK,
         "75e83cbdd0e326985fd55768b8ed5cfa0caeb58dbfc265521e929aa08485e314",
         "a0a3392c24801fc5103d38091e46cfea2fd313c00aa11b1f82192b162da01aa4"),
    ])
    def test_asymmetric_transport_is_pinned(self, tmp_path, phi, code, report, diff):
        assert run("transport", "--generators", "mul(const(0.2+0i), exp(z))",
                   "add(mul(const(0.2+0i), exp(z)), const(0.1+0i))",
                   "--window", "-4,4,-4,4", "--cells", "96", "--workers", "1",
                   "--phi", phi, "--out", str(tmp_path)) == code
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("transport_report.json", "transport_diff.pgm")]
        assert digests == [report, diff]
        ratios = json.loads((tmp_path / "transport_report.json").read_text())["ratios"]
        assert ratios["julia"] != ratios["fatou"]

    def test_contracting_phi_warns_nothing(self, tmp_path):
        # phi^{-1} = 1e300 z carries every target cell far outside the source
        # window, beyond what a cell index can hold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("transport", "--fixture", "example-2.1-cos", "--cells", "80",
                       "--phi", "1e-300;0", "--out", str(tmp_path))
        assert code == EXIT_TRANSPORT_BELOW_THRESHOLD


class TestNormalFormCommand:
    def test_explicit_words(self, tmp_path):
        assert run("normal-form", "--fixture", "example-2.1-exp",
                   "--word", "2,1", "--word", "1",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "normal_forms.json").read_text())
        first = doc["normal_forms"][0]
        assert first["word"] == [2, 1]
        assert abs(float(first["prefix"]["a"].split(",")[0]) + 1) < 1e-9
        assert first["exponents"] == [1, 1]
        second = doc["normal_forms"][1]
        assert second["prefix"]["a"].startswith("1.0")

    def test_random_batch(self, tmp_path):
        assert run("normal-form", "--fixture", "example-2.1-cos",
                   "--random", "20", "--max-len", "6",
                   "--out", str(tmp_path)) == EXIT_OK
        doc = json.loads((tmp_path / "normal_forms.json").read_text())
        assert len(doc["normal_forms"]) == 20
        for rec in doc["normal_forms"]:
            assert sum(rec["exponents"]) == len(rec["word"])
            assert rec["residual"] < 1e-9

    # the commutator group of derived-exp-shift does not close, so each xi
    # is fitted without it: a word fails only on a migration with no
    # affine xi, and phi = z/e + 1 has none across exp(z)
    def test_migration_without_affine_xi_exit_6(self, tmp_path, capsys):
        code = run("normal-form", "--fixture", "derived-exp-shift",
                   "--word", "1,2,1", "--out", str(tmp_path))
        assert code == EXIT_NORMAL_FORM_FAILED
        err = capsys.readouterr().err
        assert "no affine xi migrates" in err and "across exp(z)" in err
        assert "affine fit residual 1.730e+00" in err

    def test_failed_word_keeps_the_batch(self, tmp_path, capsys):
        code = run("normal-form", "--fixture", "derived-exp-shift",
                   "--word", "2,1", "--word", "1,2,1", "--out", str(tmp_path))
        assert code == EXIT_NORMAL_FORM_FAILED
        good, failed = json.loads((tmp_path / "normal_forms.json").read_text())["normal_forms"]
        assert good["word"] == [2, 1] and good["exponents"] == [1, 1]
        assert "error" not in good
        assert failed["word"] == [1, 2, 1] and set(failed) == {"word", "error"}
        assert "no affine xi migrates" in failed["error"]
        assert "1 normal forms" in capsys.readouterr().out

    def test_infinite_commutator_group_word_without_migration(self, tmp_path):
        assert run("normal-form", "--fixture", "derived-exp-shift",
                   "--word", "2,1", "--out", str(tmp_path)) == EXIT_OK
        rec, = json.loads((tmp_path / "normal_forms.json").read_text())["normal_forms"]
        assert rec["exponents"] == [1, 1]

    def test_translation_commutator_migrates_unchecked(self, tmp_path):
        # <e^z, e^z + 2 pi i>: the commutator group of translations by
        # multiples of 2 pi i is infinite, and every migration has xi = id
        assert run("normal-form", "--generators", "exp(z)",
                   "add(exp(z), const(0+6.283185307179586i))",
                   "--word", "2,1,2,1", "--out", str(tmp_path)) == EXIT_OK
        rec, = json.loads((tmp_path / "normal_forms.json").read_text())["normal_forms"]
        assert rec["exponents"] == [2, 2]
        assert rec["residual"] <= 1e-9

    def test_no_words_usage(self, tmp_path):
        assert run("normal-form", "--fixture", "example-2.1-exp",
                   "--out", str(tmp_path)) == EXIT_USAGE


class TestReports:
    @pytest.mark.parametrize("argv,name", [
        (["commutator", "--fixture", "example-2.1-cos"], "commutator_table.json"),
        (["commutator", "--generators", "exp(z)", "pow(z,2)"], "commutator_table.json"),
        (["verify", "--fixture", "example-2.1-cos"], "verify_report.json"),
        (["render", "--fixture", "example-2.1-cos", "--cells", "8"], "render_meta.json"),
        (["transport", "--fixture", "example-2.1-cos", "--cells", "8"],
         "transport_report.json"),
        (["normal-form", "--fixture", "example-2.1-exp", "--word", "2,1"],
         "normal_forms.json"),
    ])
    def test_config_hash_covers_the_report(self, tmp_path, argv, name):
        # one rule for every report: the hash of everything else it holds,
        # results included
        run(*argv, "--out", str(tmp_path))
        doc = json.loads((tmp_path / name).read_text())
        blob = json.dumps({k: v for k, v in doc.items() if k != "config_hash"},
                          sort_keys=True, separators=(",", ":"))
        assert doc["config_hash"] == hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestExitCodeContract:
    # env: the files the run finds, each JSON document written under its
    # name into the directory that "{tmp}" in argv stands for
    EXP_14 = ",".join(["1"] * 14)
    CASES = [
        ({}, ["render", "--map", "foo("], EXIT_USAGE),
        ({}, ["render", "--map", "exp(z, z)"], EXIT_USAGE),
        ({}, ["render", "--fixture", "nope"], EXIT_USAGE),
        # a negative worker count once ran one worker
        ({}, ["render", "--map", "exp(z)", "--workers", "-1"], EXIT_USAGE),
        ({}, ["render", "--map", "exp(z)", "--window", "a,b"], EXIT_USAGE),
        ({}, ["render", "--map", "exp(z)", "--cells", "1"], EXIT_USAGE),
        ({}, ["render", "--map", "exp(z)", "--window", "1,1,0,1"], EXIT_USAGE),
        ({}, ["normal-form", "--fixture", "example-2.1-exp", "--word", "1,3"],
         EXIT_USAGE),
        ({}, ["commutator", "--config", "{tmp}/missing.json"], EXIT_USAGE),
        ({"grid5.json": {"grid": 5}},
         ["render", "--map", "exp(z)", "--config", "{tmp}/grid5.json"], EXIT_USAGE),
        # the composed tree overflows everywhere: no clean sample points
        ({}, ["normal-form", "--fixture", "example-2.1-exp", "--word", EXP_14],
         EXIT_NORMAL_FORM_FAILED),
        # non-finite grid and transport values
        ({}, ["transport", "--fixture", "example-2.1-cos", "--cells", "8",
              "--threshold", "nan"], EXIT_USAGE),
        ({}, ["render", "--map", "cos(z)", "--cells", "8", "--escape-radius", "nan"],
         EXIT_USAGE),
        ({}, ["render", "--fixture", "example-2.1-cos", "--cells", "8",
              "--window", "0,inf,0,1"], EXIT_USAGE),
        ({}, ["transport", "--fixture", "example-2.1-cos", "--cells", "8",
              "--window", "0,inf,0,1"], EXIT_USAGE),
        # 1/a overflows, so phi has no inverse to transport by
        ({}, ["transport", "--fixture", "example-2.1-cos", "--cells", "8",
              "--phi", "1e-320;0"], EXIT_USAGE),
        # --max-len outside 1..32, whatever length the seed draws
        ({}, ["normal-form", "--fixture", "example-2.1-cos", "--random", "3",
              "--max-len", "0"], EXIT_USAGE),
        ({}, ["normal-form", "--fixture", "example-2.1-cos", "--random", "1",
              "--max-len", "40", "--seed", "1"], EXIT_USAGE),
        # a relative error never exceeds 2, so such a tolerance passes
        # nearly every comparison, whether it comes as a flag or a config key
        ({}, ["verify", "--fixture", "example-2.1-cos", "--tolerance", "1"], EXIT_USAGE),
        ({"tolerance2.json": {"tolerance": 2}},
         ["commutator", "--fixture", "example-2.1-exp", "--config", "{tmp}/tolerance2.json"],
         EXIT_USAGE),
        # the kernel iterates 26 of this even pair's words, but the budget
        # counts all 2^13
        ({}, ["render", "--fixture", "example-2.1-exp", "--cells", "16",
              "--word-depth", "13"], EXIT_WORD_BUDGET),
        # one generator passes the budget at any depth, but words deeper
        # than 32 letters compose trees too deep to evaluate
        ({}, ["render", "--generators", "mul(z, const(1.0001+0i))", "--cells", "4",
              "--word-depth", "33"], EXIT_USAGE),
        # transport without --phi takes phi from the commutator table: one
        # generator has no pair to take it from, and exp(z), z^2 have no
        # affine commutator
        ({}, ["transport", "--generators", "exp(z)", "--cells", "8"], EXIT_USAGE),
        ({}, ["transport", "--generators", "exp(z)", "pow(z,2)", "--cells", "8"],
         EXIT_TABLE_INCOMPLETE),
        # --phi takes a;b alone
        ({}, ["transport", "--fixture", "example-2.1-cos", "--cells", "8", "--phi", "1/0"],
         EXIT_USAGE),
        # a config key is a flag of the subcommand, its value one that flag
        # takes, inside "plan" as at the top level
        ({"plan.json": {"plan": {"seed": 3, "tolerance": 2, "cuont": 4}}},
         ["commutator", "--fixture", "example-2.1-cos", "--config", "{tmp}/plan.json"],
         EXIT_USAGE),
        ({"tolerance.json": {"tolerance": "1e-9"}},
         ["commutator", "--fixture", "example-2.1-cos", "--config", "{tmp}/tolerance.json"],
         EXIT_USAGE),
        ({"map.json": {"map": "exp(z)"}},
         ["commutator", "--fixture", "example-2.1-cos", "--config", "{tmp}/map.json"],
         EXIT_USAGE),
        # a zero cell count or an empty window once read as no flag at all
        ({}, ["render", "--map", "cos(z)", "--cells", "0", "--max-iter", "3"], EXIT_USAGE),
        ({}, ["render", "--map", "cos(z)", "--cells", "8", "--window", ""], EXIT_USAGE),
        # once checked only next to a non-zero --random, and a negative
        # --random once drew no words
        ({}, ["normal-form", "--fixture", "example-2.1-cos", "--word", "1",
              "--max-len", "99"], EXIT_USAGE),
        ({}, ["normal-form", "--fixture", "example-2.1-cos", "--word", "1",
              "--random", "-2"], EXIT_USAGE),
        # a grid too large for memory once ended in numpy's allocation error
        ({}, ["render", "--map", "exp(z)", "--cells", "100000"], EXIT_USAGE),
        # a worker count over grid.WORKER_CAP once asked for that many
        # bands and threads
        ({}, ["render", "--map", "exp(z)", "--workers", str(10**12)], EXIT_USAGE),
        # every centre escapes at step 0: the heatmap once built a table of
        # max_iter + 2 entries, 931 GiB here
        ({}, ["render", "--map", "exp(z)", "--window", "-4,4,-4,4", "--cells", "2",
              "--escape-radius", "1.5", "--max-iter", str(10**12)], EXIT_OK),
        # an unbounded count once drew words until memory ran out
        ({}, ["normal-form", "--fixture", "example-2.1-cos", "--random",
              str(RANDOM_CAP + 1)], EXIT_USAGE),
        # two sources of the semigroup, flags or config keys, once kept one
        # of them silently; an empty --fixture, --map or --phi once read as
        # no flag at all
        ({}, ["commutator", "--fixture", "example-2.1-cos", "--generators", "exp(z)",
              "pow(z,2)"], EXIT_USAGE),
        ({}, ["render", "--map", "exp(z)", "--fixture", "example-2.1-cos", "--cells", "8"],
         EXIT_USAGE),
        ({}, ["render", "--map", "exp(z)", "--generators", "cos(z)", "--cells", "8"],
         EXIT_USAGE),
        ({}, ["render", "--fixture", "", "--generators", "exp(z)", "--cells", "4"],
         EXIT_USAGE),
        ({}, ["render", "--map", "", "--fixture", "example-2.1-cos", "--cells", "4"],
         EXIT_USAGE),
        ({}, ["transport", "--generators", "exp(z)", "neg(exp(z))", "--phi", "",
              "--cells", "4"], EXIT_USAGE),
        ({"fixture.json": {"fixture": "example-2.1-cos"}},
         ["commutator", "--generators", "exp(z)", "pow(z,2)", "--config",
          "{tmp}/fixture.json"], EXIT_USAGE),
        # --map iterates one map, whatever word depth is asked for
        ({}, ["render", "--map", "exp(z)", "--word-depth", "3", "--cells", "8"],
         EXIT_USAGE),
        # phi12 = (e^-200, 200) is a valid fit, but a product in the closure
        # of the table overflows: the group once raised out of the run
        # instead of not closing
        ({}, ["normal-form", "--generators", "affine(1+0i, 200+0i)", "exp(z)",
              "--word", "2,1"], EXIT_OK),
        ({}, ["verify", "--generators", "affine(1+0i, 200+0i)", "exp(z)"],
         EXIT_VERIFY_FAILED),
    ]

    @pytest.mark.parametrize("env,argv,code", CASES)
    def test_documented_code_not_traceback(self, tmp_path, capsys, env, argv, code):
        for name, doc in env.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run(*argv, "--out", str(tmp_path)) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["commutator", "--fixture", "example-2.1-cos", "--generators", "exp(z)"],
         "--fixture and --generators each name the semigroup; give one"),
        (["render", "--map", "exp(z)", "--fixture", "example-2.1-cos"],
         "--map and --fixture each name the semigroup; give one"),
        (["render", "--map", "exp(z)", "--generators", "cos(z)"],
         "--map and --generators each name the semigroup; give one"),
        (["render", "--fixture", ""], "unknown fixture ''"),
        # the whole line, without the quotes a KeyError once added
        (["render", "--fixture", "nope"],
         f"semidyn: unknown fixture 'nope'; available: {sorted(semidyn.FIXTURES)}\n"),
        (["render", "--map", "", "--cells", "4"], "unexpected end of input"),
        (["transport", "--generators", "exp(z)", "neg(exp(z))", "--phi", ""],
         "--phi takes 'a;b', got ''"),
        (["render", "--map", "exp(z)", "--word-depth", "3"],
         "--word-depth takes a semigroup; --map iterates one map"),
        *((["normal-form", "--fixture", "example-2.1-cos", "--word", text],
          f"--word takes generator numbers separated by commas, got {text!r}")
          for text in ("1,,2", "1.5", "")),
        *((["render", "--map", "exp(z)", "--window", text],
          f"--window takes xmin,xmax,ymin,ymax, got {text!r}")
          for text in ("a,b,c,d", "1,2,3", "1,2,3,4,5", "")),
    ])
    def test_usage_error_names_the_conflict_or_value(self, tmp_path, capsys, argv,
                                                     message):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    # an affine node is invertible, as --phi is: a = 0, or an a whose 1/a
    # overflows, once read as a constant map or a commutator to solve
    @pytest.mark.parametrize("source", ["--generators", "--map", "--config"])
    @pytest.mark.parametrize("text,message", [
        ("affine(0+0i, 1+0i)", "affine: invalid affine coefficient a=0j"),
        ("affine(1e-320+0i, 0+0i)", "affine: invalid affine coefficient a=(1e-320+0j)"),
    ])
    def test_non_invertible_affine_names_the_coefficient(self, tmp_path, capsys, source,
                                                         text, message):
        self.assert_malformed_generator(tmp_path, capsys, source, text, message)

    # Power multiplies k - 1 times per evaluation: a ten-character exponent
    # once hung the run instead of exiting 64
    @pytest.mark.parametrize("source", ["--generators", "--map", "--config"])
    @pytest.mark.parametrize("text", ["pow(z,65)", "pow(z,1000000000)"])
    def test_pow_exponent_over_cap_is_malformed(self, tmp_path, capsys, source, text):
        self.assert_malformed_generator(tmp_path, capsys, source, text,
                                        "pow: power exponent must be 1..64")

    @staticmethod
    def assert_malformed_generator(tmp_path, capsys, source, text, message):
        (tmp_path / "gens.json").write_text(json.dumps({"generators": [text, "exp(z)"]}))
        argv = {"--generators": ["commutator", "--generators", text, "exp(z)"],
                "--map": ["render", "--map", text, "--cells", "4"],
                "--config": ["commutator", "--config", str(tmp_path / "gens.json")]}
        out = tmp_path / "out"
        assert run(*argv[source], "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"semidyn: {message}\n"
        assert not out.exists()

    def test_non_invertible_phi_names_the_coefficient(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("transport", "--fixture", "example-2.1-cos", "--phi", "0;1",
                   "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == "semidyn: invalid affine coefficient a=0j\n"
        assert not out.exists()

    def test_window_config_key_names_the_flag(self, tmp_path, capsys):
        (tmp_path / "window.json").write_text(json.dumps({"grid": {"window": "1,2,3"}}))
        assert run("render", "--map", "exp(z)", "--config", str(tmp_path / "window.json"),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "semidyn: --window takes xmin,xmax,ymin,ymax, got '1,2,3'\n"

    def test_unwritable_report_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "render_meta.json").mkdir()
        assert run("render", "--map", "exp(z)", "--cells", "4",
                   "--out", str(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("semidyn: ")

    def test_transport_without_phi_on_one_generator_fails_in_run(self, tmp_path):
        args = parse_args(["transport", "--generators", "exp(z)", "--out", str(tmp_path)])
        with pytest.raises(UsageError, match="give --phi"):
            Run(args)

    # sample plan values from the config: a NaN abs_floor passed every
    # commutator fit, an infinite radius failed the cos pair's, and a
    # fractional count or seed ended in a TypeError traceback
    @pytest.mark.parametrize("config,argv", [
        ('{"plan": {"abs_floor": NaN}}', ["--generators", "exp(z)", "cos(z)"]),
        ('{"plan": {"radius": Infinity}}', ["--fixture", "example-2.1-cos"]),
        ('{"plan": {"count": 32.5}}', ["--fixture", "example-2.1-cos"]),
        ('{"seed": 1.5}', ["--fixture", "example-2.1-cos"]),
    ])
    def test_bad_sample_plan_config_is_usage_error(self, tmp_path, capsys, config, argv):
        (tmp_path / "plan.json").write_text(config)
        assert run("commutator", *argv, "--config", str(tmp_path / "plan.json"),
                   "--out", str(tmp_path)) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "commutator_table.json").exists()

    def test_verify_degenerate_samples_fail_the_check(self, tmp_path, monkeypatch, capsys):
        # the fake finds no clean sample points for a tree that carries an
        # affine map: identities 2 and 3 compare such trees, and so does
        # resolve_xi, while the brackets of the fixture's own generators
        # still solve
        real = semidyn.commutator.find_clean_points

        def carries_affine(e):
            return isinstance(e, AffineMap) or any(map(carries_affine, children(e)))

        def degenerate(exprs, plan):
            if any(map(carries_affine, exprs)):
                raise semidyn.commutator.DegenerateSamplesError("no clean samples")
            return real(exprs, plan)

        monkeypatch.setattr(semidyn.expr, "find_clean_points", degenerate)
        monkeypatch.setattr(semidyn.commutator, "find_clean_points", degenerate)
        monkeypatch.setattr(semidyn.words, "find_clean_points", degenerate)
        code = run("verify", "--fixture", "example-2.1-cos", "--out", str(tmp_path))
        assert code == EXIT_VERIFY_FAILED
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        errors = {c["check"] for c in doc["checks"] if "error" in c}
        assert errors == {"identity-2(n=1)", "identity-2(n=2)", "identity-2(n=3)",
                          "identity-3(n=1)", "resolve-xi(f, phi)"}
        assert all(not c["ok"] for c in doc["checks"] if c["check"] in errors)

    # neg(...(exp(z))...) nests levels + 2 nodes; the deepest text the
    # parser accepts must also get through printing, evaluation and the
    # worker threads, so the whole process runs as a user would start it
    @pytest.mark.parametrize("levels,code", [
        (450, EXIT_USAGE),
        (1200, EXIT_USAGE),
        (MAX_EXPR_DEPTH - 2, EXIT_OK),
    ])
    def test_deep_nesting_exits_without_traceback(self, tmp_path, levels, code):
        text = "neg(" * levels + "exp(z)" + ")" * levels
        proc = run_process("render", "--map", text, "--cells", "16",
                           "--workers", "2", "--out", str(tmp_path))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "fixture": "example-2.1-cos",
            "grid": {"cells": 16},
            "seed": 99,
        }))
        out = tmp_path / "out"
        assert run("render", "--config", str(cfg), "--cells", "24",
                   "--out", str(out)) == EXIT_OK
        meta = json.loads((out / "render_meta.json").read_text())
        assert meta["grid"]["cols"] == 24  # flag wins
        assert meta["seed"] == 99  # config survives where no flag given

    @pytest.mark.parametrize("config", [None, {"grid": {"cells": 8}}])
    def test_cols_win_over_cells(self, tmp_path, config):
        argv = ["render", "--map", "cos(z)", "--cols", "4", "--out", str(tmp_path)]
        if config is None:
            argv += ["--cells", "8"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert run(*argv) == EXIT_OK
        grid = json.loads((tmp_path / "render_meta.json").read_text())["grid"]
        assert (grid["cols"], grid["rows"]) == (4, 8)

    def test_switch_from_config(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"csv": True}))
        assert run("render", "--map", "cos(z)", "--cells", "4", "--config",
                   str(tmp_path / "cfg.json"), "--out", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "classification.csv").exists()

    # before config entries were parsed as flags, the first four exited 0
    # or with a message naming neither the key nor the flag
    @pytest.mark.parametrize("config,named", [
        ({"plan": {"seed": 3, "tolerance": 2, "cuont": 4}}, "'cuont'"),
        ({"cuont": 4}, "'cuont'"),
        ({"tolerance": "1e-9"}, "--tolerance"),
        ({"map": "exp(z)"}, "'map'"),
        ({"seed": 1.5}, "--seed"),
        ({"generators": [1]}, "--generators"),
        # each dest at most once, "grid" and "plan" groups only at the top
        # level, null is no value, and the sample count is the fixture's
        ({"seed": 3, "plan": {"seed": 4}}, "'seed'"),
        ({"grid": {"plan": {"seed": 3}}}, "'plan'"),
        ({"seed": None}, "--seed"),
        ({"plan": {"count": 16}}, "'count'"),
        ([1, 2], "is not a JSON object"),
    ])
    def test_rejected_config_names_the_key(self, tmp_path, capsys, config, named):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run("commutator", "--fixture", "example-2.1-cos", "--config",
                   str(tmp_path / "cfg.json"), "--out", str(out)) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()


# argv for every subcommand from pools of valid, odd and malformed values;
# grids stay at 16 cells or fewer and loops short, so an example runs fast
EXPRS = ["cos(z)", "neg(cos(z))", "sin(z)", "exp(z)", "exp(pow(z,2))", "z",
         "pow(z,2)", "affine(2,0)", "neg(z)", "const(1e200)", "const(0)",
         "exp(exp(exp(z)))", "add(z, exp(z))", "mul(z, cos(z))", "foo(", "",
         "pow(z,1000000000)"]
NON_FINITE = ["nan", "inf", "-inf"]
NUMBERS = ["0", "1", "-1", "2", "0.5", "1e-9", "1e300", *NON_FINITE, "x", ""]
FLAG_VALUES = {
    "--fixture": st.sampled_from(["example-2.1-cos", "example-2.1-exp",
                                  "derived-exp-shift", "nope", ""]),
    "--generators": st.lists(st.sampled_from(EXPRS), min_size=1, max_size=3),
    "--seed": st.sampled_from(["0", "7", "-1", "x", "99999999999999999999"]),
    "--tolerance": st.sampled_from(NUMBERS),
    "--window": st.one_of(
        st.sampled_from(["-4,4,-4,4", "0,1,0,1", "1,1,0,1", "4,-4,-4,4", "a,b",
                         "1,2,3", "-1e300,1e300,-1,1"]),
        # one bound of a valid window, at any position, not finite
        st.tuples(st.integers(0, 3), st.sampled_from(NON_FINITE)).map(
            lambda t: ",".join(t[1] if i == t[0] else b
                               for i, b in enumerate(["-4", "4", "-4", "4"]))),
    ),
    "--cells": st.sampled_from(["-1", *map(str, range(1, 17))]),
    "--max-iter": st.sampled_from(["-1", "0", "1", "5", "50", "x"]),
    "--escape-radius": st.sampled_from(NUMBERS),
    "--word-depth": st.sampled_from(["-1", "0", "1", "2", "3", "33", "1000"]),
    "--workers": st.sampled_from(["1", "1", "1", "2", "0", "-1", "x"]),
    "--map": st.sampled_from(EXPRS),
    "--rows": st.integers(-1, 16).map(str),
    "--cols": st.integers(-1, 16).map(str),
    "--phi": st.sampled_from(["1+0i;0+0i", "-1+0i;0+0i", "0+0i;0+0i", "2;1",
                              "1/0", "inf;0", "1e-320;0", "1", "1;2;3", "x;y"]),
    "--threshold": st.sampled_from(NUMBERS),
    "--word": st.lists(st.sampled_from(["1", "2,1", "1,2,1,2", "1,3", "0", "",
                                        "a", ",".join(["2", "1"] * 8),
                                        ",".join(["1"] * 33)]), max_size=2),
    "--random": st.sampled_from(["-1", "0", "1", "3", "x"]),
    "--max-len": st.sampled_from(["-1", "0", "1", "6", "32", "33"]),
}
COMMON = ["--fixture", "--generators", "--seed", "--tolerance"]
GRID = ["--window", "--cells", "--max-iter", "--escape-radius", "--word-depth", "--workers"]
SUBCOMMAND_FLAGS = {
    "commutator": COMMON,
    "verify": COMMON,
    "render": COMMON + GRID + ["--map", "--rows", "--cols"],
    "transport": COMMON + GRID + ["--phi", "--threshold"],
    "normal-form": COMMON + ["--word", "--random", "--max-len"],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(SUBCOMMAND_FLAGS[command]), unique=True))
    if command in ("render", "transport") and "--cells" not in flags:
        flags.append("--cells")  # the default grid has 512 cells a side
    argv = [command]
    for flag in flags:
        value = draw(FLAG_VALUES[flag])
        if flag == "--generators":
            argv += [flag, *value]
        elif flag == "--word":
            for v in value:
                argv += [flag, v]
        else:
            argv += [flag, value]
    return argv


class TestCliFuzz:
    DOCUMENTED = {EXIT_OK, EXIT_TABLE_INCOMPLETE, EXIT_VERIFY_FAILED, EXIT_WORD_BUDGET,
                  EXIT_TRANSPORT_BELOW_THRESHOLD, EXIT_NORMAL_FORM_FAILED, EXIT_USAGE}

    # each pinned example ended in a traceback before it was mended: a
    # negative seed reached numpy's generator, and a tolerance so loose
    # that two group elements matched the migration raised out of verify
    # (a tolerance of 1 or more is now a usage error)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cli_argv())
    @example(argv=["commutator", "--fixture", "example-2.1-cos", "--seed", "-1"])
    @example(argv=["verify", "--tolerance", "2", "--fixture", "example-2.1-cos"])
    # each exited 0 or 5 before GridSpec and transport rejected non-finite values
    @example(argv=["render", "--map", "cos(z)", "--cells", "8", "--escape-radius", "inf"])
    @example(argv=["transport", "--fixture", "example-2.1-cos", "--cells", "8",
                   "--threshold", "-inf"])
    @example(argv=["transport", "--fixture", "example-2.1-exp", "--cells", "8",
                   "--window", "-4,4,nan,4"])
    # a RecursionError before GridSpec rejected words of more than 32 letters
    @example(argv=["render", "--generators", "mul(z, const(1.0001+0i))",
                   "--word-depth", "1000", "--cells", "4", "--max-iter", "3"])
    def test_exit_code_is_documented(self, tmp_path_factory, argv):
        out = tmp_path_factory.mktemp("fuzz")
        code = main([*argv, "--out", str(out)])
        assert code in self.DOCUMENTED
        if self._has_non_finite_value(argv):
            assert code == EXIT_USAGE

    INT_FLAGS = {"--seed", "--cells", "--max-iter", "--word-depth", "--workers", "--rows",
                 "--cols", "--random", "--max-len"}
    FLOAT_FLAGS = {"--tolerance", "--escape-radius", "--threshold"}

    ALL = 2**16 - 1

    # few drawn argv pass every check, so these runs, with every flag moved
    # or every other one, make sure that each flag's value reaches the run
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cli_argv(), st.integers(0, ALL))
    @example(argv=["render", "--fixture", "example-2.1-cos", "--window", "-2,2,-2,2",
                   "--cells", "12", "--max-iter", "5", "--escape-radius", "40",
                   "--word-depth", "1", "--workers", "1", "--rows", "8", "--seed", "7",
                   "--tolerance", "1e-8"], moved=ALL)
    @example(argv=["render", "--map", "exp(z)", "--cols", "6", "--cells", "8"], moved=ALL)
    @example(argv=["transport", "--generators", "cos(z)", "neg(cos(z))", "--cells", "8",
                   "--phi", "-1+0i;0+0i", "--threshold", "0.5", "--workers", "2"],
             moved=0b1010101)
    @example(argv=["transport", "--generators", "cos(z)", "neg(cos(z))", "--cells", "8",
                   "--phi", "-1+0i;0+0i", "--threshold", "0.5", "--workers", "2"],
             moved=ALL)
    @example(argv=["normal-form", "--fixture", "example-2.1-cos", "--word", "2,1",
                   "--word", "1", "--random", "3", "--max-len", "4", "--seed", "5"],
             moved=ALL)
    @example(argv=["commutator", "--generators", "exp(z)", "cos(z)", "--seed", "3"],
             moved=ALL)
    def test_config_file_equals_its_flags(self, tmp_path_factory, argv, moved):
        """The flags that the bits of moved pick, moved into a --config
        file, each under its dest with the JSON value of its text, give the
        exit code and the artifact bytes of the run with every flag on the
        command line."""
        command, kept, config = argv[0], [], {}
        given = {}  # each flag's values, in order; no value starts with "--"
        for tok in argv[1:]:
            if tok.startswith("--"):
                values = given.setdefault(tok, [])
            else:
                values.append(tok)
        for i, (flag, values) in enumerate(given.items()):
            if not moved >> i & 1:
                repeated = flag == "--word"
                kept += [t for v in values for t in (flag, v)] if repeated else [flag, *values]
                continue
            values = [self._json_value(flag, v) for v in values]
            dest = "words" if flag == "--word" else flag[2:].replace("-", "_")
            config[dest] = values if flag in ("--generators", "--word") else values[0]
        root = tmp_path_factory.mktemp("cfg")
        (root / "cfg.json").write_text(json.dumps(config))
        a, b = root / "flags", root / "config"
        code = main([*argv, "--out", str(a)])
        assert main([command, *kept, "--config", str(root / "cfg.json"),
                     "--out", str(b)]) == code
        files = sorted(p.name for p in a.iterdir()) if a.exists() else []
        assert files == (sorted(p.name for p in b.iterdir()) if b.exists() else [])
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @classmethod
    def _json_value(cls, flag, text):
        """The JSON value a config gives for the flag's text; text that is
        no number stays a string, which a number flag rejects."""
        kind = int if flag in cls.INT_FLAGS else float if flag in cls.FLOAT_FLAGS else str
        try:
            return kind(text)
        except ValueError:
            return text

    @staticmethod
    def _has_non_finite_value(argv):
        """Whether --escape-radius, --threshold or a --window bound parses
        to a float that is not finite: a usage error, whatever else the
        flags say."""
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--escape-radius", "--threshold", "--window"):
                try:
                    numbers = [float(t) for t in value.split(",")]
                except ValueError:
                    continue
                if not all(map(math.isfinite, numbers)):
                    return True
        return False


class TestParserReuse:
    """build_parser() builds the parser once a process.  Every argv below
    goes through that one parser in turn, and each parse must equal the
    parse by a parser built for it alone: no state carries over."""

    @staticmethod
    def parse(parser, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                # repr, since a NaN value never equals itself
                parsed = repr(vars(parser.parse_args(_join_dash_values(argv))))
            except SystemExit as exc:
                parsed = exc.code
        return parsed, err.getvalue()

    def check(self, argv):
        shared = self.parse(build_parser(), argv)
        assert shared == self.parse(build_parser.__wrapped__(), argv)

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_exit_code_cases(self):
        for _, argv, _ in TestExitCodeContract.CASES:
            self.check(argv)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cli_argv())
    def test_fuzzed_argv(self, argv):
        self.check(argv)
