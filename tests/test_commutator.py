import contextlib
import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semidyn.commutator
import semidyn.expr
from semidyn.cli import EXIT_NORMAL_FORM_FAILED, main as cli_main
from semidyn.commutator import (
    AffineGroup,
    ClosureOverflowError,
    CommutatorResult,
    MissingCommutatorError,
    NoAffineCommutatorError,
    DegenerateSamplesError,
    SemigroupPresentation,
    build_commutator_table,
    conjugate_semigroup,
    find_affine_commutator,
    find_clean_points,
    group_closure,
    is_nearly_abelian,
    presentation_to_json_dict,
    verify_identity,
    _fit_affine,
)
from semidyn.expr import (
    SAMPLE_COUNT,
    SAMPLE_RADIUS,
    AffineMap,
    Cos,
    EquivalenceReport,
    Exp,
    Identity,
    Negate,
    Power,
    SamplePlan,
    affine_compose,
    affine_distance,
    affine_inverse,
    compose,
    eval_array,
    numerically_equal,
)
from semidyn.fixtures import FIXTURES, INVOLUTION_FIXTURES
from semidyn.grid import GridSpec, classify_semigroup
import semidyn.words
from semidyn.words import NoXiError, Word, normal_form, word_expr
from test_expr import TREES

Z = Identity()
IDENT = AffineMap(1, 0)
PLAN = SamplePlan(seed=11)


def paper_pairs():
    for name in INVOLUTION_FIXTURES:
        S = FIXTURES[name].presentation
        yield name, S.generator(1), S.generator(2)


# where each fixture's words start in seeded_word_pairs()
FIXTURE_OFFSET = {"example-2.1-cos": 0, "example-2.1-exp": 32}


def seeded_word_pairs():
    """Each fixture's seeded words of lengths 1..32, each as the pair of
    trees [word, reversed word]."""
    rng = np.random.default_rng(2018)
    for name in ("example-2.1-cos", "example-2.1-exp"):
        fx = FIXTURES[name]
        for length in range(1, 33):
            letters = tuple(int(x) for x in rng.integers(1, 3, length))
            exprs = [word_expr(Word(letters), fx.presentation),
                     word_expr(Word(letters[::-1]), fx.presentation)]
            yield fx, exprs


class TestFindCleanPoints:
    # sha256 of the points and values found for seeded_word_pairs(),
    # recorded at 3ea6d88, where the search returned the points only and
    # the values came from evaluating each tree there afresh
    PINNED_SHA256 = "b2b0ee1c1f294f96563471adde1ebdc6fc571a6eafa56831bdaf79fd95bdfcda"

    def test_points_and_values_match_pinned_digest(self):
        h = hashlib.sha256()
        for fx, exprs in seeded_word_pairs():
            try:
                pts, values = find_clean_points(exprs, fx.plan)
            except DegenerateSamplesError:
                h.update(b"degenerate")
                continue
            h.update(pts.tobytes())
            for v in values:
                h.update(v.tobytes())
        assert h.hexdigest() == self.PINNED_SHA256

    # exp words: 2 finds its points in the first batch, 9 needs more
    # batches, 13 finds them in stage 2, 14 and 32 never find enough.  Words
    # of two or more letters give distinct tree objects, which the spy tells
    # apart.  The element counts per expression were 1844, 1844, 10012,
    # 11164 and 8604 for both trees at 3ea6d88, which evaluated the whole
    # pool at every check.  13's were [5812, 178] while stage 2 evaluated
    # one disk at a time and stopped at the winner, its 11th disk; it now
    # evaluates all 32 disks at once, 4096 points.
    @pytest.mark.parametrize("length,elements", [
        (2, [128, 125]), (9, [1844, 169]), (13, [8500, 645]), (14, [6964, 99]),
        (32, [4404, 0]),
    ])
    def test_each_point_evaluated_once_per_expression(self, monkeypatch, length,
                                                      elements):
        calls = []
        real = semidyn.expr.eval_array

        def spy(e, z):
            out = real(e, z)
            calls.append((e, z.copy(), out[1].copy()))
            return out

        monkeypatch.setattr(semidyn.expr, "eval_array", spy)
        fx, exprs = list(seeded_word_pairs())[32 + length - 1]
        try:
            pts, values = find_clean_points(exprs, fx.plan)
        except DegenerateSamplesError:
            pts = None
        clean = {}  # point -> clean for every expression so far
        for k, e in enumerate(exprs):
            seen = [(z, b) for f, zs, bs in calls if f is e for z, b in zip(zs, bs)]
            points = [z for z, _ in seen]
            assert len(points) == elements[k]
            assert len(set(points)) == len(points)
            if k:
                assert all(clean[z] for z in points)
            clean = {z: not b for z, b in seen}
        if pts is not None:
            for e, v in zip(exprs, values):
                assert v.tobytes() == real(e, pts)[0].tobytes()

    # stage 2's calls are those at points outside stage 1's draws, which
    # the plan's seed rebuilds; 13 and 14 reach it, 32 finds no clean
    # centre to zoom onto
    @pytest.mark.parametrize("length,stage_2_calls", [(13, [0, 1]), (14, [0, 1]),
                                                      (32, [])])
    def test_stage_2_evaluates_each_expression_once(self, monkeypatch, length,
                                                    stage_2_calls):
        fx, exprs = list(seeded_word_pairs())[32 + length - 1]
        calls = spy_eval_array(monkeypatch, semidyn.expr, exprs)
        with contextlib.suppress(DegenerateSamplesError):
            find_clean_points(exprs, fx.plan)
        first = stage_1_points(fx.plan)
        assert [k for k, z in calls if first.isdisjoint(z.tolist())] == stage_2_calls

    # the sizes of stage 1's calls of expression 0, for the search and for
    # the search that evaluated one batch at a time (batches of 128, 1716,
    # 512 and 2048 points): a word whose first batch holds too few clean
    # points takes the other three in one call, and exp-9, whose first
    # batch predicts enough from the lattice, does not
    @pytest.mark.parametrize("name,length,sizes,parent_sizes", [
        ("example-2.1-cos", 32, [128], [128]), ("example-2.1-exp", 2, [128], [128]),
        ("example-2.1-exp", 9, [128, 1716], [128, 1716]),
        *(("example-2.1-exp", length, [128, 1716 + 512 + 2048], [128, 1716, 512, 2048])
          for length in (12, 13, 14, 32)),
    ])
    def test_stage_1_calls(self, monkeypatch, name, length, sizes, parent_sizes):
        fx, exprs = list(seeded_word_pairs())[FIXTURE_OFFSET[name] + length - 1]
        first = stage_1_points(fx.plan)
        for module, search, want in ((semidyn.expr, find_clean_points, sizes),
                                     (sys.modules[__name__], batch_at_a_time,
                                      parent_sizes)):
            with monkeypatch.context() as m:
                seen = spy_eval_array(m, module, exprs)
                with contextlib.suppress(DegenerateSamplesError):
                    search(exprs, fx.plan)
            assert [len(z) for k, z in seen
                    if k == 0 and first.issuperset(z.tolist())] == want

    @pytest.mark.parametrize("length", [14, 20, 32])
    def test_long_exp_words_stay_degenerate(self, tmp_path, length):
        fx = FIXTURES["example-2.1-exp"]
        rng = np.random.default_rng(length)
        w = Word(tuple(int(x) for x in rng.integers(1, 3, length)))
        table = build_commutator_table(fx.presentation, fx.plan)
        G = group_closure(table.maps())
        with pytest.raises(DegenerateSamplesError):
            normal_form(w, fx.presentation, table, G, fx.plan)
        text = ",".join(map(str, w.letters))
        assert cli_main(["normal-form", "--fixture", fx.name, "--word", text,
                         "--out", str(tmp_path)]) == EXIT_NORMAL_FORM_FAILED


def draw(rng, center, radius, m):
    """m seeded points in the disk about center, as the search draws them."""
    r = radius * np.sqrt(rng.random(m))
    theta = 2 * np.pi * rng.random(m)
    return center + r * np.exp(1j * theta)


def stage_1_batches(rng):
    """Stage 1's four batches, in the order the search draws them."""
    n = SAMPLE_COUNT
    yield draw(rng, 0j, SAMPLE_RADIUS, 4 * n)
    side = np.linspace(-SAMPLE_RADIUS, SAMPLE_RADIUS, 48)
    lattice = (side[:, None] + 1j * side[None, :]).ravel()
    yield lattice[np.abs(lattice) <= SAMPLE_RADIUS]
    yield draw(rng, 0j, SAMPLE_RADIUS, 16 * n)
    yield draw(rng, 0j, SAMPLE_RADIUS, 64 * n)


def stage_1_points(plan):
    """Every point stage 1 draws under plan, as a set."""
    rng = np.random.default_rng(plan.seed)
    return set(np.concatenate(list(stage_1_batches(rng))).tolist())


def spy_eval_array(monkeypatch, module, exprs):
    """Replaces module.eval_array with a spy; returns the list of (k, a copy
    of the points) it appends to at each call, k the index of the
    expression in exprs."""
    calls = []
    real = module.eval_array

    def spy(e, z):
        calls.append((next(k for k, f in enumerate(exprs) if f is e), z.copy()))
        return real(e, z)

    monkeypatch.setattr(module, "eval_array", spy)
    return calls


def clean_columns(exprs, pts, *carried):
    """[the points clean for every expression, each array carried along
    with pts at those points, each expression's values there], evaluating
    expression k only where 1..k-1 are clean."""
    cols = [pts, *carried]
    width = len(cols) + len(exprs)
    for e in exprs:
        if not len(cols[0]):
            return cols + [cols[0]] * (width - len(cols))
        v, bad = eval_array(e, cols[0])
        ok = ~bad
        cols = [c[ok] for c in cols + [v]]
    return cols


def batch_at_a_time(exprs, plan, zoomed=None):
    """find_clean_points as it was while stage 1 made one clean() call per
    batch, kept as the reference of the search that takes the batches it
    will need in one call; appends True to zoomed where it reaches stage
    2."""
    n = SAMPLE_COUNT
    rng = np.random.default_rng(plan.seed)
    found = [np.empty(0, dtype=np.complex128)] * (len(exprs) + 1)
    for batch in stage_1_batches(rng):
        found = [np.concatenate(pair) for pair in zip(found, clean_columns(exprs, batch))]
        if len(found[0]) >= n:
            return found[0][:n], [v[:n] for v in found[1:]]

    if zoomed is not None:
        zoomed.append(True)
    disks = [draw(rng, complex(center), SAMPLE_RADIUS / shrink, 4 * n)  # stage 2
             for center in found[0][:8] for shrink in (8.0, 32.0, 128.0, 512.0)]
    if disks:
        pts = np.concatenate(disks)
        pts, index, *values = clean_columns(exprs, pts, np.arange(len(pts)))
        disk = index // (4 * n)
        full = np.flatnonzero(np.bincount(disk, minlength=len(disks)) >= n)
        if len(full):
            first = np.flatnonzero(disk == full[0])[:n]
            return pts[first], [v[first] for v in values]
    raise DegenerateSamplesError(
        f"no disk with {n} clean samples found for {len(exprs)} expression(s)"
    )


def one_disk_at_a_time(exprs, plan, zoomed=None):
    """find_clean_points as it was while stage 2 made one clean() call per
    zoom disk, kept as the reference of the batched search; appends True
    to zoomed where it reaches stage 2."""
    n = SAMPLE_COUNT
    rng = np.random.default_rng(plan.seed)
    found = [np.empty(0, dtype=np.complex128)] * (len(exprs) + 1)
    for batch in stage_1_batches(rng):
        found = [np.concatenate(pair) for pair in zip(found, clean_columns(exprs, batch))]
        if len(found[0]) >= n:
            return found[0][:n], [v[:n] for v in found[1:]]

    if zoomed is not None:
        zoomed.append(True)
    for center in found[0][:8]:  # stage 2
        for shrink in (8.0, 32.0, 128.0, 512.0):
            pts, *values = clean_columns(
                exprs, draw(rng, complex(center), SAMPLE_RADIUS / shrink, 4 * n))
            if len(pts) >= n:
                return pts[:n], [v[:n] for v in values]
    raise DegenerateSamplesError(
        f"no disk with {n} clean samples found for {len(exprs)} expression(s)"
    )


def search_outcome(search, exprs, plan, **kwargs):
    """The bytes of the points and of each expression's values a search
    finds, or the message of its DegenerateSamplesError."""
    try:
        pts, values = search(exprs, plan, **kwargs)
    except DegenerateSamplesError as exc:
        return str(exc)
    return [pts.tobytes(), *(v.tobytes() for v in values)]


def long_exp_word_pairs():
    """Seeded 13..16-letter example-2.1-exp words, each as the pair [word,
    reversed word]; every one misses in stage 1.  13 letters find their
    points in stage 2, 14 and more find none."""
    fx = FIXTURES["example-2.1-exp"]
    rng = np.random.default_rng(13)
    for length in range(13, 17):
        for _ in range(6):
            letters = tuple(int(x) for x in rng.integers(1, 3, length))
            yield fx, [word_expr(Word(letters), fx.presentation),
                       word_expr(Word(letters[::-1]), fx.presentation)]


class TestBatchedStage2:
    """The batched stage 2 of find_clean_points against the search that
    evaluated one zoom disk at a time: the same points, values or error,
    bit for bit."""

    def test_seeded_word_pairs_match(self):
        for fx, exprs in seeded_word_pairs():
            for trees in (exprs, exprs[:1]):
                assert (search_outcome(find_clean_points, trees, fx.plan)
                        == search_outcome(one_disk_at_a_time, trees, fx.plan))

    def test_long_exp_words_match(self):
        outcomes = []
        for fx, exprs in long_exp_word_pairs():
            zoomed = []
            want = search_outcome(one_disk_at_a_time, exprs, fx.plan, zoomed=zoomed)
            assert zoomed == [True]
            assert search_outcome(find_clean_points, exprs, fx.plan) == want
            outcomes.append(isinstance(want, str))
        # both ends of stage 2: a disk wins, and none does
        assert set(outcomes) == {False, True}


def normal_form_pairs():
    """Each fixture's seeded word of each length 1..32, as the pair [word,
    right-hand side of its normal form] that normal_form checks; words
    whose rewriting fails before the check give none."""
    rng = np.random.default_rng(31)
    pairs = []

    def capture(f, g, plan):
        pairs.append((plan, [f, g]))
        return EquivalenceReport(True, 0.0)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(semidyn.words, "numerically_equal", capture)
        for fx in FIXTURES.values():
            table = build_commutator_table(fx.presentation, fx.plan)
            try:
                G = group_closure(table.maps())
            except ClosureOverflowError:
                G = None
            for length in range(1, 33):
                w = Word(tuple(int(x) for x in rng.integers(1, 3, length)))
                with contextlib.suppress(NoXiError):
                    normal_form(w, fx.presentation, table, G, fx.plan)
    return pairs


class TestBatchedStage1:
    """Stage 1 of find_clean_points, which takes the batches the clean rate
    shows it will need in one call, against the search that evaluated one
    batch at a time: the same points, values or error, bit for bit."""

    def test_seeded_word_pairs_match(self):
        for fx, exprs in seeded_word_pairs():
            for trees in (exprs, exprs[:1]):
                assert (search_outcome(find_clean_points, trees, fx.plan)
                        == search_outcome(batch_at_a_time, trees, fx.plan))

    def test_normal_form_pairs_match(self):
        pairs = normal_form_pairs()
        assert {plan for plan, _ in pairs} == {fx.plan for fx in FIXTURES.values()}
        outcomes = set()
        for plan, exprs in pairs:
            want = search_outcome(batch_at_a_time, exprs, plan)
            assert search_outcome(find_clean_points, exprs, plan) == want
            outcomes.add(isinstance(want, str))
        assert outcomes == {False, True}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TREES, min_size=1, max_size=2), st.integers(0, 2**32 - 1))
    def test_trees_match(self, trees, seed):
        plan = SamplePlan(seed=seed)
        assert (search_outcome(find_clean_points, trees, plan)
                == search_outcome(batch_at_a_time, trees, plan))


class TestFindAffineCommutator:
    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_negation_pairs_give_minus_z(self, name):
        fx = FIXTURES[name]
        res = find_affine_commutator(*fx.presentation.generators, fx.plan)
        assert abs(res.map.a + 1) < 1e-9
        assert abs(res.map.b) < 1e-9

    def test_same_function_gives_identity(self):
        f = FIXTURES["example-2.1-exp"].presentation.generator(1)
        res = find_affine_commutator(f, f, PLAN)
        assert res.map == IDENT and res.residual == 0.0

    def test_shifted_exponential_pair(self):
        fx = FIXTURES["derived-exp-shift"]
        res = find_affine_commutator(*fx.presentation.generators, fx.plan)
        assert abs(res.map.a - math.e) < 1e-9
        assert abs(res.map.b + math.e) < 1e-9

    # the pair's own fit error, as one search of (f∘g, g∘f) and one fit
    # give it
    @pytest.mark.parametrize("g,message", [
        (Power(Z, 2), "affine fit residual 2.065e+00 exceeds tolerance"),
        (Cos(Z), "affine fit residual 1.642e+00 exceeds tolerance"),
    ])
    def test_non_pair_raises_its_fit_error(self, g, message):
        with pytest.raises(NoAffineCommutatorError) as info:
            find_affine_commutator(Exp(Z), g, PLAN)
        assert type(info.value) is NoAffineCommutatorError
        assert str(info.value) == message

    def test_non_pair_rejected(self):
        with pytest.raises((NoAffineCommutatorError, DegenerateSamplesError)):
            find_affine_commutator(Exp(Z), Power(Z, 2), PLAN)

    def test_transcendental_non_pair_rejected(self):
        with pytest.raises((NoAffineCommutatorError, DegenerateSamplesError)):
            find_affine_commutator(Exp(Z), Cos(Z), PLAN)

    # u = a*w at the sample values: a = 0 and an a whose reciprocal
    # overflows both solve to maps with no valid inverse
    @pytest.mark.parametrize("a", [0.0, 1e-320])
    def test_uninvertible_solution_is_no_commutator(self, monkeypatch, a):
        w = np.arange(1.0, 33.0) + 0j
        u = a * w

        def fake(exprs, plan):
            return w, [u, w]

        monkeypatch.setattr(semidyn.commutator, "find_clean_points", fake)
        with pytest.raises(NoAffineCommutatorError):
            find_affine_commutator(Exp(Z), Cos(Z), PLAN)


def per_order_reference(S, plan):
    """S's table solved one ordered pair at a time: one search of
    (f_i∘f_j, f_j∘f_i) and one fit of the first's values to the second's
    per (i, j), kept as the reference of the table's one search per
    unordered pair.  Returns the entries as commutator_table.json lists
    them and each unsolved pair's error type and message, row by row."""
    n = len(S)
    entries, failures = [], {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            f, g = S.generator(i), S.generator(j)
            try:
                if f is g or f == g:
                    res = CommutatorResult(IDENT, 0.0)
                else:
                    _, (u, w) = find_clean_points([compose(f, g), compose(g, f)], plan)
                    res = _fit_affine(u, w, plan)
            except (NoAffineCommutatorError, DegenerateSamplesError) as exc:
                failures[(i, j)] = (type(exc), str(exc))
                continue
            entries.append({"i": i, "j": j, **res.map.to_json_dict(),
                            "residual": res.residual})
    return entries, failures


class TestCommutatorTable:
    def test_negation_pair_table(self):
        fx = FIXTURES["example-2.1-exp"]
        table = build_commutator_table(fx.presentation, fx.plan)
        assert affine_distance(table.entry(1, 2), AffineMap(-1, 0)) < 1e-9
        assert affine_distance(table.entry(2, 1), AffineMap(-1, 0)) < 1e-9
        assert table.entry(1, 1) == IDENT and table.entry(2, 2) == IDENT

    def test_single_generator(self):
        S = SemigroupPresentation((Cos(Z),), label="single")
        table = build_commutator_table(S, PLAN)
        assert table.maps() == [IDENT]

    def test_failure_lists_pairs(self):
        S = SemigroupPresentation((Exp(Z), Cos(Z)), label="nonpair")
        table = build_commutator_table(S, PLAN)
        assert not table.algebraic and (1, 2) in table.failing_pairs

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_opposite_entries_compose_to_identity(self, name):
        fx = FIXTURES[name]
        table = build_commutator_table(fx.presentation, fx.plan)
        for i in range(1, len(fx.presentation) + 1):
            for j in range(1, len(fx.presentation) + 1):
                m = affine_compose(table.entry(i, j), table.entry(j, i))
                assert affine_distance(m, IDENT) < 1e-9

    # the fixtures, a pair with no commutator, and three generators of
    # which only the first two pair up
    TABLE_CASES = {
        **{name: (FIXTURES[name].presentation, FIXTURES[name].plan) for name in FIXTURES},
        "exp-cos": (SemigroupPresentation((Exp(Z), Cos(Z))), PLAN),
        "three": (SemigroupPresentation((Cos(Z), Negate(Cos(Z)), Exp(Z))), PLAN),
    }

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_one_search_per_pair(self, monkeypatch, case):
        S, plan = self.TABLE_CASES[case]
        n = len(S)
        searches = []
        real = semidyn.commutator.find_clean_points

        def spy(exprs, plan):
            searches.append(exprs)
            return real(exprs, plan)

        monkeypatch.setattr(semidyn.commutator, "find_clean_points", spy)
        table = build_commutator_table(S, plan)
        assert len(searches) == n * (n - 1) // 2
        monkeypatch.undo()
        assert list(table.entries)[:n] == [(i, i) for i in range(1, n + 1)]

        want, want_failing = per_order_reference(S, plan)
        # a partial table keeps its solved entries, and they match too
        assert table.failing_pairs == tuple(want_failing)
        assert {key: (type(exc), str(exc))
                for key, exc in table.failures.items()} == want_failing
        assert table.algebraic == (not want_failing)
        assert table.to_json_dict()["entries"] == want
        assert case not in ("exp-cos", "three") or want_failing

    def test_entry_raises_from_the_stored_error(self):
        # the commutator-partial set: generators 1 and 2 pair up, 3 pairs
        # with neither
        S = SemigroupPresentation((Cos(Z), Negate(Cos(Z)), Exp(Z)))
        table = build_commutator_table(S, SamplePlan())
        assert table.failing_pairs == ((1, 3), (2, 3), (3, 1), (3, 2))
        for key in table.failing_pairs:
            exc = table.failures[key]
            with pytest.raises(MissingCommutatorError) as info:
                table.entry(*key)
            assert str(info.value) == f"bracket could not be solved: {exc}"
            assert info.value.__cause__ is exc

    def test_json_coefficients_parse_back_bit_for_bit(self, tmp_path):
        # commutator_table.json holds each coefficient as "re,im" text, and
        # float() of each part gives the table's bits back
        fx = FIXTURES["derived-exp-shift"]
        table = build_commutator_table(fx.presentation, fx.plan)
        assert cli_main(["commutator", "--fixture", "derived-exp-shift",
                         "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "commutator_table.json").read_text())
        assert len(doc["table"]["entries"]) == len(table.entries)
        for rec in doc["table"]["entries"]:
            m = table.entry(rec["i"], rec["j"])
            for key in ("a", "b"):
                want = complex(getattr(m, key))
                got = [float(part).hex() for part in rec[key].split(",")]
                assert got == [want.real.hex(), want.imag.hex()]


class TestNearlyAbelian:
    def test_cos_pair(self):
        fx = FIXTURES["example-2.1-cos"]
        table = is_nearly_abelian(fx.presentation, fx.plan)
        assert table.algebraic and table.failing_pairs == ()
        assert len(table.entries) == 4

    def test_single_generator_is_abelian(self):
        S = SemigroupPresentation((Cos(Z),), label="single")
        table = is_nearly_abelian(S, PLAN)
        assert table.algebraic
        assert table.entry(1, 1) == IDENT

    def test_non_pair(self):
        S = SemigroupPresentation((Exp(Z), Cos(Z)), label="nonpair")
        table = is_nearly_abelian(S, PLAN)
        assert not table.algebraic
        assert table.failing_pairs == ((1, 2), (2, 1))
        assert list(table.entries) == [(1, 1), (2, 2)]

    def test_one_function_builds_the_table(self):
        assert build_commutator_table is is_nearly_abelian


class TestGroupClosure:
    def test_involution_gives_two_elements(self):
        G = group_closure([AffineMap(-1, 0)])
        assert len(G) == 2
        assert G.find(IDENT) is not None
        assert G.find(AffineMap(-1, 0)) is not None

    def test_empty_seeds_trivial_group(self):
        G = group_closure([])
        assert [m for m in G.elements] == [IDENT]

    def test_doubling_overflows(self):
        with pytest.raises(ClosureOverflowError) as exc:
            group_closure([AffineMap(2, 0)])
        assert str(exc.value) == "closure exceeded cap 64"

    def test_product_leaving_the_affine_maps_overflows(self):
        # the powers of 1e30 pass 1e308 long before the cap: a product's
        # coefficient a becomes infinite
        with pytest.raises(ClosureOverflowError, match="invertible affine maps"):
            group_closure([AffineMap(1e30, 1.0)])

    def test_rotation_order_four(self):
        G = group_closure([AffineMap(1j, 0)])
        assert len(G) == 4

    def test_closure_is_closed(self):
        G = group_closure([AffineMap(1j, 0), AffineMap(-1j, 0)])
        for x in G.elements:
            for y in G.elements:
                assert G.find(affine_compose(x, y)) is not None


class TestIdentities:
    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    @pytest.mark.parametrize("which,n", [("1", 1), ("1", 2), ("1", 3),
                                         ("2", 1), ("2", 2), ("2", 3),
                                         ("3", 1)])
    def test_bracket_identities(self, name, which, n):
        fx = FIXTURES[name]
        f, g = fx.presentation.generators
        rep = verify_identity(which, f, g, n=n, plan=fx.plan)
        assert rep.holds, f"identity {which} (n={n}) residual {rep.residual:.3e}"
        assert rep.residual < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_2_on_affine_maps_compares_values(self, n):
        # both sides fold to affine maps whose b, near 1e8, differ by more
        # than the tolerance; their values at the sample points agree
        f, g = AffineMap(1, 1e8), AffineMap(1.5, -1.5e8)
        rep = verify_identity("2", f, g, n=n, plan=PLAN)
        assert rep.holds and rep.residual < 1e-15

    def test_diagonal_zero_residual(self):
        f = FIXTURES["example-2.1-cos"].presentation.generator(1)
        rep = verify_identity("diagonal", f, f, plan=PLAN)
        assert rep.holds and rep.residual == 0.0

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_inverse_law(self, name):
        fx = FIXTURES[name]
        f, g = fx.presentation.generators
        rep = verify_identity("inverse", f, g, plan=fx.plan)
        assert rep.holds and rep.residual < 1e-9

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity("nope", Cos(Z), Cos(Z), plan=PLAN)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            verify_identity("1", Cos(Z), Cos(Z), n=4, plan=PLAN)


class TestConjugation:
    def test_identity_conjugation(self):
        fx = FIXTURES["example-2.1-cos"]
        conj = conjugate_semigroup(fx.presentation, IDENT)
        for g1, g2 in zip(conj.generators, fx.presentation.generators):
            assert numerically_equal(g1, g2, fx.plan).equal

    def test_negation_conjugation_swaps_even_pair(self):
        # phi f phi^{-1} = -f(-z) = -f for even f
        fx = FIXTURES["example-2.1-exp"]
        conj = conjugate_semigroup(fx.presentation, AffineMap(-1, 0))
        assert numerically_equal(
            conj.generator(1), fx.presentation.generator(2), fx.plan
        ).equal

    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_double_conjugation_returns(self, name):
        fx = FIXTURES[name]
        phi = AffineMap(-1, 0)
        back = conjugate_semigroup(
            conjugate_semigroup(fx.presentation, phi), affine_inverse(phi)
        )
        for g1, g2 in zip(back.generators, fx.presentation.generators):
            rep = numerically_equal(g1, g2, fx.plan)
            assert rep.equal and rep.max_error < 1e-9

    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_conjugate_preserves_near_abelianness(self, name):
        fx = FIXTURES[name]
        table = is_nearly_abelian(fx.presentation, fx.plan)
        conj = conjugate_semigroup(fx.presentation, table.entry(1, 2))
        assert table.algebraic == is_nearly_abelian(conj, fx.plan).algebraic

    def test_commutator_product_can_leave_commutator_set(self):
        # exhibited on the shifted-exp pair: the square of a commutator is
        # not within tolerance of any solved table entry
        fx = FIXTURES["derived-exp-shift"]
        table = build_commutator_table(fx.presentation, fx.plan)
        xi = affine_compose(table.entry(1, 2), table.entry(1, 2))
        assert all(affine_distance(xi, m) > 1e-6 for m in table.maps())


class TestPresentationValidation:
    def test_needs_generators(self):
        with pytest.raises(ValueError):
            SemigroupPresentation(())

    def test_takes_any_entire_maps(self, tmp_path):
        # Example 2.1 with the polynomial h = z²: [f, g] = -z, bit for bit
        # the entry the CLI writes for the same generators; conjugating by -z
        # gives <-h, h>, whose [f, g] is -z too.  Unlabeled, S is named S.
        h = Power(Z, 2)
        S = SemigroupPresentation((h, Negate(h)))
        minus_z = AffineMap(-1, 0)
        entry = is_nearly_abelian(S, SamplePlan()).entry(1, 2)
        assert entry == minus_z
        assert cli_main(["commutator", "--generators", "pow(z,2)", "neg(pow(z,2))",
                         "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "commutator_table.json").read_text())
        [rec] = [r for r in doc["table"]["entries"] if (r["i"], r["j"]) == (1, 2)]
        assert {key: rec[key] for key in ("a", "b")} == entry.to_json_dict()
        conj = conjugate_semigroup(S, minus_z)
        assert is_nearly_abelian(conj, SamplePlan()).entry(1, 2) == minus_z
        assert conj.label == "conjugate(S, a=-1, b=0)"
        assert presentation_to_json_dict(S)["label"] == "S"
        spec = GridSpec(center=0j, width=4.0, height=4.0, cols=4, rows=4)
        assert classify_semigroup(S, spec).subject == "semigroup:S;words<=2"
