import cmath
import gc
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semidyn.expr
from semidyn.expr import (
    AffineMap,
    Compose,
    Const,
    Cos,
    DegenerateAffineError,
    EvalOverflow,
    Expr,
    ExprParseError,
    Exp,
    Identity,
    MAX_POWER,
    NODE_TYPES,
    Negate,
    Power,
    Product,
    SamplePlan,
    Sin,
    Sum,
    affine_compose,
    affine_distance,
    affine_inverse,
    compare_values,
    compose,
    compose_power,
    eval_array,
    eval_at,
    format_complex,
    format_expr,
    is_exactly_real,
    numerically_equal,
    parse_complex,
    parse_expr,
)
from semidyn.commutator import conjugate_semigroup
from semidyn.fixtures import FIXTURES
from semidyn.words import Word, word_expr

Z = Identity()
F_EXP_SQ = Sum((Exp(Power(Z, 2)), Const(0.2)))
PLAN = SamplePlan(seed=7)
# 32 seeded points in the disk |z| <= 2
_rng = np.random.default_rng(7)
POINTS = 2.0 * np.sqrt(_rng.random(32)) * np.exp(2j * np.pi * _rng.random(32))

COEFFS = st.sampled_from([0.2, -1.0, 1j, 2.5 - 0.5j, 1e100, 1e149, 1e200])
# trees of every node kind
TREES = st.recursive(
    st.one_of(st.just(Z), COEFFS.map(Const), st.builds(AffineMap, COEFFS, COEFFS)),
    lambda inner: st.one_of(
        st.builds(Power, inner, st.integers(1, 4)),
        st.builds(Exp, inner),
        st.builds(Cos, inner),
        st.builds(Sin, inner),
        st.builds(Negate, inner),
        st.lists(inner, min_size=2, max_size=3).map(lambda ms: Compose(tuple(ms))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ts: Product(tuple(ts))),
    ),
    max_leaves=10,
)


class TestEval:
    def test_cos_at_zero(self):
        assert eval_at(Cos(Z), 0) == 1 + 0j

    def test_exp_sq_plus_lambda_at_zero(self):
        assert eval_at(F_EXP_SQ, 0) == pytest.approx(1.2 + 0j)

    def test_compose_cos_negate(self):
        # oracle: direct scalar evaluation
        z = 0.5403 + 0j
        got = eval_at(Compose((Cos(Z), Negate(Z))), z)
        assert got == pytest.approx(cmath.cos(-z), abs=1e-15)

    def test_power(self):
        assert eval_at(Power(Z, 3), 2 + 1j) == (2 + 1j) ** 3

    def test_sum_product_negate(self):
        e = Product((Const(2.0), Sum((Z, Const(1.0)))))
        assert eval_at(e, 3) == 8 + 0j
        assert eval_at(Negate(e), 3) == -8 + 0j

    def test_sin(self):
        assert eval_at(Sin(Z), 1.0) == pytest.approx(cmath.sin(1.0))

    def test_overflow_raises(self):
        with pytest.raises(EvalOverflow):
            eval_at(Exp(Const(400.0)), 0)
        with pytest.raises(EvalOverflow):
            eval_at(Product((Const(1e100), Const(1e100))), 0)

    def test_eval_array_matches_scalar(self):
        # eval_at is eval_array at one point, and evaluation is elementwise
        pts = POINTS
        vals, bad = eval_array(F_EXP_SQ, pts)
        assert not bad.any()
        for z, v in zip(pts, vals):
            assert np.complex128(eval_at(F_EXP_SQ, complex(z))).tobytes() == v.tobytes()
        vals2, _ = eval_array(F_EXP_SQ, pts)
        assert np.array_equal(vals, vals2)
        for z in pts[:4]:
            assert eval_at(F_EXP_SQ, complex(z)) == eval_at(F_EXP_SQ, complex(z))

    def test_eval_array_masks_overflow(self):
        vals, bad = eval_array(Exp(Z), np.array([0.0 + 0j, 400.0 + 0j]))
        assert list(bad) == [False, True]
        assert vals[0] == 1 + 0j

    INF, NAN = complex("inf"), complex("nan")

    # bad masks at the ceiling's edges, recorded at 3ea6d88, where every
    # node checked its own output
    CEILING_EDGES = [
        (Const(1e200), [0, 1, 1e160], [1, 1, 1]),
        (Const(1e149), [0, 1e160], [0, 0]),
        (Sum((Z, Const(6e149))), [1, 5e149, -6e149, 1e151], [0, 1, 0, 1]),
        (Power(Z, 3), [1e50, 2e50, 1e49, 1e160, 4.6e49], [1, 1, 0, 1, 0]),
        (Product((Const(1e100), Z)), [1e51, 1e49, -1e50], [1, 0, 1]),
        (AffineMap(1e100, 0), [1e51, 1e49], [1, 0]),
        (Exp(Z), [345, 346, 345 + 1e6j, -1e149], [0, 1, 0, 0]),
        (Cos(Z), [346j, -346j, 345j, -345j, 1e149], [1, 1, 0, 0, 0]),
        (Sin(Z), [346j, -346j, 345j, -345j, 1e149], [1, 1, 0, 0, 0]),
        (Z, [INF, NAN, 1e160, complex(1, math.inf), 1e150, 0], [1, 1, 1, 1, 0, 0]),
        (Negate(Const(1e200)), [0], [1]),
        (Compose((Exp(Z), Power(Z, 2))), [18, 19, 18.6, 1e80], [0, 1, 1, 1]),
        # added later; they pass float range on the way: inf, and NaN
        # from inf * 0
        (Power(Z, 3), [1e149, 1e49], [1, 0]),
        (AffineMap(1e200, 0), [1e149, 1e-60], [1, 0]),
        (Product((Z, Z, Z)), [1e149, 1e49], [1, 0]),
        (Power(Z, 4), [1e149, 1e37], [1, 0]),
        # a NaN makes the max NaN, which must fail the all-clean test
        (Z, [NAN, 0], [1, 0]),
    ]

    @pytest.mark.parametrize("expr,points,mask", CEILING_EDGES,
                             ids=lambda v: type(v).__name__ if isinstance(v, Expr) else None)
    def test_bad_mask_at_ceiling_edges(self, expr, points, mask):
        _, bad = eval_array(expr, np.array(points, dtype=np.complex128))
        assert bad.astype(int).tolist() == mask

    def test_empty_points(self):
        # the all-clean test reduces with max, which has no empty answer
        for expr, _, _ in self.CEILING_EDGES:
            vals, bad = eval_array(expr, np.empty(0, dtype=np.complex128))
            assert vals.shape == bad.shape == (0,)

    # numpy's in-place complex multiply rounds one-element arrays apart from
    # every other length (numpy 2.4 on AVX-512 hardware); a one-point
    # eval_at, and a Compose left with one clean point, would see it
    @pytest.mark.parametrize("tree", [Power(Z, 3), Product((Z, Exp(Z)))], ids=format_expr)
    def test_one_point_is_the_full_array_element(self, tree):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        vals, bad = eval_array(tree, pts)
        assert not bad.any()
        for k in range(len(pts)):
            one, _ = eval_array(tree, pts[k:k + 1])
            assert one.tobytes() == vals[k:k + 1].tobytes()
            at = np.complex128(eval_at(tree, complex(pts[k])))
            assert at.tobytes() == vals[k].tobytes()

    def test_ceiling_edges_warn_nothing(self):
        # the bad mask records every overflow, so numpy's warnings are noise
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for expr, points, _ in self.CEILING_EDGES:
                pts = np.array(points, dtype=np.complex128)
                eval_array(expr, pts)

    @settings(max_examples=300, deadline=None)
    @given(TREES, st.integers(0, 2**32 - 1), st.sampled_from([1.0, 20.0, 400.0, 1e50]))
    def test_subset_evaluation_is_the_slice(self, tree, seed, radius):
        # the clean-point search evaluates later expressions only at the
        # points still clean, and relies on getting the same bits there
        rng = np.random.default_rng(seed)
        pts = radius * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        keep = rng.random(64) < 0.5
        vals, bad = eval_array(tree, pts)
        sub_vals, sub_bad = eval_array(tree, pts[keep])
        assert np.array_equal(sub_bad, bad[keep])
        clean = ~sub_bad
        assert vals[keep][clean].tobytes() == sub_vals[clean].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(TREES, st.integers(0, 2**32 - 1))
    def test_input_is_neither_written_nor_returned(self, tree, seed):
        # nodes overwrite their children's arrays, and the grid kernel
        # passes its iterates in without a copy: both rest on this
        rng = np.random.default_rng(seed)
        pts = 20.0 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        before = pts.tobytes()
        vals, _ = eval_array(tree, pts)
        assert pts.tobytes() == before
        assert not np.shares_memory(vals, pts)

    @settings(max_examples=300, deadline=None)
    @given(TREES, st.integers(0, 2**32 - 1))
    def test_negating_the_values_is_the_negated_tree(self, tree, seed):
        # the grid kernel evaluates h once for <h, -h> and negates it
        rng = np.random.default_rng(seed)
        pts = 20.0 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        vals, bad = eval_array(tree, pts)
        neg_vals, neg_bad = eval_array(Negate(tree), pts)
        assert np.array_equal(neg_bad, bad)
        assert np.negative(vals).tobytes() == neg_vals.tobytes()

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the call's state, and the arrays it holds,
        # alive until the cyclic GC runs
        pts = 12.0 * (np.random.default_rng(0).standard_normal(64) + 1j)
        gc.collect()
        gc.disable()
        try:
            got = eval_array(Sum((Exp(AffineMap(2, 1)), Cos(Z))), pts)
            del got
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=300, deadline=None)
    @given(TREES, st.integers(0, 2**32 - 1))
    def test_every_node_returns_values_within_the_ceiling(self, tree, seed):
        # so eval_array's input is the one array that needs a ceiling check
        rng = np.random.default_rng(seed)
        pts = np.concatenate([20.0 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)),
                              [1e160, -1e160j, self.INF, self.NAN, complex(1, math.inf),
                               1e150, 1e149, 1e-20]])
        outputs = []
        with pytest.MonkeyPatch.context() as m:
            for cls in NODE_TYPES:
                def spy(node, w, bad, real=cls._eval):
                    v = real(node, w, bad)
                    outputs.append(v.copy())  # the parent may overwrite v
                    return v

                m.setattr(cls, "_eval", spy)
            eval_array(tree, pts)
        assert outputs
        for v in outputs:
            assert np.isfinite(v).all()
            assert (np.abs(v) <= semidyn.expr.OVERFLOW_CEILING).all()

    # eval_array checks its input where an Identity reads it; a later map
    # of a chain reads the values of the map before it, and an AffineMap
    # caps its own output
    @pytest.mark.parametrize("expr,mask", [
        (Compose((Z, Const(1e149))), [0, 0]),
        (Compose((Cos(Z), AffineMap(1e-20, 0))), [0, 0]),
        (Compose((AffineMap(1e-20, 0), Z)), [0, 1]),
        (Sum((AffineMap(1e-20, 0), Negate(Z))), [0, 1]),
        (Product((AffineMap(1e-20, 0), Const(1.0))), [0, 0]),
    ], ids=lambda v: format_expr(v) if isinstance(v, Expr) else None)
    def test_input_is_checked_where_an_identity_reads_it(self, expr, mask):
        _, bad = eval_array(expr, np.array([1.0, 1e160], dtype=np.complex128))
        assert bad.astype(int).tolist() == mask

    # every map's values are within the ceiling, so a chain checks only its
    # input; at a1d7399 each cos(z) checked the values it read, 8 checks
    @pytest.mark.parametrize("points", [POINTS, [0, 1e160, 3j, 400j]])
    def test_chain_checks_the_ceiling_once(self, monkeypatch, points):
        checks = []
        real = semidyn.expr._over_ceiling

        def spy(v):
            checks.append(len(v))
            return real(v)

        monkeypatch.setattr(semidyn.expr, "_over_ceiling", spy)
        eval_array(Compose((Cos(Z),) * 8), np.array(points, dtype=np.complex128))
        assert len(checks) <= 1


class TestCompose:
    def test_identity_left(self):
        assert compose(Z, F_EXP_SQ) is F_EXP_SQ

    def test_identity_right(self):
        assert compose(F_EXP_SQ, Z) is F_EXP_SQ

    def test_affine_folding_involution(self):
        # negation composed with itself folds to the identity affine map
        t = compose(AffineMap(-1, 0), AffineMap(-1, 0))
        assert isinstance(t, AffineMap)
        rep = numerically_equal(t, Z, PLAN)
        assert rep.equal and rep.max_error == 0.0

    @pytest.mark.parametrize("outer,inner", [
        (AffineMap(-1, 0), AffineMap(-1, 0)),
        (AffineMap(3 + 1j, 2 - 1j), AffineMap(0.5, 1j)),
        (AffineMap(1e149, -2.5), AffineMap(-1e-149, 0.1 + 0.3j)),
        (AffineMap(-0.0 + 1j, -0.0), AffineMap(1j, 0.0)),
    ])
    def test_affine_fold_is_affine_compose(self, outer, inner):
        t, m = compose(outer, inner), affine_compose(outer, inner)
        assert type(t) is AffineMap
        # repr tells -0.0 from 0.0
        assert [repr(complex(c)) for c in (t.a, t.b)] == [repr(complex(c)) for c in (m.a, m.b)]

    def test_affine_fold_past_the_invertible_maps_stays_a_compose(self):
        # a = 1e400 is not finite, so the two maps apply one after the other
        f = AffineMap(1e200, 0)
        with pytest.raises(DegenerateAffineError):
            affine_compose(f, f)
        assert compose(f, f) == Compose((f, f))

    def test_exp_after_shift(self):
        t = compose(Exp(Z), AffineMap(1, 1))
        assert eval_at(t, 0) == pytest.approx(math.e)

    def test_compose_eval_bitwise(self):
        # whenever the right side is clean, both sides agree bitwise
        for z in POINTS:
            z = complex(z)
            rhs = eval_at(Cos(Z), eval_at(F_EXP_SQ, z))
            lhs = eval_at(compose(Cos(Z), F_EXP_SQ), z)
            assert lhs == rhs

    @pytest.fixture
    def cos_sizes(self, monkeypatch):
        """The number of points of each Cos evaluation."""
        calls = []
        real = Cos._eval

        def spy(self, w, bad):
            calls.append(w.size)
            return real(self, w, bad)

        monkeypatch.setattr(Cos, "_eval", spy)
        return calls

    def test_all_bad_inner_skips_outer(self, cos_sizes):
        calls = cos_sizes
        # real parts over 345: exp's guard marks every point bad
        pts = np.array([346.0, 400 + 1j, 1e3 - 5j])
        _, bad = eval_array(Compose((Cos(Z), Exp(Z))), pts)
        assert bad.all() and calls == []
        # three of four bad: the outer child sees the clean point alone
        _, bad = eval_array(Compose((Cos(Z), Exp(Z))), np.append(pts, 0))
        assert bad.tolist() == [True, True, True, False] and calls == [1]

    def test_under_half_bad_outer_sees_every_point(self, cos_sizes):
        calls = cos_sizes
        pts = np.array([346.0, 0, 1j, -2.0, 3 + 1j])
        _, bad = eval_array(Compose((Cos(Z), Exp(Z))), pts)
        assert bad.tolist() == [True, False, False, False, False] and calls == [5]
        # exactly half bad compacts
        _, bad = eval_array(Compose((Cos(Z), Exp(Z))), np.append(pts[:3], 400))
        assert bad.tolist() == [True, False, False, True] and calls == [5, 2]

    def test_compaction_leaves_no_reference_cycle(self):
        pts = np.array([0, 346, 400, 400 + 5j])
        gc.collect()
        gc.disable()
        try:
            got = eval_array(Compose((Cos(Z), Exp(Z))), pts)
            assert got[1].tolist() == [False, True, True, True]
            del got
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(TREES, st.sampled_from([F_EXP_SQ, Negate(F_EXP_SQ), Exp(Z)])),
                    min_size=2, max_size=12),
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 3.0, 20.0, 400.0]))
    def test_chain_is_level_by_level(self, maps, seed, radius):
        # a chain compacts at each level where half its points have gone
        # bad; clean values and masks stay those of one map at a time
        rng = np.random.default_rng(seed)
        pts = radius * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        chain = maps[0]
        for m in maps[1:]:
            chain = Compose((m, chain))
        want, want_bad = pts, np.zeros(64, dtype=bool)
        for m in maps:
            want, b = eval_array(m, want)
            want_bad |= b
        vals, bad = eval_array(chain, pts)
        assert np.array_equal(bad, want_bad)
        assert vals[~bad].tobytes() == want[~bad].tobytes()

    # conjugate letters phi o g o phi^-1 of each fixture generator g, each
    # itself a chain of three maps
    CONJUGATE_LETTERS = [
        g for fx in FIXTURES.values() for phi in (AffineMap(-1, 0), AffineMap(0.5, 1j))
        for g in conjugate_semigroup(fx.presentation, phi).generators
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(TREES, st.sampled_from([F_EXP_SQ, Negate(F_EXP_SQ), Exp(Z),
                                                      *CONJUGATE_LETTERS])),
                    min_size=2, max_size=12),
           st.sampled_from(["left", "right", "mixed"]), st.data(),
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 3.0, 20.0, 400.0]))
    def test_nested_chain_is_map_by_map(self, maps, shape, data, seed, radius):
        # however the Compose nodes nest, a chain evaluates its maps in the
        # order they apply; clean values and masks stay those of one map
        # at a time
        def chain(i, j):  # maps[i:j], maps[i] applied first
            if j - i == 1:
                return maps[i]
            k = {"left": j - 1, "right": i + 1}.get(shape)
            if k is None:
                k = data.draw(st.integers(i + 1, j - 1))
            return Compose((chain(k, j), chain(i, k)))

        rng = np.random.default_rng(seed)
        pts = radius * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        want, want_bad = pts, np.zeros(64, dtype=bool)
        for m in maps:
            want, b = eval_array(m, want)
            want_bad |= b
        tree = chain(0, len(maps))
        # every nesting is the one chain of its maps, in written order
        assert tree == Compose(tuple(reversed(maps)))
        vals, bad = eval_array(tree, pts)
        assert np.array_equal(bad, want_bad)
        assert vals[~bad].tobytes() == want[~bad].tobytes()

    @pytest.mark.parametrize("name", ["example-2.1-exp", "example-2.1-cos"])
    def test_long_word_is_one_compose_call(self, monkeypatch, name):
        # a 32-letter word is one Compose of 32 generators that hold none,
        # and evaluates in one Compose._eval call
        S = FIXTURES[name].presentation
        word = word_expr(Word((1, 2, 2, 1) * 8), S)
        calls = []
        real = Compose._eval

        def spy(self, w, bad):
            calls.append(self)
            return real(self, w, bad)

        monkeypatch.setattr(Compose, "_eval", spy)
        for _ in range(3):
            eval_array(word, POINTS)
        assert calls == [word] * 3

    @settings(max_examples=300, deadline=None)
    @given(TREES, TREES, st.integers(0, 2**32 - 1), st.sampled_from([1.0, 20.0, 400.0, 1e50]))
    def test_outer_at_inner_values(self, u, t, seed, radius):
        rng = np.random.default_rng(seed)
        pts = radius * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        tv, tbad = eval_array(t, pts)
        uv, ubad = eval_array(u, tv)
        vals, bad = eval_array(Compose((u, t)), pts)
        assert np.array_equal(bad, tbad | ubad)
        assert vals[~bad].tobytes() == uv[~bad].tobytes()

    def test_associativity_at_samples(self):
        f, g, h = Cos(Z), Exp(Z), AffineMap(0.5, 0.1)
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        rep = numerically_equal(lhs, rhs, PLAN)
        assert rep.equal

    def test_compose_power(self):
        t = compose_power(Cos(Z), 3)
        assert eval_at(t, 0.3) == pytest.approx(cmath.cos(cmath.cos(cmath.cos(0.3))))
        with pytest.raises(ValueError):
            compose_power(Cos(Z), 0)


class TestNumericEquality:
    def test_reflexive_zero_error(self):
        rep = numerically_equal(F_EXP_SQ, F_EXP_SQ, PLAN)
        assert rep.equal and rep.max_error == 0.0

    def test_even_function_precomposed_with_negation(self):
        rep = numerically_equal(compose(F_EXP_SQ, AffineMap(-1, 0)), F_EXP_SQ, PLAN)
        assert rep.equal

    def test_exp_not_cos(self):
        rep = numerically_equal(Exp(Z), Cos(Z), PLAN)
        assert not rep.equal

    def test_searches_past_overflowing_points(self):
        # h^7 for h = e^{z^2} + 0.2 overflows at 20 of the first 32 points
        # drawn with example-2.1-exp's seed, so the comparison needs points
        # from further on in the clean-point search
        h7 = compose_power(F_EXP_SQ, 7)
        rep = numerically_equal(h7, Negate(Negate(h7)), SamplePlan(seed=21))
        assert rep.equal and rep.max_error == 0.0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplePlan(tolerance=0)
        # a NaN tolerance made every comparison pass, a fractional seed
        # reached numpy as a TypeError, and a JSON true seed was written back
        # to reports as true
        for bad in ({"tolerance": math.nan}, {"seed": -1}, {"seed": 1.5},
                    {"seed": True}):
            with pytest.raises(ValueError):
                SamplePlan(**bad)

    def test_tolerance_below_one(self):
        # opposite values differ by 2 relative to their size, the largest
        # error compare_values measures, so a tolerance of 2 passes them
        v = POINTS
        assert compare_values(v, -v, PLAN).max_error == 2.0
        for tolerance in (1, 2, math.inf):
            with pytest.raises(ValueError):
                SamplePlan(tolerance=tolerance)


class TestAffine:
    def test_negation_is_its_own_inverse(self):
        m = AffineMap(-1, 0)
        assert affine_inverse(m) == m

    def test_identity_element(self):
        m = AffineMap(3 + 1j, 2 - 1j)
        assert affine_compose(AffineMap(1, 0), m) == m

    def test_solved_inverse(self):
        assert affine_inverse(AffineMap(2, 4)) == AffineMap(0.5, -2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateAffineError):
            AffineMap(0, 1)

    # non-finite values, and finite values whose reciprocal overflows to inf
    # or underflows to 0, so that affine_inverse could not be built
    @pytest.mark.parametrize("a", [math.inf, complex(math.nan, 0), 1e-320,
                                   complex(1e-320, 1e-320), complex(1e308, 1e308)])
    def test_uninvertible_rejected(self, a):
        with pytest.raises(DegenerateAffineError):
            AffineMap(a, 1)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False),
    )
    def test_compose_inverse_is_identity(self, a, b):
        # the closed form is exact in the algebra; in floats the round trip
        # lands within a few ulps of (1, 0)
        m = AffineMap(a, b)
        r = affine_compose(m, affine_inverse(m))
        assert affine_distance(r, AffineMap(1, 0)) < 1e-12 * max(1.0, abs(b))


NEGATION = AffineMap(-1, 0)
FIXTURE_GENERATORS = [g for fx in FIXTURES.values() for g in fx.presentation.generators]


def conjugation_points():
    """The cell centres of the fixtures' 512 x 512 window, 10^6 Gaussian
    points at each of the scales 0.5, 3, 30 and 200 (exp, cos and sin
    overflow at the larger ones), and arrays of every length from 1 to 17,
    which take the SIMD loops' remainder paths."""
    rng = np.random.default_rng(25)
    yield FIXTURES["example-2.1-exp"].window.cell_centers().ravel()
    for scale in (0.5, 3.0, 30.0, 200.0):
        yield (rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)) * scale
    for n in range(1, 18):
        yield (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 3.0


class TestExactlyReal:
    """is_exactly_real proves that a tree commutes with conjugation, so that
    the grid kernel may fill the rows of a grid by their mirror images."""

    ACCEPTED = FIXTURE_GENERATORS + [
        g for fx in FIXTURES.values()
        for g in conjugate_semigroup(fx.presentation, NEGATION).generators
    ] + [Z, Const(-2.5), AffineMap(0.5, -1), Cos(Product((Const(0.3), Sin(Z)))),
         Compose((Exp(Z), AffineMap(2, 0.25)))]
    REJECTED = [Const(3 + 1j), AffineMap(1j, 0), AffineMap(1, 0.5j),
                AffineMap(2 - 1e-300j, 0), Sum((Exp(Z), Const(1j))),
                Compose((Cos(Z), AffineMap(1, 1j))), Const(complex(0, math.nan))]

    @pytest.mark.parametrize("e", ACCEPTED, ids=format_expr)
    def test_accepted_trees_commute_with_conjugation(self, e):
        # equal values but for the sign of zero components, and equal masks
        assert is_exactly_real(e)
        rng = np.random.default_rng(0)
        z = np.concatenate([
            (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) * scale
            for scale in (0.5, 3.0, 20.0, 400.0, 1e80)
        ])
        (v, bad), (vc, badc) = eval_array(e, z), eval_array(e, np.conj(z))
        assert np.array_equal(bad, badc)
        assert np.array_equal(vc[~bad], np.conj(v[~bad]))

    @pytest.mark.parametrize("e", REJECTED, ids=format_expr)
    def test_non_real_coefficients_rejected(self, e):
        assert not is_exactly_real(e)

    @pytest.mark.parametrize("fn", [np.exp, np.cos, np.sin], ids=lambda fn: fn.__name__)
    def test_numpy_commutes_with_conjugation_bit_for_bit(self, fn):
        # the premise of is_exactly_real for the library calls, in the
        # in-place form that Exp, Cos and Sin use: a numpy or libm build
        # without it fails here rather than changing grids silently
        with np.errstate(over="ignore", invalid="ignore"):
            for u in conjugation_points():
                a = np.conj(u)
                fn(a, out=a)
                b = u.copy()
                fn(b, out=b)
                assert a.tobytes() == np.conj(b).tobytes(), u.size


# text from the notation's own vocabulary: node names, punctuation, z, an
# unknown name and numbers, including one that overflows a float.  Calls
# mostly take their node's fields, so well-formed trees come up often;
# calls of any arity and token soup give the malformed ones.
NODE_NAMES = st.sampled_from(
    ["z", "const", "affine", "pow", "exp", "cos", "sin", "add", "mul", "neg",
     "compose", "f1"]
)
NUMBERS = st.one_of(
    st.sampled_from(["0", "-1", "2", "1e400", "1+2i", "-0.5-1e-3i", ".5e-2"]),
    st.integers(-10, 10).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


def _call(name, *args):
    return f"{name}({', '.join(args)})"


PREFIX_TEXT = st.one_of(
    st.recursive(
        st.one_of(st.just("z"), NUMBERS.map(lambda c: _call("const", c))),
        lambda inner: st.one_of(
            st.builds(_call, st.sampled_from(["exp", "cos", "sin", "neg"]), inner),
            st.builds(_call, st.just("pow"), inner, NUMBERS),
            st.builds(_call, st.just("affine"), NUMBERS, NUMBERS),
            st.builds(_call, st.just("compose"), inner, inner),
            st.builds(lambda n, xs: _call(n, *xs), st.sampled_from(["add", "mul"]),
                      st.lists(inner, min_size=1, max_size=3)),
            st.builds(lambda n, xs: _call(n, *xs), NODE_NAMES,
                      st.lists(st.one_of(inner, NUMBERS), max_size=3)),
        ),
        max_leaves=12,
    ),
    st.lists(st.one_of(NODE_NAMES, NUMBERS, st.sampled_from("(),")),
             max_size=30).map(" ".join),
)


class TestSerialization:
    TREES = [
        Z,
        Const(0.2 + 0j),
        AffineMap(-1 + 0j, 0j),
        F_EXP_SQ,
        Negate(F_EXP_SQ),
        Compose((Cos(Z), Negate(Z))),
        Product((Const(2), Sin(Z))),
        Power(Sum((Z, Const(1))), 3),
    ]

    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    def test_round_trip(self, tree):
        text = format_expr(tree)
        again = parse_expr(text)
        assert format_expr(again) == text
        # bit-stable evaluation after the round trip
        for z in POINTS[:8]:
            assert eval_at(again, complex(z)) == eval_at(tree, complex(z))

    def test_documented_form(self):
        t = parse_expr("add(exp(pow(z,2)), const(0.2+0i))")
        assert eval_at(t, 0) == eval_at(F_EXP_SQ, 0)

    def test_compose_takes_a_chain(self):
        # compose(f, g, h) is f∘g∘h, and every nesting of it is that tree
        text = "compose(exp(z), cos(z), z)"
        t = parse_expr(text)
        assert t == Compose((Exp(Z), Cos(Z), Z))
        assert format_expr(t) == text
        for nested in ("compose(compose(exp(z), cos(z)), z)",
                       "compose(exp(z), compose(cos(z), z))"):
            assert parse_expr(nested) == t

    def test_affine_literal(self):
        t = parse_expr("affine(-1+0i, 0+0i)")
        assert t == AffineMap(-1 + 0j, 0j)

    def test_complex_literal_round_trip(self):
        for c in (0.2 + 0j, -1.5 - 2.25j, 1e-3 + 1e3j, 0.1 + 0.3j):
            assert parse_complex(format_complex(c)) == c

    def test_parse_errors(self):
        from semidyn.expr import ExprParseError

        for bad in ("wat", "add(z)", "exp(z", "const(zed)", "z z"):
            with pytest.raises((ExprParseError, ValueError)):
                parse_expr(bad)

    @pytest.mark.parametrize(
        "bad", ["exp(z, z)", "compose(z)", "add(z)", "pow(z, x)", "pow(z, 0)",
                "const(1e400)", "affine(1, 0+1e999i)", "affine(0+0i, 1+0i)",
                "affine(1e-320+0i, 0+0i)", "pow(z,65)"]
    )
    def test_malformed_raises_parse_error(self, bad):
        with pytest.raises(ExprParseError) as info:
            parse_expr(bad)
        assert type(info.value) is ExprParseError

    def test_pow_exponent_cap_is_inclusive(self):
        assert parse_expr("pow(z,64)") == Power(Z, MAX_POWER)

    @settings(max_examples=300, deadline=None)
    @given(PREFIX_TEXT)
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        try:
            tree = parse_expr(text)
        except ExprParseError:
            return
        again = parse_expr(format_expr(tree))
        assert again == tree
        assert format_expr(again) == format_expr(tree)


class TestNodeTable:
    # a node class left out of NODE_TYPES fails parse_expr, format_expr and
    # children with a KeyError
    def test_every_node_class_is_in_the_table(self):
        defined = {cls for cls in vars(semidyn.expr).values()
                   if isinstance(cls, type) and issubclass(cls, Expr) and cls is not Expr
                   and cls.__module__ == semidyn.expr.__name__}
        assert defined == set(NODE_TYPES)

    def test_names_are_distinct(self):
        names = [cls.name for cls in NODE_TYPES]
        assert len(set(names)) == len(names)
