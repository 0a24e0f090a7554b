import cmath
import hashlib
import json
import math

import numpy as np
import pytest

from semidyn.commutator import (
    AffineGroup,
    CommutatorResult,
    ClosureOverflowError,
    CommutatorTable,
    NoAffineCommutatorError,
    SemigroupPresentation,
    build_commutator_table,
    group_closure,
)
from semidyn.expr import (
    IDENTITY_MAP,
    AffineMap,
    Const,
    Cos,
    DegenerateSamplesError,
    EvalOverflow,
    Exp,
    Identity,
    Power,
    Product,
    SamplePlan,
    Sin,
    Sum,
    affine_compose,
    affine_distance,
    compose,
    compose_power,
    eval_at,
    numerically_equal,
)
import semidyn.words
from semidyn.cli import EXIT_OK, main as cli_main
from semidyn.fixtures import FIXTURES, INVOLUTION_FIXTURES
from semidyn.words import (
    MAX_WORD_LENGTH,
    NoXiError,
    NormalForm,
    VerificationFailedError,
    Word,
    left_resolve_exists,
    normal_form,
    normal_form_to_json_dict,
    resolve_xi,
    word_expr,
)

Z = Identity()
IDENT = AffineMap(1, 0)
PLAN = SamplePlan(seed=5)


def fixture_machinery(name):
    fx = FIXTURES[name]
    table = build_commutator_table(fx.presentation, fx.plan)
    G = group_closure(table.maps())
    return fx, table, G


class TestWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ValueError):
            Word(tuple([1] * 33))
        S = FIXTURES["example-2.1-cos"].presentation
        with pytest.raises(ValueError):
            Word((1, 3)).validate(S)

    def test_single_letter_eval(self):
        S = FIXTURES["example-2.1-cos"].presentation
        z = 0.7 + 0.1j
        assert eval_at(word_expr(Word((1,)), S), z) == eval_at(S.generator(1), z)

    def test_two_letter_oracle(self):
        # [2, 1] over <cos z, -cos z> at 1 is -cos(cos 1)
        S = FIXTURES["example-2.1-cos"].presentation
        got = eval_at(word_expr(Word((2, 1)), S), 1.0)
        assert got == pytest.approx(-cmath.cos(cmath.cos(1.0)), abs=1e-15)

    def test_iterated_exp_oracle(self):
        S = SemigroupPresentation((Exp(Z),), label="exp")
        got = eval_at(word_expr(Word((1, 1)), S), 1.0)
        assert got == pytest.approx(math.e**math.e)

    def test_word_expr_applies_the_rightmost_letter_first(self):
        # [1, 2, 1] is f_1(f_2(f_1(z))), bit for bit
        S = FIXTURES["example-2.1-exp"].presentation
        f1, f2 = S.generators
        expr = word_expr(Word((1, 2, 1)), S)
        for z in (0.1 + 0.2j, -0.3 + 0.05j):
            assert eval_at(expr, z) == eval_at(f1, eval_at(f2, eval_at(f1, z)))

    def test_overflow_propagates(self):
        S = SemigroupPresentation((Exp(Z),), label="exp")
        with pytest.raises(EvalOverflow):
            eval_at(word_expr(Word((1, 1, 1, 1)), S), 3.0)


class TestResolveXi:
    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_even_generators_resolve_to_identity(self, name):
        fx, table, G = fixture_machinery(name)
        phi = table.entry(1, 2)
        for gen in fx.presentation.generators:
            xi = resolve_xi(gen, phi, G, fx.plan)
            assert affine_distance(xi, IDENT) < 1e-9

    def test_identity_phi_fast_path(self):
        fx, table, G = fixture_machinery("example-2.1-cos")
        assert resolve_xi(fx.presentation.generator(1), IDENT, G, fx.plan) == IDENT

    def test_no_xi(self):
        # a group without the needed element: exp shifted by 1 needs a
        # non-trivial xi, and the two-element sign group lacks it
        fx, table, G = fixture_machinery("example-2.1-cos")
        with pytest.raises(NoXiError):
            resolve_xi(Exp(Z), AffineMap(1, 1 + 0j), G, fx.plan)

    def test_fit_is_snapped_to_the_group_element(self):
        # sin(-z) = -sin z: xi is the negation, which the sign group holds
        G = group_closure([AffineMap(-1, 0)])
        xi = resolve_xi(Sin(Z), AffineMap(-1, 0), G, PLAN)
        assert xi is G.find(AffineMap(-1, 0))

    def test_without_group_the_fit_is_returned(self):
        xi = resolve_xi(Sin(Z), AffineMap(-1, 0), None, PLAN)
        assert affine_distance(xi, AffineMap(-1, 0)) < 1e-9
        # exp(z + 1) = e * exp(z), a xi no finite group was asked to hold
        xi = resolve_xi(Exp(Z), AffineMap(1, 1 + 0j), None, PLAN)
        assert affine_distance(xi, AffineMap(math.e, 0)) < 1e-9

    def test_no_affine_fit(self):
        # exp(-z) = 1/exp(z) is no affine map of exp(z)
        with pytest.raises(NoXiError, match="affine fit residual") as exc:
            resolve_xi(Exp(Z), AffineMap(-1, 0), None, PLAN)
        assert isinstance(exc.value.__cause__, NoAffineCommutatorError)

    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_no_ambiguity_on_fixture_groups(self, name):
        fx, table, G = fixture_machinery(name)
        assert len(G) <= 8
        for phi in table.maps():
            resolve_xi(fx.presentation.generator(1), phi, G, fx.plan)


class TestLeftResolve:
    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_negation_has_no_left_resolution(self, name):
        # phi∘f = -f cannot equal f∘xi for either sign choice
        fx, table, G = fixture_machinery(name)
        phi = table.entry(1, 2)
        assert not left_resolve_exists(fx.presentation.generator(1), phi, G, fx.plan)

    def test_identity_always_resolves(self):
        fx, table, G = fixture_machinery("example-2.1-exp")
        assert left_resolve_exists(fx.presentation.generator(1), IDENT, G, fx.plan)

    def test_element_without_clean_points_is_skipped(self):
        # f(z + 1000) = e^{(z+1000)^2} + 0.2 overflows at every sample point
        fx = FIXTURES["example-2.1-exp"]
        G = AffineGroup((AffineMap(1, 1000), IDENT))
        assert left_resolve_exists(fx.presentation.generator(1), IDENT, G, fx.plan)


class TestNormalForm:
    def test_single_letter(self):
        fx, table, G = fixture_machinery("example-2.1-exp")
        nf = normal_form(Word((1,)), fx.presentation, table, G, fx.plan)
        assert nf.prefix == IDENT
        assert nf.exponents == (1, 0)

    def test_one_swap(self):
        fx, table, G = fixture_machinery("example-2.1-exp")
        nf = normal_form(Word((2, 1)), fx.presentation, table, G, fx.plan)
        assert affine_distance(nf.prefix, AffineMap(-1, 0)) < 1e-9
        assert nf.exponents == (1, 1)
        assert nf.prefix_in_table

    def test_three_letters(self):
        fx, table, G = fixture_machinery("example-2.1-exp")
        nf = normal_form(Word((2, 1, 2)), fx.presentation, table, G, fx.plan)
        assert affine_distance(nf.prefix, AffineMap(-1, 0)) < 1e-9
        assert nf.exponents == (1, 2)

    def test_sorted_word_is_fixed_point(self):
        fx, table, G = fixture_machinery("example-2.1-cos")
        nf = normal_form(Word((1, 1, 2, 2)), fx.presentation, table, G, fx.plan)
        assert nf.prefix == IDENT
        assert nf.exponents == (2, 2)

    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_letter_conservation_random_words(self, name):
        fx, table, G = fixture_machinery(name)
        rng = np.random.default_rng(fx.plan.seed + 1)
        for _ in range(50):
            length = int(rng.integers(1, 9))
            w = Word(tuple(int(x) for x in rng.integers(1, 3, length)))
            nf = normal_form(w, fx.presentation, table, G, fx.plan)
            assert sum(nf.exponents) == len(w)

    @pytest.mark.parametrize("name", INVOLUTION_FIXTURES)
    def test_oracle_equivalence_random_words(self, name):
        fx, table, G = fixture_machinery(name)
        rng = np.random.default_rng(fx.plan.seed + 2)
        for _ in range(25):
            length = int(rng.integers(1, 7))
            w = Word(tuple(int(x) for x in rng.integers(1, 3, length)))
            nf = normal_form(w, fx.presentation, table, G, fx.plan)
            assert nf.residual < 1e-9

    def test_wrong_table_entry_fails_verification(self):
        # f2∘f1 = -cos(cos z) rewritten with phi = 2z is 2 cos(cos z)
        fx, table, _ = fixture_machinery("example-2.1-cos")
        entries = {**table.entries, (2, 1): CommutatorResult(AffineMap(2, 0), 0.0)}
        wrong = CommutatorTable(table.size, entries, table.failures)
        with pytest.raises(VerificationFailedError, match="residual 1.500e"):
            normal_form(Word((2, 1)), fx.presentation, wrong, None, fx.plan)

    def test_json_shape(self):
        fx, table, G = fixture_machinery("example-2.1-exp")
        w = Word((2, 1, 2))
        nf = normal_form(w, fx.presentation, table, G, fx.plan)
        doc = normal_form_to_json_dict(w, nf)
        assert doc["word"] == [2, 1, 2]
        assert doc["exponents"] == [1, 2]
        assert set(doc["prefix"]) == {"a", "b"}


def pinned_words():
    rng = np.random.default_rng(2018)
    for name, max_len in (("example-2.1-cos", 32), ("example-2.1-exp", 13)):
        for length in range(1, max_len + 1):
            yield name, Word(tuple(int(x) for x in rng.integers(1, 3, length)))


class TestMigrationMemo:
    # sha256 of the normal forms of pinned_words(), recorded at 14bd163,
    # where every migration called resolve_xi afresh
    PINNED_SHA256 = "08078b98338be8a830015447c557a152f6c5f475a4b217e3d1d77e02875e0e9c"

    def test_normal_forms_match_pinned_digest(self):
        machinery = {name: fixture_machinery(name) for name in INVOLUTION_FIXTURES}
        docs = []
        for name, w in pinned_words():
            fx, table, G = machinery[name]
            nf = normal_form(w, fx.presentation, table, G, fx.plan)
            docs.append(normal_form_to_json_dict(w, nf))
        blob = json.dumps(docs, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_SHA256

    @staticmethod
    def count_resolve_xi(monkeypatch):
        calls = []
        real = semidyn.words.resolve_xi

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(semidyn.words, "resolve_xi", counting)
        return calls

    @staticmethod
    def call_bound(name):
        # each (generator, phi) pair of a word resolves at most once, and
        # phi is a table entry or an element of G
        fx, table, G = fixture_machinery(name)
        return len(fx.presentation) * (len(G) + len(table.entries))

    def test_long_word_resolves_each_pair_once(self, monkeypatch):
        fx, table, G = fixture_machinery("example-2.1-cos")
        w = Word(tuple([2, 1] * 16))
        calls = self.count_resolve_xi(monkeypatch)
        nf = normal_form(w, fx.presentation, table, G, fx.plan)
        assert nf.exponents == (16, 16)
        assert 0 < len(calls) <= self.call_bound("example-2.1-cos")

    def test_invocation_resolves_each_pair_once_per_word(self, monkeypatch, tmp_path):
        calls = self.count_resolve_xi(monkeypatch)
        assert cli_main(["normal-form", "--fixture", "example-2.1-cos",
                         "--random", "20", "--max-len", "32",
                         "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "normal_forms.json").read_text())
        assert len(doc["normal_forms"]) == 20
        assert 0 < len(calls) <= 20 * self.call_bound("example-2.1-cos")


def migrating_every_step(w, S, table, G, plan):
    """normal_form as it was while every migration ran to the far left,
    also once phi was the identity, kept as the reference of the loop that
    stops there."""
    w.validate(S)
    xi_of = {}
    letters = list(w.letters)
    prefix = IDENTITY_MAP

    changed = True
    while changed:
        changed = False
        for idx in range(len(letters) - 1):
            i, j = letters[idx], letters[idx + 1]
            if i > j:
                phi = table.entry(i, j)
                letters[idx], letters[idx + 1] = j, i
                for k in range(idx - 1, -1, -1):
                    key = (letters[k], phi.a, phi.b)
                    if key not in xi_of:
                        xi_of[key] = resolve_xi(S.generator(letters[k]), phi, G, plan)
                    phi = xi_of[key]
                prefix = affine_compose(prefix, phi)
                changed = True

    exponents = tuple(letters.count(i) for i in range(1, len(S) + 1))

    rhs = prefix
    for i, t in enumerate(exponents, start=1):
        if t > 0:
            rhs = compose(rhs, compose_power(S.generator(i), t))
    rep = numerically_equal(word_expr(w, S), rhs, plan)
    if not rep.equal:
        raise VerificationFailedError(f"normal form residual {rep.max_error:.3e}")

    in_table = any(
        affine_distance(prefix, m) < plan.tolerance for m in table.maps()
    )
    return NormalForm(prefix, exponents, in_table, rep.max_error)


def seeded_fixture_words():
    """Each fixture's seeded word of each length 1..32, with its table and
    its group, None where the group does not close."""
    rng = np.random.default_rng(30)
    for name in FIXTURES:
        fx = FIXTURES[name]
        table = build_commutator_table(fx.presentation, fx.plan)
        try:
            G = group_closure(table.maps())
        except ClosureOverflowError:
            G = None
        for length in range(1, MAX_WORD_LENGTH + 1):
            letters = tuple(int(x) for x in rng.integers(1, 3, length))
            yield fx, Word(letters), table, G


def rewrite_outcome(rewrite, fx, w, table, G):
    """The normal form a rewrite gives and its JSON text, which tells
    signed zeros apart, or its error's type and message."""
    try:
        nf = rewrite(w, fx.presentation, table, G, fx.plan)
    except (NoXiError, VerificationFailedError, DegenerateSamplesError) as exc:
        return type(exc), str(exc)
    return nf, json.dumps(normal_form_to_json_dict(w, nf))


class TestIdentityStopsMigrating:
    def test_matches_migrating_every_step(self):
        unclosed = 0
        for fx, w, table, G in seeded_fixture_words():
            unclosed += G is None
            assert (rewrite_outcome(normal_form, fx, w, table, G)
                    == rewrite_outcome(migrating_every_step, fx, w, table, G))
        assert unclosed == MAX_WORD_LENGTH  # derived-exp-shift

    def test_identity_never_migrates(self, monkeypatch):
        phis = []
        real = semidyn.words.resolve_xi

        def spy(f, phi, G, plan):
            phis.append(phi)
            return real(f, phi, G, plan)

        monkeypatch.setattr(semidyn.words, "resolve_xi", spy)
        for fx, w, table, G in seeded_fixture_words():
            rewrite_outcome(normal_form, fx, w, table, G)
        assert phis
        assert not any(phi is IDENTITY_MAP for phi in phis)



class TestPrefixFold:
    def test_prefix_is_the_affine_compose_fold(self):
        # ROADMAP item 6's order-3 family: f_k = omega^k * h with h(z) =
        # e^(z^3) + 0.2 and omega = e^(2 pi i / 3).  Its table entries are
        # fitted, not exact, so a prefix folded in another order than
        # affine_compose's rounds differently
        omega = cmath.exp(2j * cmath.pi / 3)
        h = Sum((Exp(Power(Z, 3)), Const(0.2)))
        S = SemigroupPresentation((h, Product((Const(omega), h)),
                                   Product((Const(omega ** 2), h))))
        plan = SamplePlan(seed=3)
        table = build_commutator_table(S, plan)
        G = group_closure(table.maps())
        assert len(G) == 3 and omega not in {m.a for m in table.maps()}
        rng = np.random.default_rng(6)
        products = 0
        for length in range(1, 12):
            for _ in range(3):
                w = Word(tuple(int(x) for x in rng.integers(1, 4, length)))
                nf = normal_form(w, S, table, G, plan)
                want = migrating_every_step(w, S, table, G, plan)
                # the JSON text tells signed zeros apart
                assert json.dumps(normal_form_to_json_dict(w, nf)) == json.dumps(
                    normal_form_to_json_dict(w, want))
                products += nf.prefix not in table.maps()
        assert products
