import cmath
import hashlib
import json
import math

import numpy as np
import pytest

from semidyn.commutator import (
    NoAffineCommutatorError,
    SemigroupPresentation,
    build_commutator_table,
    group_closure,
)
from semidyn.expr import (
    AffineMap,
    Cos,
    EvalOverflow,
    Exp,
    Identity,
    SamplePlan,
    Sin,
    affine_distance,
    eval_at,
    numerically_equal,
)
import semidyn.words
from semidyn.cli import EXIT_OK, main as cli_main
from semidyn.fixtures import FIXTURES, INVOLUTION_FIXTURES
from semidyn.words import (
    NoXiError,
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
