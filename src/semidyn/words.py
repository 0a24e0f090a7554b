"""Words over semigroup generators and their normal form.

A word [i_k, ..., i_1] denotes f_{i_k} ∘ ... ∘ f_{i_1}: the rightmost
letter is applied first.  The normal form is an affine prefix from the
commutator group followed by the generators in index order with
nonnegative exponents; it is produced by bubble-sorting the letters, each
adjacent swap inserting the pair's commutator, which is then migrated to
the far left one generator at a time.  Since f_k ∘ phi = xi ∘ f_k, each
migration depends only on the pair (k, phi), and phi ranges over the
finite commutator group, so normal_form resolves each pair once per word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutator import (
    AffineGroup,
    CommutatorTable,
    DegenerateSamplesError,
    SemigroupPresentation,
    find_clean_points,
    sampled_equal,
)
from .expr import (
    AffineMap,
    Expr,
    IDENTITY_MAP,
    SamplePlan,
    affine_compose,
    affine_distance,
    compare_values,
    compose,
    compose_power,
    eval_array,
    eval_at,
)

MAX_WORD_LENGTH = 32


class NoXiError(ValueError):
    """No group element xi satisfies f ∘ phi = xi ∘ f."""


class AmbiguousXiError(ValueError):
    """More than one group element matched; tolerance is misconfigured."""


class VerificationFailedError(ValueError):
    """Normal form does not reproduce the original word numerically."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.letters) <= MAX_WORD_LENGTH:
            raise ValueError(
                f"word length must be 1..{MAX_WORD_LENGTH}, got {len(self.letters)}"
            )

    def __len__(self) -> int:
        return len(self.letters)

    def validate(self, S: SemigroupPresentation) -> None:
        for i in self.letters:
            if not 1 <= i <= len(S):
                raise ValueError(f"letter {i} out of range for {len(S)} generators")


@dataclass(frozen=True)
class NormalForm:
    prefix: AffineMap
    exponents: tuple[int, ...]
    # whether the prefix coincides with a raw table entry (as opposed to a
    # proper product in the generated group)
    prefix_in_table: bool
    residual: float


def word_expr(w: Word, S: SemigroupPresentation) -> Expr:
    w.validate(S)
    out = S.generator(w.letters[-1])
    for i in reversed(w.letters[:-1]):
        out = compose(S.generator(i), out)
    return out


def word_eval(w: Word, S: SemigroupPresentation, z: complex) -> complex:
    """Right-to-left application of the generators; raises EvalOverflow."""
    return eval_at(word_expr(w, S), z)


def resolve_xi(
    f: Expr, phi: AffineMap, G: AffineGroup, plan: SamplePlan
) -> AffineMap:
    """The unique xi in G with f ∘ phi = xi ∘ f (right-to-left migration
    of an affine map across f)."""
    if affine_distance(phi, IDENTITY_MAP) < plan.tolerance:
        return IDENTITY_MAP
    _, (lv, fv) = find_clean_points([compose(f, phi.as_expr()), f], plan)
    matches = []
    for xi in G.elements:
        # xi∘f at those points: xi's tree evaluated at f's values there
        xv, xbad = eval_array(xi.as_expr(), fv)
        if compare_values(lv, xv, plan, ~xbad).equal:
            matches.append(xi)
    if not matches:
        raise NoXiError(f"no xi in a group of {len(G)} matches f∘phi")
    if len(matches) > 1:
        raise AmbiguousXiError(
            f"{len(matches)} group elements match; tolerance misconfigured"
        )
    return matches[0]


def left_resolve_exists(
    f: Expr, phi: AffineMap, G: AffineGroup, plan: SamplePlan
) -> bool:
    """Whether some xi in G satisfies phi ∘ f = f ∘ xi.  Unlike resolve_xi
    this can legitimately fail to exist."""
    lhs = compose(phi.as_expr(), f)
    for xi in G.elements:
        try:
            if sampled_equal(lhs, compose(f, xi.as_expr()), plan).equal:
                return True
        except DegenerateSamplesError:
            continue
    return False


def normal_form(
    w: Word,
    S: SemigroupPresentation,
    table: CommutatorTable,
    G: AffineGroup,
    plan: SamplePlan,
) -> NormalForm:
    """Rewrite a word into prefix ∘ f_1^{t_1} ∘ ... ∘ f_m^{t_m}.

    Adjacent out-of-order pairs f_i ∘ f_j (i > j) are replaced by
    table(i, j) ∘ f_j ∘ f_i; the inserted affine map is migrated eagerly to
    the far left across each generator it passes, then absorbed into the
    prefix.  Each migration f_k ∘ phi = xi ∘ f_k is resolved by resolve_xi
    once per (k, phi), keyed by k and phi's exact coefficients, and
    reused for the rest of the word.  Letters are permuted, never created
    or destroyed, so the exponents always sum to the word length.
    The result is verified by evaluating the whole word.
    """
    w.validate(S)
    # keyed by coefficients, which hash in C, not by the AffineMap itself
    xi_of: dict[tuple[int, complex, complex], AffineMap] = {}
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
                # migrate phi left across letters[0..idx-1]
                for k in range(idx - 1, -1, -1):
                    key = (letters[k], phi.a, phi.b)
                    if key not in xi_of:
                        xi_of[key] = resolve_xi(S.generator(letters[k]), phi, G, plan)
                    phi = xi_of[key]
                prefix = affine_compose(prefix, phi)
                changed = True

    exponents = tuple(letters.count(i) for i in range(1, len(S) + 1))

    rhs: Expr = prefix.as_expr()
    for i, t in enumerate(exponents, start=1):
        if t > 0:
            rhs = compose(rhs, compose_power(S.generator(i), t))
    rep = sampled_equal(word_expr(w, S), rhs, plan)
    if not rep.equal:
        raise VerificationFailedError(
            f"normal form residual {rep.max_error:.3e}", rep.max_error
        )

    in_table = any(
        affine_distance(prefix, m) < plan.tolerance for m in table.maps()
    )
    return NormalForm(prefix, exponents, in_table, rep.max_error)


def normal_form_to_json_dict(w: Word, nf: NormalForm) -> dict:
    return {
        "word": list(w.letters),
        "prefix": nf.prefix.to_json_dict(),
        "exponents": list(nf.exponents),
        "prefix_in_table": nf.prefix_in_table,
        "residual": nf.residual,
    }
