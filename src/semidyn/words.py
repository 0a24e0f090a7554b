"""Words over semigroup generators and their normal form.

A word [i_k, ..., i_1] denotes f_{i_k} ∘ ... ∘ f_{i_1}: the rightmost
letter is applied first.  The normal form is an affine prefix from the
commutator group followed by the generators in index order with
nonnegative exponents; it is produced by bubble-sorting the letters, each
adjacent swap inserting the pair's commutator, which is then migrated to
the far left one generator at a time.  Since f_k ∘ phi = xi ∘ f_k, each
migration depends only on the pair (k, phi), so normal_form resolves each
pair once per word.  The identity migrates to itself across every
generator, so a migration that reaches it stops there.  xi is fitted
from sampled values, so the commutator group need not be finite; when
group_closure closes it, xi is snapped to its element of the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutator import (
    AffineGroup,
    CommutatorTable,
    NoAffineCommutatorError,
    SemigroupPresentation,
    _fit_affine,
)
from .expr import (
    AffineMap,
    DegenerateAffineError,
    DegenerateSamplesError,
    Expr,
    IDENTITY_MAP,
    SamplePlan,
    affine_distance,
    compose,
    compose_power,
    find_clean_points,
    format_expr,
    numerically_equal,
)

MAX_WORD_LENGTH = 32


class NoXiError(ValueError):
    """No affine xi (or none in the group) satisfies f ∘ phi = xi ∘ f."""


class VerificationFailedError(ValueError):
    """Normal form does not reproduce the original word numerically."""


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


def resolve_xi(
    f: Expr, phi: AffineMap, G: AffineGroup | None, plan: SamplePlan
) -> AffineMap:
    """The xi with f ∘ phi = xi ∘ f (right-to-left migration of an affine
    map across f): _fit_affine of f∘phi's values to f's.  Given the closed
    group G, the fit is snapped to its element of G, which it must be;
    with G None it is returned as fitted."""
    if affine_distance(phi, IDENTITY_MAP) < plan.tolerance:
        return IDENTITY_MAP
    _, (u, w) = find_clean_points([compose(f, phi), f], plan)
    try:
        xi = _fit_affine(u, w, plan).map
    except NoAffineCommutatorError as exc:
        raise NoXiError(
            f"no affine xi migrates {phi} across {format_expr(f)}: {exc}"
        ) from exc
    if G is None:
        return xi
    snapped = G.find(xi)
    if snapped is None:
        raise NoXiError(f"fitted xi {xi} is not in a group of {len(G)}")
    return snapped


def left_resolve_exists(
    f: Expr, phi: AffineMap, G: AffineGroup, plan: SamplePlan
) -> bool:
    """Whether some xi in G satisfies phi ∘ f = f ∘ xi.  Unlike resolve_xi
    this can legitimately fail to exist."""
    lhs = compose(phi, f)
    for xi in G.elements:
        try:
            if numerically_equal(lhs, compose(f, xi), plan).equal:
                return True
        except DegenerateSamplesError:
            continue
    return False


def normal_form(
    w: Word,
    S: SemigroupPresentation,
    table: CommutatorTable,
    G: AffineGroup | None,
    plan: SamplePlan,
) -> NormalForm:
    """Rewrite a word into prefix ∘ f_1^{t_1} ∘ ... ∘ f_m^{t_m}.

    Adjacent out-of-order pairs f_i ∘ f_j (i > j) are replaced by
    table(i, j) ∘ f_j ∘ f_i; the inserted affine map is migrated eagerly to
    the far left across each generator it passes, then absorbed into the
    prefix.  Each migration f_k ∘ phi = xi ∘ f_k is resolved by resolve_xi
    once per (k, phi), keyed by k and phi's exact coefficients, and
    reused for the rest of the word.  resolve_xi gives IDENTITY_MAP itself
    for any phi within tolerance of the identity, and that object
    migrates to itself, so the migration stops once phi is it; the prefix
    still absorbs it.  The prefix is folded as its coefficient pair, with
    affine_compose's arithmetic, and becomes an AffineMap once, at the
    end; where it is not invertible, DegenerateAffineError names it.
    Letters are permuted, never created or destroyed, so the exponents
    always sum to the word length.
    The result is verified by evaluating the whole word.
    """
    w.validate(S)
    # keyed by coefficients, which hash in C, not by the AffineMap itself
    xi_of: dict[tuple[int, complex, complex], AffineMap] = {}
    letters = list(w.letters)
    pa, pb = IDENTITY_MAP.a, IDENTITY_MAP.b

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
                    if phi is IDENTITY_MAP:
                        break
                    key = (letters[k], phi.a, phi.b)
                    if key not in xi_of:
                        xi_of[key] = resolve_xi(S.generator(letters[k]), phi, G, plan)
                    phi = xi_of[key]
                pa, pb = pa * phi.a, pa * phi.b + pb
                changed = True
    try:
        prefix = AffineMap(pa, pb)
    except DegenerateAffineError as exc:
        raise DegenerateAffineError(f"the normal-form prefix is not invertible: "
                                    f"{exc}") from exc

    exponents = tuple(letters.count(i) for i in range(1, len(S) + 1))

    rhs: Expr = prefix
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


def normal_form_to_json_dict(w: Word, nf: NormalForm) -> dict:
    return {
        "word": list(w.letters),
        "prefix": nf.prefix.to_json_dict(),
        "exponents": list(nf.exponents),
        "prefix_in_table": nf.prefix_in_table,
        "residual": nf.residual,
    }
