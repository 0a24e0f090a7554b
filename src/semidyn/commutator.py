"""Affine commutator solving and conjugate semigroup construction.

A commutator of a pair (f, g) is the map phi with f(g(z)) = phi(g(f(z)));
here phi is restricted to invertible affine maps z -> a*z + b, which is
what every worked example needs and what keeps the solve well posed: two
sample points pin down (a, b) and the remaining samples act as an
overdetermined max-norm verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    AffineMap,
    DegenerateAffineError,
    DegenerateSamplesError,
    Expr,
    IDENTITY_MAP,
    SamplePlan,
    _relative_error,
    affine_compose,
    affine_distance,
    affine_inverse,
    compose,
    compose_power,
    find_clean_points,
    format_expr,
    is_transcendental,
    numerically_equal,
)

DEDUP_TOLERANCE = 1e-9
MIN_SEPARATION = 1e-6
CLOSURE_CAP = 64


class NoAffineCommutatorError(ValueError):
    """No affine map satisfies f∘g = phi∘g∘f within tolerance."""


class NotNearlyRepresentableError(ValueError):
    """Some generator pairs admit no affine commutator."""

    def __init__(self, failing_pairs: list[tuple[int, int]]):
        super().__init__(f"no affine commutator for pairs {failing_pairs}")
        self.failing_pairs = failing_pairs


class ClosureOverflowError(RuntimeError):
    """Group closure exceeded CLOSURE_CAP elements."""


class MissingCommutatorError(ValueError):
    """An identity check needs a bracket that could not be solved."""


# ---------------------------------------------------------------------------
# commutator solving


@dataclass(frozen=True)
class CommutatorResult:
    map: AffineMap
    residual: float


def solve_affine(P: Expr, Q: Expr, plan: SamplePlan) -> CommutatorResult:
    """Solve P = A∘Q for an affine A: one clean-point search for both
    trees, then _fit_affine of P's values to Q's."""
    _, (u, w) = find_clean_points([P, Q], plan)
    return _fit_affine(u, w, plan)


def find_affine_commutator(f: Expr, g: Expr, plan: SamplePlan) -> CommutatorResult:
    """Solve f∘g = phi∘g∘f for an affine phi: solve_affine's case
    P = f∘g, Q = g∘f."""
    if f is g or f == g:
        return CommutatorResult(IDENTITY_MAP, 0.0)
    return solve_affine(compose(f, g), compose(g, f), plan)


def _fit_affine(u: np.ndarray, w: np.ndarray, plan: SamplePlan) -> CommutatorResult:
    """The affine phi with u = phi(w), from the values u and w of two trees
    at the same clean points.  Two small-magnitude well-separated values
    pin down (a, b), which keeps b free of catastrophic cancellation when
    the values are huge; all the others verify the fit in max norm."""
    # anchor pair: among the smallest-magnitude values, the best separated
    order = np.argsort(np.maximum(np.abs(u), np.abs(w)))
    for m in (8, 16, len(u)):
        idx = order[:m]
        sep = np.abs(w[idx][:, None] - w[idx][None, :])
        i, j = np.unravel_index(int(sep.argmax()), sep.shape)
        if sep[i, j] > MIN_SEPARATION:
            i, j = int(idx[i]), int(idx[j])
            break
    else:
        raise DegenerateSamplesError("no well-separated pair of w-values")
    a = (u[i] - u[j]) / (w[i] - w[j])
    b = u[i] - a * w[i]
    try:
        phi = AffineMap(complex(a), complex(b))
    except DegenerateAffineError as exc:
        raise NoAffineCommutatorError(f"solved {exc}, not an affine conjugacy") from exc

    max_resid = _relative_error(a * w + b - u, u, w, plan)
    if not max_resid <= plan.tolerance:  # a NaN residual fails too
        raise NoAffineCommutatorError(
            f"affine fit residual {max_resid:.3e} exceeds tolerance")
    return CommutatorResult(phi, max_resid)


# ---------------------------------------------------------------------------
# presentations and tables


@dataclass(frozen=True)
class SemigroupPresentation:
    generators: tuple[Expr, ...]
    label: str = ""
    require_transcendental: bool = True

    def __post_init__(self):
        if len(self.generators) < 1:
            raise ValueError("presentation needs at least one generator")
        if self.require_transcendental:
            for k, gen in enumerate(self.generators, start=1):
                if not is_transcendental(gen):
                    raise ValueError(f"generator {k} is not transcendental")

    def __len__(self) -> int:
        return len(self.generators)

    def generator(self, index: int) -> Expr:
        """1-based access, matching word letters."""
        return self.generators[index - 1]


@dataclass(frozen=True)
class CommutatorTable:
    size: int
    entries: dict[tuple[int, int], AffineMap]
    residuals: dict[tuple[int, int], float]

    def entry(self, i: int, j: int) -> AffineMap:
        return self.entries[(i, j)]

    def maps(self) -> list[AffineMap]:
        return list(self.entries.values())

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "entries": [
                {"i": i, "j": j, **m.to_json_dict(), "residual": self.residuals[(i, j)]}
                for (i, j), m in sorted(self.entries.items())
            ],
        }


def presentation_to_json_dict(S: SemigroupPresentation) -> dict:
    return {
        "label": S.label,
        "generators": [format_expr(g) for g in S.generators],
        "composition_order": "rightmost letter applied first",
    }


def build_commutator_table(
    S: SemigroupPresentation, plan: SamplePlan
) -> CommutatorTable:
    """Every entry (i, j) = [f_i, f_j], as find_affine_commutator solves it.

    One clean-point search serves both orders of a pair: at the points
    where f_i∘f_j and f_j∘f_i are clean, (i, j) fits the first's values to
    the second's and (j, i) the reverse, and find_clean_points gives
    (j, i)'s own search those points and values.  Raises
    NotNearlyRepresentableError listing the unsolved (i, j) in row order.
    """
    n = len(S)
    same = CommutatorResult(IDENTITY_MAP, 0.0)
    solved = {(i, i): same for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            f, g = S.generator(i), S.generator(j)
            if f is g or f == g:
                solved[(i, j)] = solved[(j, i)] = same
                continue
            try:
                _, (u, w) = find_clean_points([compose(f, g), compose(g, f)], plan)
            except DegenerateSamplesError:
                continue
            for key, x, y in (((i, j), u, w), ((j, i), w, u)):
                try:
                    solved[key] = _fit_affine(x, y, plan)
                except (NoAffineCommutatorError, DegenerateSamplesError):
                    pass
    order = [(i, i) for i in range(1, n + 1)] + [
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    failing = [key for key in order if key not in solved]
    if failing:
        raise NotNearlyRepresentableError(failing)
    return CommutatorTable(
        n,
        {key: solved[key].map for key in order},
        {key: solved[key].residual for key in order},
    )


@dataclass(frozen=True)
class NearAbelianReport:
    algebraic: bool
    table: CommutatorTable | None
    failing_pairs: tuple[tuple[int, int], ...] = ()


def is_nearly_abelian(S: SemigroupPresentation, plan: SamplePlan) -> NearAbelianReport:
    """Algebraic half of the nearly-abelian check: every generator pair
    admits an affine commutator.  Fatou-set invariance of those maps is a
    grid-level question, reported separately by the dynamics module.
    Pre-compactness of the commutator family has no finite certificate:
    it is assumed, never verified."""
    try:
        table = build_commutator_table(S, plan)
    except NotNearlyRepresentableError as exc:
        return NearAbelianReport(False, None, tuple(exc.failing_pairs))
    return NearAbelianReport(True, table)


# ---------------------------------------------------------------------------
# the group generated by the commutators


def _find(elements, m: AffineMap) -> AffineMap | None:
    return next((e for e in elements if affine_distance(e, m) < DEDUP_TOLERANCE), None)


@dataclass(frozen=True)
class AffineGroup:
    elements: tuple[AffineMap, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def find(self, m: AffineMap) -> AffineMap | None:
        """The element whose coefficients agree with m's within
        DEDUP_TOLERANCE, as group_closure deduplicates, or None."""
        return _find(self.elements, m)


def group_closure(seeds: list[AffineMap]) -> AffineGroup:
    """Breadth-first closure of the seeds under composition and inverse,
    deduplicated as AffineGroup.find looks up; ClosureOverflowError past
    CLOSURE_CAP elements."""
    elements: list[AffineMap] = [IDENTITY_MAP]

    def add(m: AffineMap) -> bool:
        if _find(elements, m) is not None:
            return False
        if len(elements) >= CLOSURE_CAP:
            raise ClosureOverflowError(f"closure exceeded cap {CLOSURE_CAP}")
        elements.append(m)
        return True

    frontier = []
    for s in seeds:
        if add(s):
            frontier.append(s)
    while frontier:
        next_frontier = []
        for m in frontier:
            for candidate in [affine_inverse(m)] + [
                affine_compose(m, e) for e in list(elements)
            ] + [affine_compose(e, m) for e in list(elements)]:
                if add(candidate):
                    next_frontier.append(candidate)
        frontier = next_frontier
    return AffineGroup(tuple(elements))


# ---------------------------------------------------------------------------
# section-2 identity verification


@dataclass(frozen=True)
class IdentityReport:
    holds: bool
    residual: float


def _bracket(f: Expr, g: Expr, plan: SamplePlan) -> AffineMap:
    try:
        return find_affine_commutator(f, g, plan).map
    except (NoAffineCommutatorError, DegenerateSamplesError) as exc:
        raise MissingCommutatorError(f"bracket could not be solved: {exc}") from exc


def verify_identity(
    which: str | int,
    f: Expr,
    g: Expr,
    n: int = 1,
    plan: SamplePlan = SamplePlan(),
) -> IdentityReport:
    """Check one of the commutator identities:

    1: [f, g∘f^n] = [f, g]
    2: [f, f^n∘g] ∘ f^n = f^n ∘ [f, g]
    3: [f∘g, g∘f] ∘ g∘f = f∘g ∘ [g, f]
    inverse:  [f, g] ∘ [g, f] = identity
    diagonal: [f, f] = identity
    """
    which = str(which)
    if which in ("1", "2") and not 1 <= n <= 3:
        raise ValueError("n must be in 1..3")

    if which == "diagonal":
        lhs, rhs = _bracket(f, f, plan), IDENTITY_MAP
    elif which == "inverse":
        lhs = affine_compose(_bracket(f, g, plan), _bracket(g, f, plan))
        rhs = IDENTITY_MAP
    elif which == "1":
        lhs = _bracket(f, compose(g, compose_power(f, n)), plan)
        rhs = _bracket(f, g, plan)
    elif which == "2":
        fn = compose_power(f, n)
        lhs = compose(_bracket(f, compose(fn, g), plan).as_expr(), fn)
        rhs = compose(fn, _bracket(f, g, plan).as_expr())
    elif which == "3":
        fg = compose(f, g)
        gf = compose(g, f)
        lhs = compose(_bracket(fg, gf, plan).as_expr(), gf)
        rhs = compose(fg, _bracket(g, f, plan).as_expr())
    else:
        raise ValueError(f"unknown identity {which!r}")
    if isinstance(lhs, AffineMap):  # two brackets: compare their coefficients
        resid = affine_distance(lhs, rhs)
        return IdentityReport(resid <= plan.tolerance, resid)
    rep = numerically_equal(lhs, rhs, plan)
    return IdentityReport(rep.equal, rep.max_error)


# ---------------------------------------------------------------------------
# conjugation


def conjugate_semigroup(
    S: SemigroupPresentation, phi: AffineMap
) -> SemigroupPresentation:
    """Generators phi ∘ f_i ∘ phi^{-1}."""
    inv = affine_inverse(phi)
    gens = tuple(
        compose(phi.as_expr(), compose(gen, inv.as_expr()))
        for gen in S.generators
    )
    label = f"conjugate({S.label or 'S'}, a={phi.a!r}, b={phi.b!r})"
    return SemigroupPresentation(
        gens, label=label, require_transcendental=S.require_transcendental
    )
