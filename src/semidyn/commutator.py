"""Affine commutator solving and conjugate semigroup construction.

A commutator of a pair (f, g) is the map phi with f(g(z)) = phi(g(f(z)));
here phi is restricted to invertible affine maps z -> a*z + b, which is
what every worked example needs and what keeps the solve well posed: two
sample points pin down (a, b) and the remaining samples act as an
overdetermined max-norm verification.

is_nearly_abelian is the one solver.  S's commutators [f_i, f_j] live in
its CommutatorTable, which keeps why each unsolved pair failed; S is
algebraically nearly abelian when none did.  Any other [f, g] is entry
(1, 2) of <f, g>'s table.
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
    find_clean_points,
    format_expr,
    numerically_equal,
)

DEDUP_TOLERANCE = 1e-9
MIN_SEPARATION = 1e-6
CLOSURE_CAP = 64


class NoAffineCommutatorError(ValueError):
    """No affine map satisfies f∘g = phi∘g∘f within tolerance."""


class ClosureOverflowError(RuntimeError):
    """Group closure exceeded CLOSURE_CAP elements, or reached an inverse
    or product that is not an invertible affine map."""


class MissingCommutatorError(ValueError):
    """A table entry was read whose pair could not be solved."""


# ---------------------------------------------------------------------------
# commutator solving


@dataclass(frozen=True)
class CommutatorResult:
    map: AffineMap
    residual: float


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
        phi = AffineMap(a, b)
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
    """The semigroup generated by one or more entire maps, and its name."""
    generators: tuple[Expr, ...]
    label: str = "S"

    def __post_init__(self):
        if len(self.generators) < 1:
            raise ValueError("presentation needs at least one generator")

    def __len__(self) -> int:
        return len(self.generators)

    def generator(self, index: int) -> Expr:
        """1-based access, matching word letters."""
        return self.generators[index - 1]


@dataclass(frozen=True)
class CommutatorTable:
    """S's affine commutators: ``entries`` maps each solved (i, j) to
    [f_i, f_j], the diagonal first and then row by row, and ``failures``
    each other (i, j) to the error its search or fit raised."""

    size: int
    entries: dict[tuple[int, int], CommutatorResult]
    failures: dict[tuple[int, int], Exception]

    @property
    def failing_pairs(self) -> tuple[tuple[int, int], ...]:
        """The unsolved (i, j), row by row."""
        return tuple(sorted(self.failures))

    @property
    def algebraic(self) -> bool:
        """The algebraic half of the nearly-abelian check: every pair solved."""
        return not self.failures

    def entry(self, i: int, j: int) -> AffineMap:
        """[f_i, f_j], or MissingCommutatorError from why it failed."""
        if (exc := self.failures.get((i, j))) is not None:
            raise MissingCommutatorError(f"bracket could not be solved: {exc}") from exc
        return self.entries[(i, j)].map

    def maps(self) -> list[AffineMap]:
        return [r.map for r in self.entries.values()]

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "entries": [
                {"i": i, "j": j, **r.map.to_json_dict(), "residual": r.residual}
                for (i, j), r in sorted(self.entries.items())
            ],
        }


def presentation_to_json_dict(S: SemigroupPresentation) -> dict:
    return {
        "label": S.label,
        "generators": [format_expr(g) for g in S.generators],
        "composition_order": "rightmost letter applied first",
    }


def is_nearly_abelian(S: SemigroupPresentation, plan: SamplePlan) -> CommutatorTable:
    """S's commutator table: each entry (i, j) = [f_i, f_j] that an affine
    fit solves, and the error each other pair's search or fit raised.  S
    passes the algebraic half of the nearly-abelian check when there are
    none (``algebraic``).  Fatou-set invariance of the maps is a grid-level
    question, which ``transport`` reports as ``fatou_invariance``; the
    commutator family's pre-compactness is assumed, never verified.

    A pair whose f_i∘f_j and f_j∘f_i are one tree, as f and f∘f, gets the
    identity with no search.  One search serves both orders of a pair: at
    the points where f_i∘f_j and f_j∘f_i are clean, (i, j) fits the
    first's values to the second's and (j, i) the reverse, and
    find_clean_points gives (j, i)'s own search those points and values.
    """
    n = len(S)
    solved: dict[tuple[int, int], CommutatorResult] = {}
    failed: dict[tuple[int, int], Exception] = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            f, g = S.generator(i), S.generator(j)
            fg, gf = compose(f, g), compose(g, f)
            if fg == gf:  # one chain of maps, as when f == g
                solved[(i, j)] = solved[(j, i)] = CommutatorResult(IDENTITY_MAP, 0.0)
                continue
            try:
                _, (u, w) = find_clean_points([fg, gf], plan)
            except DegenerateSamplesError as exc:
                failed[(i, j)] = failed[(j, i)] = exc
                continue
            for key, x, y in (((i, j), u, w), ((j, i), w, u)):
                try:
                    solved[key] = _fit_affine(x, y, plan)
                except (NoAffineCommutatorError, DegenerateSamplesError) as exc:
                    failed[key] = exc
    order = sorted(solved, key=lambda key: (key[0] != key[1], key))  # the diagonal first
    return CommutatorTable(n, {key: solved[key] for key in order}, failed)


def _pair_table(f: Expr, g: Expr, plan: SamplePlan) -> CommutatorTable:
    """<f, g>'s table, whose entry (1, 2) is [f, g]."""
    return is_nearly_abelian(SemigroupPresentation((f, g)), plan)


def find_affine_commutator(f: Expr, g: Expr, plan: SamplePlan) -> CommutatorResult:
    """[f, g], entry (1, 2) of <f, g>'s table; raises the error it holds."""
    table = _pair_table(f, g, plan)
    if (1, 2) in table.failures:
        raise table.failures[(1, 2)]
    return table.entries[(1, 2)]


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
    CLOSURE_CAP elements, or where an inverse or product overflows out of
    the invertible affine maps."""
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
            try:
                candidates = [affine_inverse(m)] + [
                    affine_compose(m, e) for e in elements
                ] + [affine_compose(e, m) for e in elements]
            except DegenerateAffineError as exc:
                raise ClosureOverflowError(
                    f"closure left the invertible affine maps: {exc}") from exc
            for candidate in candidates:
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
    """[f, g], read from <f, g>'s table."""
    return _pair_table(f, g, plan).entry(1, 2)


def check_identity(which: str | int, f: Expr, g: Expr, n: int, plan: SamplePlan,
                   table: CommutatorTable) -> IdentityReport:
    """Check one of the commutator identities:

    1: [f, g∘f^n] = [f, g]
    2: [f, f^n∘g] ∘ f^n = f^n ∘ [f, g]
    3: [f∘g, g∘f] ∘ g∘f = f∘g ∘ [g, f]
    inverse:  [f, g] ∘ [g, f] = identity
    diagonal: [f, f] = identity

    f and g are generators 1 and 2 of the table's semigroup (g is f when it
    has one); words' brackets come from tables of their own.  The diagonal
    is the identity by construction, so its check is no evidence.
    """
    which = str(which)
    if which in ("1", "2") and not 1 <= n <= 3:
        raise ValueError("n must be in 1..3")

    k = min(2, table.size)  # g's index
    if which == "diagonal":
        lhs, rhs = table.entry(1, 1), IDENTITY_MAP
    elif which == "inverse":
        lhs, rhs = affine_compose(table.entry(1, k), table.entry(k, 1)), IDENTITY_MAP
    elif which == "1":
        lhs = _bracket(f, compose(g, *[f] * n), plan)
        rhs = table.entry(1, k)
    elif which == "2":
        fn = compose(*[f] * n)
        lhs = compose(_bracket(f, compose(fn, g), plan), fn)
        rhs = compose(fn, table.entry(1, k))
    elif which == "3":
        fg = compose(f, g)
        gf = compose(g, f)
        lhs = compose(_bracket(fg, gf, plan), gf)
        rhs = compose(fg, table.entry(k, 1))
    else:
        raise ValueError(f"unknown identity {which!r}")
    if which in ("2", "3"):  # two trees, affine or not: compare their values
        rep = numerically_equal(lhs, rhs, plan)
        return IdentityReport(rep.equal, rep.max_error)
    resid = affine_distance(lhs, rhs)  # two brackets: compare their coefficients
    return IdentityReport(resid <= plan.tolerance, resid)


# ---------------------------------------------------------------------------
# conjugation


def conjugate_semigroup(
    S: SemigroupPresentation, phi: AffineMap
) -> SemigroupPresentation:
    """Generators phi ∘ f_i ∘ phi^{-1}."""
    inv = affine_inverse(phi)
    gens = tuple(compose(phi, gen, inv) for gen in S.generators)
    return SemigroupPresentation(gens, label=f"conjugate({S.label}, a={phi.a!r}, b={phi.b!r})")
