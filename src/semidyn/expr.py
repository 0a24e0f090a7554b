"""Expression trees for entire functions of one complex variable.

Nodes are immutable dataclasses, so trees can be shared freely across
threads.  Each node class is one row of the node table: its prefix name,
its typed fields, and one numpy evaluation step.  Walking the children,
printing and parsing follow the field types alone.  The node
``affine(a, b)`` is AffineMap, the invertible map z -> a*z + b that the
commutators, xi, phi and normal-form prefixes are: a with a finite,
nonzero 1/a, or the text is malformed.  A constant is ``const(b)``.

There is one evaluation path.  ``eval_array`` evaluates a tree on an
array and tracks a per-element "bad" mask: any intermediate value whose
magnitude exceeds OVERFLOW_CEILING counts as overflow -- well below float
infinity, so products can never silently turn into NaN.  Identity (where
the input enters), Const, AffineMap, Power, Sum and Product check their
output; the others cannot go over: the guards of Exp, Cos and Sin keep
them below e^345 ~ 1.3e149, Negate keeps the magnitude and Compose returns
its outer child's values.

Evaluation is elementwise: an element's value and bad bit depend on that
element alone, bit for bit, whatever the array's length.  The clean-point
search and the grid kernel rely on it when they evaluate a subset of
points, and so does Compose.  A Compose evaluates the chain of Compose
nodes under it as one sequence of maps, in the order they apply: once at
least half the points still live are bad, the later maps run at the clean
ones alone, the live set shrinking again wherever half of it has gone bad,
and their values and bad bits are written back into the first map's array
at the end; once every live point is bad, the rest of the chain is
skipped.  numpy's in-place complex multiply rounds one-element arrays
differently from every other length, so Power and Product multiply out of
place.

``eval_at`` is ``eval_array`` on a one-element array, raising EvalOverflow
where that element is bad.  Negate is exact and sets no bad bit, so
negating ``eval_array(e, z)``'s values gives ``eval_array(Negate(e), z)``
bit for bit; the grid kernel's mirrored words, which stand for a word and
its negation, rest on this.

Evaluation works in place.  Each node's ``_eval`` returns a fresh array
that no other node holds, and its parent may overwrite it: Exp, Cos, Sin
and Negate write their result into their child's array, Sum accumulates
into its first child's, and a compacting Compose writes into its first
map's.  No node writes into the points it is evaluated at, so only
Identity, where those points become a value, copies its input, and
``eval_array`` never alters the caller's array nor returns memory shared
with it.

Two trees are compared at sample points, in one way: ``numerically_equal``
asks ``find_clean_points`` for SAMPLE_COUNT seeded points at which both are
clean, and ``compare_values`` takes the largest relative error of their
values there, with an absolute floor.  The commutator module's affine fit
measures its residual with the same error.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from dataclasses import dataclass, fields
from typing import Iterator, get_type_hints

import numpy as np

OVERFLOW_CEILING = 1e150
# Deepest nesting parse_expr accepts, counting every node on a path (exp(z)
# is 2).  The deepest recursions over a tree, printing it or walking a
# sum, take up to 4 frames a level, and words of up to 32 letters compose
# a tree 31 levels deeper, so 128 keeps them well inside Python's default
# recursion limit of 1000.  Evaluation takes one frame a level but none
# for a Compose under a Compose: a chain is evaluated as a loop over its
# maps.
MAX_EXPR_DEPTH = 128
# Largest exponent of pow.  Power multiplies k - 1 times per evaluation, so
# its cost grows with k's value, not with the length of the text; repeated
# squaring would round differently for k >= 4.
MAX_POWER = 64


class EvalOverflow(ArithmeticError):
    """An intermediate value exceeded the overflow ceiling."""


class DegenerateAffineError(ValueError):
    """Affine coefficient a where a or 1/a is 0 or not finite."""


class DegenerateSamplesError(RuntimeError):
    """Too few usable sample values.  Raised by find_clean_points when no
    disk holds SAMPLE_COUNT points at which every expression is clean, and
    by commutator._fit_affine when no two of those points' values are well
    separated."""


class ExprParseError(ValueError):
    """Malformed prefix-notation expression text."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base class for expression nodes.

    A node class sets ``name``, its prefix-notation name; declares its
    children and parameters as dataclass fields typed Expr,
    tuple[Expr, ...], complex or int; and implements ``_eval(w, bad)``,
    its values at the points w, setting in ``bad`` the points an op
    cannot take.  It evaluates a child with ``child._eval(v, bad)`` into
    the same mask (a compacting Compose gives the later maps of its chain
    a mask of their own), and a node whose values can exceed the ceiling
    returns them ``_capped``.  ``_eval`` must not write into w, and
    returns an array that it owns: the parent may overwrite it.  The array a child returns
    is the node's to overwrite in turn.
    """

    __slots__ = ()
    name: str


def _capped(v: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """v, its elements over the ceiling (or not finite) marked bad and
    zeroed in place."""
    mag = np.abs(v)
    if not mag.size or mag.max() <= OVERFLOW_CEILING:  # a NaN max fails
        return v
    over = mag <= OVERFLOW_CEILING
    np.logical_not(over, out=over)
    bad |= over
    v[over] = 0.0
    return v


def _guarded(fn, u: np.ndarray, over: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """fn(u) written into u, marking the elements where ``over`` holds
    bad and feeding fn 0 there instead."""
    if over.any():
        bad |= over
        u[over] = 0.0
    return fn(u, out=u)


@dataclass(frozen=True)
class Identity(Expr):
    name = "z"

    def _eval(self, w, bad):
        return _capped(w.astype(np.complex128, copy=True), bad)


@dataclass(frozen=True)
class Const(Expr):
    value: complex
    name = "const"

    def _eval(self, w, bad):
        value = complex(self.value)
        if not abs(value) <= OVERFLOW_CEILING:
            bad[...] = True
            value = 0j
        return np.full(w.shape, value, dtype=np.complex128)


@dataclass(frozen=True)
class AffineMap(Expr):
    """z -> a*z + b with a and 1/a finite and nonzero: invertible."""

    a: complex
    b: complex
    name = "affine"

    def __post_init__(self):
        a = complex(self.a)
        if a == 0 or not all(map(cmath.isfinite, (a, 1 / a))) or 1 / a == 0:
            raise DegenerateAffineError(f"invalid affine coefficient a={self.a!r}")

    def __call__(self, z):
        return self.a * z + self.b

    def to_json_dict(self) -> dict:
        return {"a": complex_to_json(self.a), "b": complex_to_json(self.b)}

    def _eval(self, w, bad):
        v = self.a * w
        v += self.b
        return _capped(v, bad)


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    k: int
    name = "pow"

    def __post_init__(self):
        if not 1 <= self.k <= MAX_POWER:
            raise ValueError(f"power exponent must be 1..{MAX_POWER}")

    def _eval(self, w, bad):
        b = self.base._eval(w, bad)
        v = b * b if self.k > 1 else b
        for _ in range(self.k - 2):
            v = v * b  # not *=: see the module docstring
        return _capped(v, bad)


@dataclass(frozen=True)
class Exp(Expr):
    inner: Expr
    name = "exp"

    def _eval(self, w, bad):
        u = self.inner._eval(w, bad)
        return _guarded(np.exp, u, u.real > 345.0, bad)  # exp(345) ~ 1e149


@dataclass(frozen=True)
class Cos(Expr):
    inner: Expr
    name = "cos"

    def _eval(self, w, bad):
        u = self.inner._eval(w, bad)
        return _guarded(np.cos, u, np.abs(u.imag) > 345.0, bad)


@dataclass(frozen=True)
class Sin(Expr):
    inner: Expr
    name = "sin"

    def _eval(self, w, bad):
        u = self.inner._eval(w, bad)
        return _guarded(np.sin, u, np.abs(u.imag) > 345.0, bad)


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]
    name = "add"

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("sum needs at least two terms")

    def _eval(self, w, bad):
        v = self.terms[0]._eval(w, bad)
        for t in self.terms[1:]:
            v += t._eval(w, bad)
        return _capped(v, bad)


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]
    name = "mul"

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("product needs at least two factors")

    def _eval(self, w, bad):
        v = self.factors[0]._eval(w, bad)
        for f in self.factors[1:]:
            v = v * f._eval(w, bad)  # not *=: see the module docstring
        return _capped(v, bad)


@dataclass(frozen=True)
class Negate(Expr):
    inner: Expr
    name = "neg"

    def _eval(self, w, bad):
        u = self.inner._eval(w, bad)
        return np.negative(u, out=u)


@dataclass(frozen=True)
class Compose(Expr):
    outer: Expr
    inner: Expr
    name = "compose"

    def _eval(self, w, bad):
        # the maps of the chain of Compose nodes under this one, in the
        # order they apply, gathered in a loop rather than one call a level
        maps, stack = [], [self]
        while stack:
            e = stack.pop()
            if type(e) is Compose:
                stack += e.outer, e.inner
            else:
                maps.append(e)
        u = maps[0]._eval(w, bad)
        # a later map could only set bits already set, and values at bad
        # points are unspecified, so once half the live points are bad the
        # rest of the chain runs at the clean ones alone (v at the indices
        # at of u, with its own mask), and stops when none is left
        v, live_bad, at = u, bad, None
        for m in maps[1:]:
            nbad = np.count_nonzero(live_bad)
            if nbad * 2 >= live_bad.size:
                if nbad == live_bad.size:
                    break
                keep = np.nonzero(~live_bad)
                at = keep if at is None else tuple(i[keep] for i in at)
                v, live_bad = v[keep], np.zeros(live_bad.size - nbad, dtype=bool)
            v = m._eval(v, live_bad)
        if at is None:
            return v
        u[at] = v
        bad[...] = True  # every point off the live set was bad when it left
        bad[at] = live_bad
        return u


NODE_TYPES = (
    Identity, Const, AffineMap, Power, Exp, Cos, Sin, Sum, Product, Negate, Compose
)
_EXPRS = tuple[Expr, ...]
_BY_NAME = {cls.name: cls for cls in NODE_TYPES}
# node class -> ((field name, field type), ...) in declaration order
_FIELDS = {
    cls: tuple((f.name, get_type_hints(cls)[f.name]) for f in fields(cls))
    for cls in NODE_TYPES
}


def children(expr: Expr) -> Iterator[Expr]:
    for name, kind in _FIELDS[type(expr)]:
        if kind is Expr:
            yield getattr(expr, name)
        elif kind == _EXPRS:
            yield from getattr(expr, name)


_CONST, _POLY, _CLASS_B = "const", "poly", "class-b"


def _growth_kind(expr: Expr) -> str | None:
    """_CONST for a constant tree, _POLY for a provably non-constant
    polynomial, _CLASS_B for a provably transcendental class-B map, None
    when unsure (including trees that might cancel to a constant)."""
    if isinstance(expr, (Identity, AffineMap)):
        return _POLY
    if isinstance(expr, Const):
        return _CONST
    if isinstance(expr, (Negate, Power)):
        return _growth_kind(next(children(expr)))
    if isinstance(expr, (Exp, Cos, Sin)):
        k = _growth_kind(expr.inner)
        return k if k in (_CONST, None) else _CLASS_B
    if isinstance(expr, Compose):
        kinds = (_growth_kind(expr.outer), _growth_kind(expr.inner))
        if None in kinds:
            return None
        if _CONST in kinds:
            return _CONST
        return _POLY if kinds == (_POLY, _POLY) else _CLASS_B
    terms = list(children(expr))  # Sum or Product
    kinds = [_growth_kind(t) for t in terms]
    if None in kinds:
        return None
    varying = [k for k in kinds if k != _CONST]
    if not varying:
        return _CONST
    if isinstance(expr, Product):
        if any(k == _CONST and not (isinstance(t, Const) and t.value != 0)
               for t, k in zip(terms, kinds)):
            return None  # a constant factor that may be zero
        if all(k == _POLY for k in varying):
            return _POLY
    return varying[0] if len(varying) == 1 else None


def is_class_b(expr: Expr) -> bool:
    """Conservative test for membership in the Eremenko-Lyubich class B:
    transcendental entire maps whose singular values (critical and
    asymptotic values) form a bounded set.

    True only for finite compositions of exp/cos/sin (singular values {0}
    and {-1, 1}) with non-constant polynomials, which include the affine
    wrappings neg, +const, *const and pow.  Class B is closed under such
    compositions because sing(f o g) lies in sing(f) U f(sing(g)).  Any
    other shape answers False, e.g. a sum of two non-constant terms such
    as Fatou's function z + 1 + exp(-z), whose critical values 2*pi*i*k + 2
    are unbounded.
    """
    return _growth_kind(expr) == _CLASS_B


def is_exactly_even(expr: Expr) -> bool:
    """Structural proof that eval_array(expr, -z) equals eval_array(expr, z)
    bit for bit, values and bad mask both, for every array z.

    The input enters a tree only at Identity and AffineMap, and the proof
    accepts it only squared: Power(Identity(), 2) caps |z| and |-z| alike
    (both ask the same hypot and zero the same elements) and squares with
    b * b, whose real and imaginary parts are the same products of the
    negated operands.  A node whose children all give the same bits gives
    the same bits, and a Compose sees its inner child's bits alone.
    Anything else, e.g. Cos(Identity()), says no: cos is even, but whether
    numpy's complex cos is sign-symmetric bit for bit depends on its SIMD
    build.
    """
    if isinstance(expr, (Identity, AffineMap)):
        return False
    if isinstance(expr, Power) and isinstance(expr.base, Identity):
        return expr.k == 2
    if isinstance(expr, Compose):
        return is_exactly_even(expr.inner)
    return all(is_exactly_even(c) for c in children(expr))


def is_exactly_real(expr: Expr) -> bool:
    """Structural proof that eval_array(expr, conj(z)) is the conjugate of
    eval_array(expr, z), values and bad mask both, for every array z, but
    for the sign of zero components.

    The proof accepts a tree when every Const value and every AffineMap
    coefficient has imaginary part exactly 0.  Round-to-nearest is
    symmetric under sign flips, and conjugation flips the sign of every
    imaginary part, so +, - and x of conjugates give the conjugate's bits:
    the real part of a product takes the same products, its imaginary
    part their negations.  So do sums, products, powers, Negate,
    _capped's hypot, which reads magnitudes, and the guards' masks
    u.real > 345 and |u.imag| > 345.  numpy's complex exp, cos and sin
    call the C library, and C11 Annex G.6 states cexp(conj z) =
    conj(cexp z) and the same for ccosh and csinh, through which it
    defines ccos and csin.  A Compose sees its inner child's bits.

    Where a real constant meets a zero imaginary part, the two results
    may differ in the sign of that zero.  Every later operation keeps
    such a difference inside zero components, and magnitudes do not see
    it, so the grid kernel's tests give the conjugate cell the same
    status and escape step.
    """
    if isinstance(expr, Const):
        return complex(expr.value).imag == 0
    if isinstance(expr, AffineMap):
        return complex(expr.a).imag == 0 and complex(expr.b).imag == 0
    return all(is_exactly_real(c) for c in children(expr))


# ---------------------------------------------------------------------------
# composition


def compose(outer: Expr, inner: Expr) -> Expr:
    """Structural composition (outer after inner), with identity and
    affine-on-affine folding only.  Two affine maps fold to affine_compose's
    map, and stay a Compose where that is not invertible."""
    if isinstance(outer, Identity):
        return inner
    if isinstance(inner, Identity):
        return outer
    if isinstance(outer, AffineMap) and isinstance(inner, AffineMap):
        try:
            return affine_compose(outer, inner)
        except DegenerateAffineError:
            pass
    return Compose(outer, inner)


def compose_power(f: Expr, n: int) -> Expr:
    """n-fold self-composition, n >= 1."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    out = f
    for _ in range(n - 1):
        out = compose(out, f)
    return out


# ---------------------------------------------------------------------------
# evaluation


def eval_array(expr: Expr, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised evaluation.

    Returns (values, bad) where bad marks elements at which some
    intermediate overflowed; values are unspecified there.  A chain of
    Compose nodes runs its later maps at the clean points alone once at
    least half its live points are bad, and stops when none is left.
    numpy's overflow and invalid warnings are silenced: the mask records
    those elements.
    """
    z = np.asarray(z, dtype=np.complex128)
    bad = np.zeros(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        return expr._eval(z, bad), bad


def eval_at(expr: Expr, z: complex) -> complex:
    """eval_array at the one point z; raises EvalOverflow where it marks
    that point bad."""
    values, bad = eval_array(expr, np.array([z], dtype=np.complex128))
    if bad[0]:
        raise EvalOverflow(f"an intermediate value at z={z!r} exceeds the ceiling")
    return complex(values[0])


# ---------------------------------------------------------------------------
# affine maps


IDENTITY_MAP = AffineMap(1 + 0j, 0j)


def affine_compose(m1: AffineMap, m2: AffineMap) -> AffineMap:
    """m1 after m2: (a1*a2, a1*b2 + b1)."""
    return AffineMap(m1.a * m2.a, m1.a * m2.b + m1.b)


def affine_inverse(m: AffineMap) -> AffineMap:
    return AffineMap(1 / m.a, -m.b / m.a)


def affine_distance(m1: AffineMap, m2: AffineMap) -> float:
    return abs(m1.a - m2.a) + abs(m1.b - m2.b)


# ---------------------------------------------------------------------------
# sampled numeric equality


# find_clean_points draws SAMPLE_COUNT points from the disk |z| <= SAMPLE_RADIUS,
# and _relative_error floors a comparison's scale at ABS_FLOOR / tolerance
SAMPLE_COUNT = 32
SAMPLE_RADIUS = 2.0
ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sample points in the disk |z| <= SAMPLE_RADIUS, standing in for
    pointwise equality of entire functions (agreeing on a disk, they agree
    everywhere), and the relative tolerance of a comparison there."""

    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        # a caller can pass any value for each field, and True is a bool,
        # an int subclass
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"sample seed must be an integer >= 0, got {self.seed!r}")
        # the relative error compare_values measures never exceeds 2, so a
        # tolerance of 1 or more passes nearly every comparison
        if not 0 < self.tolerance < 1:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance!r}")


def find_clean_points(
    exprs: list[Expr], plan: SamplePlan
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The first SAMPLE_COUNT points of a seeded search at which every
    expression evaluates cleanly, and each one's values there.  Entire
    functions agreeing on an open set agree everywhere, so any clean
    sub-disk will do.  Stage 1 draws batches from the plan's disk about 0
    (4n seeded points, a lattice, 16n and 64n more) until they hold n
    clean points, the first n in draw order winning.  It evaluates batch
    1 alone; where the clean rate seen so far (clean points over points
    evaluated) predicts that the next batch leaves it short of n, it draws
    that batch and every later one and evaluates them in one call.
    Failing that, stage 2 draws 4n points from each of up to 32 zoom
    disks, shrinks 8, 32, 128 and 512 about each of the first 8 clean
    points found, and evaluates all of them at once; the first
    disk in draw order that holds n clean points wins.  If none does,
    DegenerateSamplesError.  Each point is evaluated at most once per
    expression, and expression k only where 1..k-1 are clean.  Evaluation
    is elementwise, so the values are those at the chosen points alone,
    and reordering the expressions gives the same points (or the same
    error) and reorders the values alone, bit for bit."""
    n = SAMPLE_COUNT
    rng = np.random.default_rng(plan.seed)

    def draw(center: complex, radius: float, m: int) -> np.ndarray:
        r = radius * np.sqrt(rng.random(m))
        theta = 2 * np.pi * rng.random(m)
        return center + r * np.exp(1j * theta)

    def clean(pts: np.ndarray, *carried: np.ndarray) -> list[np.ndarray]:
        """[the points clean for every expression, each array carried along
        with pts at those points, each expression's values there]"""
        cols = [pts, *carried]
        width = len(cols) + len(exprs)
        for e in exprs:
            if not len(cols[0]):
                return cols + [cols[0]] * (width - len(cols))
            v, bad = eval_array(e, cols[0])
            ok = ~bad
            cols = [c[ok] for c in cols + [v]]
        return cols

    def stage1():
        yield draw(0j, SAMPLE_RADIUS, 4 * n)
        side = np.linspace(-SAMPLE_RADIUS, SAMPLE_RADIUS, 48)
        lattice = (side[:, None] + 1j * side[None, :]).ravel()
        yield lattice[np.abs(lattice) <= SAMPLE_RADIUS]
        yield draw(0j, SAMPLE_RADIUS, 16 * n)
        yield draw(0j, SAMPLE_RADIUS, 64 * n)

    found = [np.empty(0, dtype=np.complex128)] * (len(exprs) + 1)
    batches, drawn = stage1(), 0
    for batch in batches:
        # at the clean rate seen so far this batch leaves the search short,
        # so it and every later batch are drawn and evaluated at once (never
        # batch 1: nothing is drawn before it)
        if len(found[0]) * len(batch) < (n - len(found[0])) * drawn:
            batch = np.concatenate([batch, *batches])
        drawn += len(batch)
        found = [np.concatenate(pair) for pair in zip(found, clean(batch))]
        if len(found[0]) >= n:
            return found[0][:n], [v[:n] for v in found[1:]]

    disks = [draw(complex(center), SAMPLE_RADIUS / shrink, 4 * n)  # stage 2
             for center in found[0][:8] for shrink in (8.0, 32.0, 128.0, 512.0)]
    if disks:
        pts = np.concatenate(disks)
        pts, index, *values = clean(pts, np.arange(len(pts)))
        disk = index // (4 * n)
        full = np.flatnonzero(np.bincount(disk, minlength=len(disks)) >= n)
        if len(full):
            first = np.flatnonzero(disk == full[0])[:n]
            return pts[first], [v[first] for v in values]
    raise DegenerateSamplesError(
        f"no disk with {n} clean samples found for {len(exprs)} expression(s)"
    )


def _relative_error(
    diff: np.ndarray, x: np.ndarray, y: np.ndarray, plan: SamplePlan
) -> float:
    """The largest |diff| relative to max(|x|, |y|), that scale floored at
    ABS_FLOOR / tolerance; NaN where some term is."""
    scale = np.maximum(np.abs(x), np.abs(y))
    scale = np.maximum(scale, ABS_FLOOR / plan.tolerance)
    return float((np.abs(diff) / scale).max())


@dataclass(frozen=True)
class EquivalenceReport:
    equal: bool
    max_error: float


def compare_values(fv: np.ndarray, gv: np.ndarray, plan: SamplePlan) -> EquivalenceReport:
    """Relative error with an absolute floor between two functions' values
    at the same points; equal when it is within the plan's tolerance."""
    max_err = _relative_error(fv - gv, fv, gv, plan)
    return EquivalenceReport(max_err <= plan.tolerance, max_err)


def numerically_equal(fexpr: Expr, gexpr: Expr, plan: SamplePlan) -> EquivalenceReport:
    """compare_values of two trees at the points find_clean_points picks;
    DegenerateSamplesError where it finds too few."""
    _, (fv, gv) = find_clean_points([fexpr, gexpr], plan)
    return compare_values(fv, gv, plan)


# ---------------------------------------------------------------------------
# prefix-notation serialization and the JSON text of complex numbers


_COMPLEX_RE = _re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise ExprParseError(f"bad complex literal {text!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) is not None else 0.0
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ExprParseError(f"complex literal {text!r} overflows a float")
    return complex(re_part, im_part)


def format_complex(c: complex) -> str:
    c = complex(c)
    sign = "-" if (c.imag < 0 or (c.imag == 0 and math.copysign(1, c.imag) < 0)) else "+"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def complex_to_json(c: complex) -> str:
    """The "re,im" text that JSON reports hold a complex number as."""
    c = complex(c)
    return f"{c.real!r},{c.imag!r}"


# every character outside whitespace is punctuation or part of an atom
_TOKEN_RE = _re.compile(r"[(),]|[^\s(),]+")


def parse_expr(text: str) -> Expr:
    """Parse the prefix notation, e.g. ``add(exp(pow(z,2)), const(0.2+0i))``.

    Malformed text, and text nested deeper than MAX_EXPR_DEPTH, raises
    ExprParseError.
    """
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprParseError("unexpected end of input")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ExprParseError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def parse_field(kind, depth):
        if kind is Expr:
            return node(depth)
        if kind == _EXPRS:
            items = [node(depth)]
            while peek() == ",":
                take(",")
                items.append(node(depth))
            return tuple(items)
        tok = take()
        if kind is complex:
            return parse_complex(tok)
        try:
            return int(tok)
        except ValueError:
            raise ExprParseError(f"bad integer {tok!r}") from None

    def node(depth: int) -> Expr:
        if depth > MAX_EXPR_DEPTH:
            raise ExprParseError(f"nesting deeper than {MAX_EXPR_DEPTH} levels")
        tok = take()
        if tok in ("(", ")", ","):
            raise ExprParseError(f"unexpected {tok!r}")
        cls = _BY_NAME.get(tok)
        if cls is not None and not _FIELDS[cls]:
            return cls()
        if cls is not None and peek() == "(":
            take("(")
            values = []
            for i, (_, kind) in enumerate(_FIELDS[cls]):
                if i:
                    take(",")
                values.append(parse_field(kind, depth + 1))
            take(")")
            try:
                return cls(*values)
            except ValueError as exc:
                raise ExprParseError(f"{tok}: {exc}") from None
        raise ExprParseError(f"unknown name {tok!r}")

    result = node(1)
    if pos != len(tokens):
        raise ExprParseError(f"trailing tokens: {tokens[pos:]!r}")
    return result


def format_expr(expr: Expr) -> str:
    """Emit the prefix notation; round-trips bit-stably through parse_expr."""
    args = []
    for name, kind in _FIELDS[type(expr)]:
        value = getattr(expr, name)
        if kind is Expr:
            args.append(format_expr(value))
        elif kind == _EXPRS:
            args.extend(format_expr(e) for e in value)
        elif kind is complex:
            args.append(format_complex(value))
        else:
            args.append(str(value))
    return f"{expr.name}({', '.join(args)})" if args else expr.name
