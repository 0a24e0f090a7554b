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
infinity, so products can never silently turn into NaN.  Every node's
values are finite and within the ceiling, so each value is checked once,
where it is made.  Const, AffineMap, Power, Sum and Product check their
output; the others cannot go over: the guards of Exp, Cos and Sin keep
exp below e^345 ~ 6.8e149 and cos and sin below cosh 345 ~ 3.4e149,
Negate keeps the magnitude, Identity copies a value already checked and
Compose returns the values of the map it applies last.  Only
eval_array's own input can be over the ceiling, and eval_array checks it
where the tree reads it through an Identity (one outside the later maps
of every Compose, which read the values of the map before them).

Evaluation is elementwise: an element's value and bad bit depend on that
element alone, bit for bit, whatever the array's length.  The clean-point
search and the grid kernel rely on it when they evaluate a subset of
points, and so does Compose.  ``compose(f, g, h)`` is f∘g∘h, one chain
into which any nested Compose is spliced, so every nesting is one tree.
It runs its maps in the order they apply: once at least half the points
still live are bad, the later maps run at the clean ones alone, the live
set shrinking again wherever half of it has gone bad, and their values
and bad bits are written back into the first-applied map's array at the
end; once every live point is bad, the rest of the chain is skipped.
numpy's in-place complex multiply rounds one-element arrays differently
from every other length, so Power and Product multiply out of place.

``eval_at`` is ``eval_array`` on a one-element array, raising EvalOverflow
where that element is bad.  Negate is exact and sets no bad bit, so
negating ``eval_array(e, z)``'s values gives ``eval_array(Negate(e), z)``
bit for bit; the grid kernel's mirrored words, which stand for a word and
its negation, rest on this.

Evaluation works in place.  Each node's ``_eval`` returns a fresh array
that no other node holds, and its parent may overwrite it: Exp, Cos, Sin
and Negate write their result into their child's array, Sum accumulates
into its first child's, and a compacting Compose writes into its
first-applied map's.  No node writes into the points it is evaluated at,
so only Identity, where those points become a value, copies its input,
and ``eval_array`` never alters the caller's array nor returns memory
shared with it: where it zeroes the elements over the ceiling, it zeroes
them in a copy.

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
import threading
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, get_type_hints

import numpy as np

OVERFLOW_CEILING = 1e150
# Deepest nesting parse_expr accepts, counting every node on a path (exp(z)
# is 2).  The deepest recursions over a tree, printing it or walking a sum,
# take up to 4 frames a level, and a word's tree is one level deeper than
# its deepest generator, so 128 keeps them well inside Python's default
# recursion limit of 1000.
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
    returns an array that it owns: the parent may overwrite it.  The
    array a child returns is the node's to overwrite in turn.

    Every ``_eval`` returns finite values within OVERFLOW_CEILING, its
    bad points' included, given w within it.  Each node either caps its
    output, guards its input or cannot exceed the ceiling, so a value is
    checked once, by the node that makes it, and only eval_array's input
    is checked before it is read.
    """

    __slots__ = ()
    name: str

    @cached_property
    def _reads_input(self) -> bool:
        """Whether eval_array's input reaches an Identity of this tree:
        later maps of a Compose read the values of the map before them."""
        if type(self) is Identity:
            return True
        if type(self) is Compose:
            return self.maps[-1]._reads_input
        return any(c._reads_input for c in children(self))


def _over_ceiling(v: np.ndarray) -> np.ndarray | None:
    """The ceiling check: the mask of v's elements over the ceiling (or
    not finite), None where there is none."""
    mag = np.abs(v)
    if not mag.size or mag.max() <= OVERFLOW_CEILING:  # a NaN max fails
        return None
    over = mag <= OVERFLOW_CEILING
    return np.logical_not(over, out=over)


def _capped(v: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """v, its elements over the ceiling (or not finite) marked bad and
    zeroed in place."""
    over = _over_ceiling(v)
    if over is not None:
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
    """z -> z.  Its input is eval_array's, which eval_array has checked
    against the ceiling, or the values of the map before it in a Compose,
    so it only copies them."""

    name = "z"

    def _eval(self, w, bad):
        return w.copy()


@dataclass(frozen=True)
class Const(Expr):
    value: complex
    name = "const"

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _eval(self, w, bad):
        if abs(self.value) <= OVERFLOW_CEILING:  # a NaN value fails
            return np.full(w.shape, self.value, dtype=np.complex128)
        bad[...] = True
        return np.zeros(w.shape, dtype=np.complex128)


@dataclass(frozen=True)
class AffineMap(Expr):
    """z -> a*z + b with a and 1/a finite and nonzero: invertible."""

    a: complex
    b: complex
    name = "affine"

    def __post_init__(self):
        a = complex(self.a)
        if a == 0 or not all(map(cmath.isfinite, (a, 1 / a))) or 1 / a == 0:
            raise DegenerateAffineError(f"invalid affine coefficient a={a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", complex(self.b))

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
        return _guarded(np.exp, u, u.real > 345.0, bad)  # e^345 ~ 6.8e149


@dataclass(frozen=True)
class Cos(Expr):
    inner: Expr
    name = "cos"

    def _eval(self, w, bad):
        u = self.inner._eval(w, bad)
        # |cos(x + iy)| <= cosh y, and cosh 345 ~ 3.4e149
        return _guarded(np.cos, u, np.abs(u.imag) > 345.0, bad)


@dataclass(frozen=True)
class Sin(Expr):
    inner: Expr
    name = "sin"

    def _eval(self, w, bad):
        u = self.inner._eval(w, bad)
        # |sin(x + iy)| <= cosh y, as for cos
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
    maps: tuple[Expr, ...]
    name = "compose"

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ValueError("composition needs at least two maps")
        if Compose in map(type, self.maps):  # splice nested chains into this one
            maps = []  # a generator expression made 1.7x the GCs of normal-form
            for m in self.maps:
                maps += m.maps if type(m) is Compose else (m,)
            object.__setattr__(self, "maps", tuple(maps))

    def _eval(self, w, bad):
        u = self.maps[-1]._eval(w, bad)
        # a later map could only set bits already set, and values at bad
        # points are unspecified, so once half the live points are bad the
        # rest of the chain runs at the clean ones alone (v at the indices
        # at of u, with its own mask), and stops when none is left
        v, live_bad, at = u, bad, None
        for m in self.maps[-2::-1]:
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
    terms = list(children(expr))  # Sum, Product or Compose
    kinds = [_growth_kind(t) for t in terms]
    if None in kinds:
        return None
    if isinstance(expr, Compose):
        if _CONST in kinds:
            return _CONST
        return _POLY if set(kinds) == {_POLY} else _CLASS_B
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
    accepts it only squared: eval_array checks |z| and |-z| alike (both
    ask the same hypot and zero the same elements), and Power(Identity(),
    2) squares with b * b, whose real and imaginary parts are the same
    products of the negated operands, and caps them alike.  A node whose
    children all give the same bits gives the same bits, and a Compose sees its first-applied map's bits alone.
    Anything else, e.g. Cos(Identity()), says no: cos is even, but whether
    numpy's complex cos is sign-symmetric bit for bit depends on its SIMD
    build.
    """
    if isinstance(expr, (Identity, AffineMap)):
        return False
    if isinstance(expr, Power) and isinstance(expr.base, Identity):
        return expr.k == 2
    if isinstance(expr, Compose):
        return is_exactly_even(expr.maps[-1])
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
    part their negations.  So do sums, products, powers, Negate, the
    ceiling check's hypot, which reads magnitudes, and the guards' masks
    u.real > 345 and |u.imag| > 345.  numpy's complex exp, cos and sin
    call the C library, and C11 Annex G.6 states cexp(conj z) =
    conj(cexp z) and the same for ccosh and csinh, through which it
    defines ccos and csin.  A Compose sees its first-applied map's bits.

    Where a real constant meets a zero imaginary part, the two results
    may differ in the sign of that zero.  Every later operation keeps
    such a difference inside zero components, and magnitudes do not see
    it, so the grid kernel's tests give the conjugate cell the same
    status and escape step.
    """
    if isinstance(expr, Const):
        return expr.value.imag == 0
    if isinstance(expr, AffineMap):
        return expr.a.imag == 0 and expr.b.imag == 0
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
    return Compose((outer, inner))


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
    intermediate overflowed; values are unspecified there.  A Compose runs
    its later maps at the clean points alone once at least half its live
    points are bad, and stops when none is left.
    numpy's overflow and invalid warnings are silenced: the mask records
    those elements.

    Every node's values are within the ceiling (see Expr), so z is the one
    array checked before it is read: where the tree reads it through an
    Identity (``_reads_input``, worked out once per tree), the elements of
    z over the ceiling are marked bad and read as 0.  An AffineMap reads z
    as it is and caps its own output, so affine(1e-20, 0) is clean at
    1e160, and so is a tree that never reads z, such as const(1e149).
    """
    z = np.asarray(z, dtype=np.complex128)
    bad = np.zeros(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if expr._reads_input and (over := _over_ceiling(z)) is not None:
            bad |= over
            z = np.where(over, 0j, z)  # a copy: the caller's array stays
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
# the seeded stream, piece by piece: (disks, points per disk) of stage 1's
# batches 1, 3 and 4, then of stage 2's zoom disks, 4 about each of up to
# 8 centres, shrunk by _SHRINKS
_STREAM = ((1, 4 * SAMPLE_COUNT), (1, 16 * SAMPLE_COUNT), (1, 64 * SAMPLE_COUNT),
           (32, 4 * SAMPLE_COUNT))
_SHRINKS = np.array([8.0, 32.0, 128.0, 512.0])


def _lattice() -> np.ndarray:
    """Stage 1's batch 2: the points of a 48x48 lattice in the disk."""
    side = np.linspace(-SAMPLE_RADIUS, SAMPLE_RADIUS, 48)
    lattice = (side[:, None] + 1j * side[None, :]).ravel()
    lattice = lattice[np.abs(lattice) <= SAMPLE_RADIUS]
    lattice.flags.writeable = False
    return lattice


_LATTICE = _lattice()


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sample points in the disk |z| <= SAMPLE_RADIUS, standing in for
    pointwise equality of entire functions (agreeing on a disk, they agree
    everywhere), and the relative tolerance of a comparison there.

    A plan owns its seeded draws: one Generator, seeded once, draws each
    piece of the stream the first time a search needs it, in stream order
    (see ``_draw``), and every later search under the plan reads it.  A
    plan made by ``dataclasses.replace`` starts with no draws, so a CLI
    run, which makes its own plan, draws once."""

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
        # not fields: equality, hashing and replace() see seed and tolerance
        object.__setattr__(self, "_pieces", [])
        object.__setattr__(self, "_lock", threading.Lock())

    def _draw(self, k: int):
        """Piece k of the seeded stream (see _STREAM): the points of stage
        1's batch for k < 3, and (r, e) for stage 2's disks, where disk d
        at centre c and radius s is c + (s * r[d]) * e[d].  Each disk of m
        points takes m uniforms u and then m uniforms v from the stream, r
        = sqrt(u) and e = exp(1j * 2 pi v).  The pieces are drawn under the
        plan's lock, in order, so threads that search one plan read the
        points a serial search draws."""
        with self._lock:
            pieces = self._pieces
            if not pieces:
                object.__setattr__(self, "_rng", np.random.default_rng(self.seed))
            while len(pieces) <= k:
                disks, m = _STREAM[len(pieces)]
                u = self._rng.random(2 * disks * m).reshape(disks, 2, m)
                r, e = np.sqrt(u[:, 0]), np.exp(1j * (2 * np.pi * u[:, 1]))
                if disks == 1:  # the centre 0j is added, as it turns -0.0 into 0.0
                    piece = 0j + (SAMPLE_RADIUS * r[0]) * e[0]
                    piece.flags.writeable = False
                else:
                    piece = r, e
                pieces.append(piece)
            return pieces[k]


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
    error) and reorders the values alone, bit for bit.  The seeded points
    are the plan's (SamplePlan._draw), drawn by its first search that
    needs them; the lattice is a module constant."""
    n = SAMPLE_COUNT

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
        yield plan._draw(0)
        yield _LATTICE
        yield plan._draw(1)
        yield plan._draw(2)

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

    centers = found[0][:8]  # stage 2: disk d is shrink d % 4 about centre d // 4
    if len(centers):
        r, e = plan._draw(3)
        disks = 4 * len(centers)
        radii = np.tile(SAMPLE_RADIUS / _SHRINKS, len(centers))
        pts = (centers.repeat(4)[:, None] + (radii[:, None] * r[:disks]) * e[:disks]).ravel()
        pts, index, *values = clean(pts, np.arange(len(pts)))
        disk = index // (4 * n)
        full = np.flatnonzero(np.bincount(disk, minlength=disks) >= n)
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
