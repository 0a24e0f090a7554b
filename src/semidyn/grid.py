"""Escape-time classification of complex-plane grids.

Each cell center is iterated under a map; a cell escapes when its iterate
leaves the escape disk within max_iter iterations (or overflows -- for
rapidly growing entire maps overflow is indistinguishable from
divergence), is bounded when it comes within 1e-6 of a reference
iterate, and is otherwise undecided at the iteration budget.  The
reference is z0 until step 1 and then the iterate at the last checkpoint
1, 2, 4, 8, ... (Brent 1980, BIT 20), which costs one compare per cell
and step.  A cycle of period p is caught once the orbit is on it and the
checkpoint spacing 2^j has reached p, within p steps of that checkpoint:
any period fits if max_iter allows, and a short one may be caught later
than by a window of recent iterates.  "Escaping" below always means this
finite test, not membership of the escaping set I(f) itself.

The Julia mask follows two theorems.  For every transcendental entire f,
J(f) is the boundary of I(f) (Eremenko 1989, "On the iteration of entire
functions"), so the mask holds the boundary of the escaping cells.  For f
in the Eremenko-Lyubich class B, I(f) lies in J(f) (Eremenko-Lyubich
1992, Ann. Inst. Fourier 42), so J(f) is the closure of I(f) and the
escaping cells join the mask.  This is what makes the mask of e^z, whose
escaping set is dense with empty interior, the whole window rather than
empty.  The Fatou mask is the complement.  Both inherit the finite
escape test's approximation.

A semigroup grid combines every word of up to word_depth letters, each
iterated as one map: a cell escapes if every word escapes it and is
bounded if some word bounds it; a map is one generator at depth 1.  The
grid is cut into 4 x workers row bands, run in this thread for one
worker and on one thread pool otherwise, and each band runs the words
over its rows, vectorised over the live cells only.  Five shortcuts keep
every bit.  The first: a cell that some word has bounded ends up bounded
whatever the other words do, so the words after it skip that cell.

The second is the paper's normal form, which writes a word as an element
of <Phi(S)> followed by generator powers: on <h, -h> with h even,
<Phi(S)> = {+-z} and g(-z) = g(z) for both generators, so the word
(w1, ..., wn) is +-h^n whatever its letters are.  Sign classes are the
generators that are one tree up to outer Negate nodes.  When
is_exactly_even proves every generator even bit for bit, the band
iterates only the words whose letters all name their sign class's first
generator.  Negate is exact and the letter applied after it is even, so a
later letter's sign vanishes bit for bit, and the first letter's sign
negates the word's values and nothing else: a dropped word iterates its
kept twin's values or their negation, with the same bad masks.  From step
2 on, the cycle test compares two iterates of one sign, so the twins
escape, settle and stay undecided alike.  At step 1 the negated twin
compares -z1 with z0, so a mirrored word, one whose first letter's class
has members of both parities, also settles the cells where |z1 + z0| is
below the tolerance.  A cell that either sign bounds is bounded whatever
the other words do, and the combination takes nothing else from a
duplicate.  The word budget still counts every word.

The third: power words ride their root's orbit.  A word w = r^m, r
primitive, has for its tree the chain of its letters' maps, which is r's
map applied m times, bit for bit, since a Compose runs its maps one at a
time and evaluation is elementwise.  So the band iterates each root's map
once, from z0, and tests each power m only at the orbit indices j = m k,
as w's step k.  Every power holds the same state from the start, w's own
reference, live cells and next checkpoint, and each orbit index decides
a cell in one place: a power whose step k = ceil(j / m) is still running
ends the cells where a bad bit falls, at step k, where w's own
evaluation sets it; a power at j = m k runs its escape test, its cycle
test and, for a mirrored root, the step-1 test of its negation.  A cell
that some power bounds leaves every power, and a cell leaves the orbit
when no power is still live on it.  On <h, -h> the band then evaluates h
on one orbit.  Per-cell results depend on nothing but the cell center,
so the assembled grid is bitwise identical for any worker count.

The fourth is the paper's transport by a commutator.  On <h, -h> with h
even, the commutator is N(z) = -z and N S N^{-1} = S, so N(I(S)) = I(S),
and the same holds for J(S) and F(S).  The finite test keeps this symmetry
bit for bit when every generator passes is_exactly_even, every root word
is mirrored, and the cell centres mirror: x[::-1] == -x and y[::-1] == -y
on the two axes that cell_centers builds from, so the cell flipped in both
axes from z0's holds -z0.  The step-0 test |z0| > R reads the same
magnitude at both cells.  Every word's tree is even, so its step-1 value
has the same bits at both, and from then on the two cells run one orbit
against the same references and checkpoints.  Only the step-1 cycle test
sees z0 itself, comparing z1 with z0 at one cell and with -z0 at the
other; a mirrored root compares it with both at each, which is symmetric.
So the bands cover rows [0, ceil(rows / 2)) and the other rows are that
block flipped in both axes; an odd middle row is computed in full.  A
centre on the imaginary axis has real part +0 at both cells, so there the
flipped cell holds -z0 but for the sign of a zero; evaluation carries such
a sign into zero parts only, and every test reads magnitudes.  A root that
is not mirrored, as in classify_map, <h> alone or <-h> alone, settles z0
at step 1 when z1 is near z0 and -z0 when z1 is near -z0, not both, so
there N fills in no cell.

The fifth is the reflection C(z) = conj(z), an isometry though not
holomorphic.  When every generator has real coefficients, C f C = f, so
C S C = S and the escaping, Julia and Fatou sets are symmetric about the
real axis (Poon 1998, Bull. Austral. Math. Soc. 58).  The finite test
keeps this symmetry when every generator passes is_exactly_real, which
proves that each word gives the conjugate's bits at conj(z0) but for the
sign of zero components, and y[::-1] == -y, so that the cell flipped in
rows from z0's holds conj(z0).  Every test reads a magnitude: |z0|, |z|,
|z - ref| and, for a mirrored root, |z + z0|, all of which conjugation
keeps.  So the bands cover rows [0, ceil(rows / 2)) and the other rows are
that block flipped in rows.  This needs no mirrored root, so it holds for
classify_map of a real map too.  When N applies as well, N C(z) = -conj(z)
flips the columns, and the bands cover the quarter of the grid in rows
[0, ceil(rows / 2)) and columns [0, ceil(cols / 2)): that block beside
its column flip gives the top rows, and those flipped in rows give the
rest.  An odd middle row or column is its own image and is computed in
full.

Transport by an affine phi is one plan a run, a Transport: each target
cell's source cell, the one holding phi^{-1} of its center, found by one
GridSpec.cell_index call (the inverse of cell_centers).  A grid or a mask
moves by a gather through it; a target cell whose preimage leaves the
source window becomes undecided in a grid and False in a mask.  Where the
preimage lies in the window, F is the complement of J, so the Fatou ratio
and the Fatou-invariance check read the one gathered Julia mask.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import chain, product as iter_product, repeat

import numpy as np

from .commutator import SemigroupPresentation
from .expr import (
    AffineMap,
    Expr,
    Negate,
    affine_inverse,
    complex_to_json,
    compose,
    eval_array,
    format_expr,
    is_class_b,
    is_exactly_even,
    is_exactly_real,
)
from .words import MAX_WORD_LENGTH

STATUS_UNDECIDED = 0
STATUS_BOUNDED = 1
STATUS_ESCAPING = 2

STATUS_NAMES = {
    STATUS_UNDECIDED: "undecided",
    STATUS_BOUNDED: "bounded",
    STATUS_ESCAPING: "escaping",
}

CYCLE_TOLERANCE = 1e-6
WORD_BUDGET = 4096
# the most cells a grid may have, so that a larger one fails here and not in
# an allocation mid-run; a 2048^2 render of example-2.1-cos peaks at 159 MiB
CELL_BUDGET = 4096 * 4096
# the most workers a grid may ask for, so that its 4 x workers row bands and
# its threads stay few; a larger count fails here and starts no thread
WORKER_CAP = 256
# the most steps a grid may iterate, 50 times the largest budget the
# fixtures use; a step of a 32^2 render of a rotation, whose cells never
# escape, takes about 80 us, so 10^9 steps would take a day
MAX_ITER_CAP = 10_000


class WordBudgetExceededError(RuntimeError):
    """Too many semigroup words for the enumeration budget."""


class SpecMismatchError(ValueError):
    """Grids with different specs cannot be compared."""


@dataclass(frozen=True)
class GridSpec:
    center: complex = 0j
    width: float = 4.0
    height: float = 4.0
    cols: int = 512
    rows: int = 512
    max_iter: int = 100
    escape_radius: float = 50.0
    word_depth: int = 2

    def __post_init__(self):
        if self.cols < 2 or self.rows < 2:
            raise ValueError("grid must be at least 2x2")
        if self.cols * self.rows > CELL_BUDGET:
            raise ValueError(f"grid over the budget of {CELL_BUDGET} cells")
        center = complex(self.center)
        if not all(map(math.isfinite, (center.real, center.imag, self.width,
                                       self.height, self.escape_radius))):
            raise ValueError("window and escape radius must be finite")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("window width and height must be > 0")
        if self.escape_radius <= 1:
            raise ValueError("escape radius must be > 1")
        if self.max_iter < 1 or self.word_depth < 1:
            raise ValueError("max_iter and word_depth must be >= 1")
        if self.max_iter > MAX_ITER_CAP:
            raise ValueError(f"max_iter over the cap of {MAX_ITER_CAP}, got {self.max_iter}")
        # one generator passes WORD_BUDGET at any depth, and a word holds a
        # map per letter: cap it at the longest word normal_form takes
        if self.word_depth > MAX_WORD_LENGTH:
            raise ValueError(f"word_depth must be <= {MAX_WORD_LENGTH}")

    def cell_centers(self, row0: int = 0, row1: int | None = None) -> np.ndarray:
        """Complex coordinates of cell centers for rows [row0, row1);
        row 0 is the top of the window (largest imaginary part)."""
        x, y = self._axes(row0, row1)
        return x[None, :] + 1j * y[:, None]

    def _axes(self, row0: int = 0, row1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The cell centers' real parts by column and imaginary parts by
        row, for rows [row0, row1)."""
        row1 = self.rows if row1 is None else row1
        xmin, ymax, dx, dy = self._geometry()
        x = xmin + (np.arange(self.cols) + 0.5) * dx
        y = ymax - (np.arange(row0, row1) + 0.5) * dy
        return x, y

    def cell_index(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (row, col) of the cell containing each point of z, and
        whether it lies in the window: the inverse of cell_centers.  Points
        outside the window, infinite or NaN get row and col -1."""
        xmin, ymax, dx, dy = self._geometry()
        with np.errstate(over="ignore"):  # far points: inf, hence invalid
            col = z.real - xmin
            col /= dx
            row = ymax - z.imag
            row /= dy
        np.floor(col, out=col)
        np.floor(row, out=row)
        valid = (col >= 0) & (col < self.cols) & (row >= 0) & (row < self.rows)
        invalid = ~valid
        col[invalid] = -1
        row[invalid] = -1
        # in-window values only, so no cast leaves int64's range; each step
        # works in place, since a transport indexes every target cell
        col = col.astype(np.int64)
        row = row.astype(np.int64)
        return row, col, valid

    def _geometry(self) -> tuple[float, float, float, float]:
        """Left edge, top edge, cell width and cell height."""
        return (self.center.real - self.width / 2, self.center.imag + self.height / 2,
                self.width / self.cols, self.height / self.rows)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "center": complex_to_json(self.center)}


@dataclass(frozen=True)
class ClassificationGrid:
    """Per-cell status and first escape iteration of one map or semigroup.

    ``class_b`` records that the escaping cells lie in the Julia set: the
    subject is a class-B map, or a semigroup with a class-B generator g,
    whose escaping cells escape under g, and I(g) lies in J(g), which lies
    in J(S).  It widens the Julia mask from the boundary of the escaping
    cells to that boundary plus the escaping cells themselves.
    """

    spec: GridSpec
    status: np.ndarray  # uint8, rows x cols
    escape_iter: np.ndarray  # int32, rows x cols, -1 where not escaping
    subject: str
    class_b: bool = False

    def counts(self) -> dict[str, int]:
        return {
            name: int((self.status == code).sum())
            for code, name in STATUS_NAMES.items()
        }

    @cached_property
    def _escape_boundary(self) -> np.ndarray:
        esc = self.status == STATUS_ESCAPING
        boundary = _dilate(esc) & _dilate(~esc)
        boundary.flags.writeable = False
        return boundary


# ---------------------------------------------------------------------------
# kernel


def _classify_band(roots, spec: GridSpec, cols: int, row0: int, row1: int):
    """Status and escape_iter over rows [row0, row1) and columns [0, cols)
    from the root words of iterated_words, as (tree, mirrored, powers)
    triples.  Each root's map is iterated once over the cells that no word
    has bounded, and each power m in ``powers`` is tested at the orbit
    indices j = m * k as the word r^m's step k, k = 1 .. max_iter.  Every power holds the same
    state from its first test on: its reference, its live cells and its
    next checkpoint.  At an index j inside r^m's step k = ceil(j / m), a
    bad bit ends the power on its cell at step k; at j = m * k the power
    runs its escape and cycle tests, and a mirrored root also bounds the
    cells where the power's negation settles at its step 1.  A cell stays
    on the orbit while some power is live on it and none has bounded it.
    One status array records each cell as it is decided, bounded after
    any undecided, since a bounded cell leaves every later orbit."""
    z0 = spec.cell_centers(row0, row1)[:, :cols].ravel()
    immediate = np.abs(z0) > spec.escape_radius
    esc = np.where(immediate, 0, -1).astype(np.int32)  # latest escape so far
    status = np.full(z0.size, STATUS_ESCAPING, dtype=np.uint8)
    for expr, mirrored, powers in roots:
        active = np.flatnonzero(~immediate & (status != STATUS_BOUNDED))
        # the reference is z0 until step 1, then the iterate at the last
        # checkpoint; eval_array neither writes into its input nor returns
        # its memory, so no reference is copied
        x = z0.take(active)
        state = {m: [x, np.ones(active.size, dtype=bool), 1] for m in powers}
        j = 0
        while state and active.size:
            j += 1
            x, bad = eval_array(expr, x)
            far = np.abs(x) > spec.escape_radius
            far |= bad
            done = np.zeros(active.size, dtype=bool)
            for m, st in list(state.items()):
                k = -(-j // m)  # r^m's step that index j falls in
                if j < m * k:
                    # a bad bit inside r^m's step k ends it there
                    hit = bad & st[1]
                    st[1] ^= hit
                else:
                    hit = far & st[1]
                    st[1] ^= hit
                    settled = np.abs(x - st[0]) < CYCLE_TOLERANCE
                    if mirrored and k == 1:
                        # -r^m's step 1 is -x, which the test compares with z0 too
                        settled |= np.abs(x + st[0]) < CYCLE_TOLERANCE
                    settled &= st[1]  # which has lost the far cells
                    st[1] ^= settled
                    done |= settled
                    if k == st[2]:
                        st[0], st[2] = x, 2 * k
                    if k == spec.max_iter:
                        status[active[st[1]]] = STATUS_UNDECIDED
                        del state[m]
                hit = active[hit]
                esc[hit] = np.maximum(esc.take(hit), k)
            status[active[done]] = STATUS_BOUNDED
            # a cell one power bounds leaves the others too
            keep = ~done
            keep &= np.logical_or.reduce([st[1] for st in state.values()])
            if not keep.all():
                rest = np.flatnonzero(keep)
                active, x = active.take(rest), x.take(rest)
                for st in state.values():
                    st[0], st[1] = st[0].take(rest), st[1].take(rest)

    esc[status != STATUS_ESCAPING] = -1
    return status.reshape(-1, cols), esc.reshape(-1, cols)


def resolve_workers(workers: int | None = None) -> int:
    """0 or None means auto, the CPUs this process may run on, at most
    WORKER_CAP."""
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    if workers is not None and workers > WORKER_CAP:
        raise ValueError(f"workers over the cap of {WORKER_CAP}, got {workers}")
    if workers:
        return workers
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return min(cpus or os.cpu_count() or 1, WORKER_CAP)


def enumerate_words(n_generators: int, word_depth: int) -> list[tuple[int, ...]]:
    if n_generators**word_depth > WORD_BUDGET:
        raise WordBudgetExceededError(
            f"{n_generators}^{word_depth} words exceeds budget {WORD_BUDGET}"
        )
    words = []
    for d in range(1, word_depth + 1):
        words.extend(iter_product(range(1, n_generators + 1), repeat=d))
    return words


def iterated_words(gens, word_depth: int) -> dict[tuple[int, ...], tuple[Expr, bool, tuple]]:
    """The words of up to word_depth letters that the kernel iterates or
    tests on a root's orbit, each mapped to (tree, mirrored, powers), in
    suffix-trie order (each word right after its suffix w[1:]).  That
    order puts each root before its powers, which are words it is a
    suffix of, and fixes the order in which the kernel runs the roots,
    hence which cells an earlier root has bounded and how many elements
    each later one evaluates.

    The words are all of them or, when every generator is exactly even,
    those whose letters all name the first generator of their sign class.
    tree is the word's composed map, the chain of its letters' maps.  A
    word is mirrored when its first letter's class has a member of the
    other parity: the word then stands also for its negation, which it
    iterates bit for bit but for the sign, so the two differ only in the
    step-1 cycle test.  powers lists the m for which the kernel tests w^m
    on w's orbit: 1 and each m > 1 for which w is primitive and w^m is a
    listed word.  w^m's tree is w's chain m times over, w's map applied m
    times, bit for bit, so w^m rides that orbit and lists no powers.  The
    word budget counts every word either way."""
    words = enumerate_words(len(gens), word_depth)
    mirrored = set()
    if all(map(is_exactly_even, gens)):
        classes = _sign_classes(gens)
        words = [w for w in words if all(classes[i - 1][0] == i - 1 for i in w)]
        mirrored = {c + 1 for c, odd in classes if odd != classes[c][1]}
    words.sort(key=lambda w: w[::-1])
    powers = {}
    for w in words:  # a root comes before its powers, a suffix of each
        root = _root(w)
        powers[w] = ()
        powers[root] += (len(w) // len(root),)
    return {w: (compose(*(gens[i - 1] for i in w)), w[0] in mirrored, powers[w])
            for w in words}


def _root(w: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest word r with w = r^m."""
    n = len(w)
    return next(w[:p] for p in range(1, n + 1) if n % p == 0 and w[:p] * (n // p) == w)


def _sign_classes(gens) -> list[tuple[int, bool]]:
    """For each generator, its sign class as the index of the class's first
    generator, and whether it has an odd number of outer Negate nodes.
    Generators whose trees without those nodes have the same text are the
    same map up to sign, bit for bit."""
    first, out = {}, []
    for i, g in enumerate(gens):
        odd = False
        while isinstance(g, Negate):
            g, odd = g.inner, not odd
        # text, not the tree: == ignores signed zeros that the bits keep
        out.append((first.setdefault(format_expr(g), i), odd))
    return out


def _classify(gens, word_depth: int, spec: GridSpec, workers: int):
    """Combined status and escape_iter of every word of up to word_depth
    letters, over 4 x workers row bands: in this thread for one worker or
    fewer than two rows a worker, else on one pool of ``workers`` threads,
    which run at once because numpy releases the GIL inside its loops.
    When N(z) = -z or C(z) = conj(z) maps the grid onto itself cell for
    cell (the fourth and fifth shortcuts of the module docstring), the
    bands cover the top ceil(rows / 2) rows, and when both do, the left
    ceil(cols / 2) columns of those; the rest is filled by flipping."""
    roots = [word for word in iterated_words(gens, word_depth).values() if word[2]]
    x, y = spec._axes()
    y_mirrors = np.array_equal(y[::-1], -y)
    # iterated_words mirrors a root only when every generator is exactly even
    mirror = all(word[1] for word in roots) and np.array_equal(x[::-1], -x) and y_mirrors
    real = all(map(is_exactly_real, gens)) and y_mirrors
    rows = -(-spec.rows // 2) if mirror or real else spec.rows
    cols = -(-spec.cols // 2) if mirror and real else spec.cols
    workers = resolve_workers(workers)
    bounds = np.unique(np.linspace(0, rows, 4 * workers + 1).astype(int)).tolist()
    band = partial(_classify_band, roots, spec, cols)
    # a one-thread pool made a 512^2 exp render 3% slower and 2.4 MiB larger;
    # under two rows a worker, a pool made 4^2 and 8^2 cos renders 12-22% slower
    if workers == 1 or rows < 2 * workers:
        parts = list(map(band, bounds[:-1], bounds[1:]))
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(band, bounds[:-1], bounds[1:]))
    status, esc = map(np.vstack, zip(*parts))
    # an odd middle row or column is its own mirror image, computed in full
    n, m = spec.rows - rows, spec.cols - cols
    if m:  # z -> -conj(z) flips the columns
        status, esc = (np.hstack([a, a[:, :m][:, ::-1]]) for a in (status, esc))
    if n:  # conj flips the rows alone, -z both axes
        flip = np.s_[::-1] if real else np.s_[::-1, ::-1]
        status, esc = (np.vstack([a, a[:n][flip]]) for a in (status, esc))
    return status, esc


def classify_map(f: Expr, spec: GridSpec, workers: int = 1) -> ClassificationGrid:
    status, esc = _classify((f,), 1, spec, workers)
    return ClassificationGrid(spec, status, esc, f"map:{format_expr(f)}", is_class_b(f))


def classify_semigroup(
    S: SemigroupPresentation, spec: GridSpec, workers: int = 1
) -> ClassificationGrid:
    """Escaping iff escaping under every word up to word_depth (each word
    iterated as a unit map); bounded if bounded under at least one."""
    status, esc = _classify(S.generators, spec.word_depth, spec, workers)
    subject = f"semigroup:{S.label};words<=%d" % spec.word_depth
    class_b = any(is_class_b(g) for g in S.generators)
    return ClassificationGrid(spec, status, esc, subject, class_b)


# ---------------------------------------------------------------------------
# boundary extraction and transport


def _dilate(mask: np.ndarray) -> np.ndarray:
    """mask OR-ed with its four one-cell shifts: the cells whose cross-shaped
    4-neighbourhood holds a True cell, where cells beyond the edge are False."""
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def escape_boundary(grid: ClassificationGrid) -> np.ndarray:
    """Cells whose cross-shaped 4-neighbourhood (the cell and the four that
    share a side with it) holds both escaping and non-escaping cells: the
    discrete boundary of I(f); cells beyond the edge count as neither.  Empty
    where every cell escapes, even when I(f) is dense with empty interior.
    Derived once per grid: each call returns the same read-only array."""
    return grid._escape_boundary


def extract_julia_boundary(grid: ClassificationGrid) -> np.ndarray:
    """Julia mask: the escape boundary (J(f) is the boundary of I(f),
    Eremenko 1989), plus the escaping cells when ``grid.class_b`` (I(f)
    lies in J(f) for class B, Eremenko-Lyubich 1992).  Escaping means
    leaving the disk within max_iter, so the mask shares that
    approximation.  Outside class B it is escape_boundary's read-only array."""
    mask = escape_boundary(grid)
    return mask | (grid.status == STATUS_ESCAPING) if grid.class_b else mask


def fatou_mask(grid: ClassificationGrid) -> np.ndarray:
    """Complement of the Julia mask: cells neither on the escape boundary
    nor, for a class-B grid, escaping."""
    return ~extract_julia_boundary(grid)


class Transport:
    """The preimage index of an affine phi from a source to a target grid:
    ``valid`` marks the target cells whose phi^{-1}(center) lies in the
    source window, and ``index`` holds the source cell of each, flat."""

    def __init__(self, source: GridSpec, phi: AffineMap, target: GridSpec):
        row, col, self.valid = source.cell_index(affine_inverse(phi)(target.cell_centers()))
        self.index = row[self.valid] * source.cols + col[self.valid]
        self.source, self.phi, self.target = source, phi, target

    def gather(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-cell values of the source grid moved to the target grid, with
        ``fill`` where the preimage leaves the source window."""
        if values.shape != (self.source.rows, self.source.cols):
            raise SpecMismatchError("values do not cover the source grid")
        out = np.full(self.valid.shape, fill, dtype=values.dtype)
        out[self.valid] = values.ravel().take(self.index)
        return out


def map_classification(grid: ClassificationGrid, plan: Transport) -> ClassificationGrid:
    """Transport a classification through a plan from its spec: a target
    cell takes the status of the source cell containing phi^{-1}(center);
    cells mapping outside the source window become undecided."""
    if grid.spec != plan.source:
        raise SpecMismatchError("grid is not on the plan's source spec")
    status = plan.gather(grid.status, STATUS_UNDECIDED)
    esc = plan.gather(grid.escape_iter, -1)
    subject = f"transported({grid.subject}; a={plan.phi.a!r}, b={plan.phi.b!r})"
    # affine conjugation preserves class B
    return ClassificationGrid(plan.target, status, esc, subject, grid.class_b)


def map_mask(mask: np.ndarray, plan: Transport) -> np.ndarray:
    """Transport a boolean cell mask; False off ``plan.valid``."""
    return plan.gather(mask, False)


@dataclass(frozen=True)
class ComparisonReport:
    ratio: float  # 0.0 and indeterminate when no cell is compared
    compared: int
    disagreement: np.ndarray
    # both sides are single-class over the cells read
    vacuous: bool

    @property
    def indeterminate(self) -> bool:
        return self.compared == 0


def compare_classifications(
    ga: ClassificationGrid, gb: ClassificationGrid
) -> ComparisonReport:
    """Agreement ratio over cells decided in both grids and outside the
    union of their escape boundaries dilated once by _dilate (boundary cells
    legitimately flip status at finite resolution; the escaping cells of a
    class-B grid do not, so they stay compared)."""
    if ga.spec != gb.spec:
        raise SpecMismatchError("grids have different specs")
    band = _dilate(escape_boundary(ga) | escape_boundary(gb))
    mask = (ga.status != STATUS_UNDECIDED) & (gb.status != STATUS_UNDECIDED) & ~band
    compared = int(mask.sum())
    if compared == 0:
        return ComparisonReport(0.0, 0, np.zeros_like(mask), True)
    disagree = mask & (ga.status != gb.status)
    ratio = 1.0 - disagree.sum() / compared
    vacuous = _single_class(ga.status[mask], gb.status[mask])
    return ComparisonReport(float(ratio), compared, disagree, vacuous)


def _single_class(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether each of two compared cell arrays holds one value throughout,
    so that their agreement ratio says nothing about where the classes lie
    (e.g. two class-B grids on which every cell escapes)."""
    return all(x.size == 0 or bool((x == x.flat[0]).all()) for x in (a, b))


def transport_ratios(
    grid_s: ClassificationGrid,
    grid_c: ClassificationGrid,
    phi: AffineMap,
    spec: GridSpec,
) -> tuple[tuple[ComparisonReport, ComparisonReport], dict[str, float], dict[str, bool]]:
    """Agreement of the I/J/F approximations of grid_s, transported by
    phi through one plan, with those of grid_c; all three grids on spec.

    Returns the escaping-set comparison with grid_s's Fatou-invariance
    check, the ratios keyed "escaping", "julia" and "fatou", and for each
    whether it is vacuous: computed between two single-class masks, so it
    passes without evidence.  The Julia ratio is over every cell, the
    Fatou ratio over the cells whose preimage lies in the window, where
    the Fatou masks are the complements of the Julia masks, so both ratios
    and the invariance check come from one Julia gather."""
    plan = Transport(grid_s.spec, phi, spec)
    rep = compare_classifications(map_classification(grid_s, plan), grid_c)
    julia_s = extract_julia_boundary(grid_s)
    jb_s = map_mask(julia_s, plan)
    jb_c = extract_julia_boundary(grid_c)
    valid = plan.valid
    agree = jb_s == jb_c
    ratios = {
        "escaping": rep.ratio,
        "julia": float(agree.mean()),
        "fatou": float(agree[valid].mean()) if valid.any() else 0.0,
    }
    vacuous = {
        "escaping": rep.vacuous,
        "julia": _single_class(jb_s, jb_c),
        "fatou": _single_class(jb_s[valid], jb_c[valid]),
    }
    return (rep, check_fatou_invariance(julia_s, jb_s, plan)), ratios, vacuous


def check_fatou_invariance(
    julia: np.ndarray, moved: np.ndarray, plan: Transport
) -> ComparisonReport:
    """Grid-level check that phi maps the Fatou approximation onto itself:
    the share of Fatou cells with a preimage in the window whose preimage
    is Fatou too, from a grid's Julia mask and that mask ``moved`` through
    ``plan``, from its window onto itself; F is the complement of J there.
    Indeterminate when no cell is compared (e.g. every cell of a class-B
    grid escapes, so F is empty)."""
    if plan.source != plan.target:
        raise SpecMismatchError("Fatou invariance needs a plan from a window onto itself")
    valid = plan.valid
    compare = valid & ~julia
    n = int(compare.sum())
    ratio = float((compare & ~moved).sum() / n) if n else 0.0
    vacuous = _single_class(julia[valid], moved[valid])
    return ComparisonReport(ratio, n, compare & moved, vacuous)


# ---------------------------------------------------------------------------
# artifact emission


def status_bytes(grid: ClassificationGrid) -> np.ndarray:
    out = np.full(grid.status.shape, 128, dtype=np.uint8)
    out[grid.status == STATUS_ESCAPING] = 255
    out[grid.status == STATUS_BOUNDED] = 0
    return out


def heatmap_bytes(grid: ClassificationGrid) -> np.ndarray:
    """Escape iteration scaled to 0-254; non-escaping cells are 255."""
    # entries up to the last escape step only, so max_iter sizes no array
    top = int(grid.escape_iter.max())
    table = np.full(top + 2, 255, dtype=np.uint8)
    table[1:] = np.clip(np.round(np.arange(top + 1) * 254.0 / grid.spec.max_iter), 0, 254)
    return table[grid.escape_iter + 1]


def write_pgm(path: str, data: np.ndarray, comment: str | None = None) -> None:
    rows, cols = data.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        if comment:
            fh.write(f"# {comment}\n".encode("ascii"))
        fh.write(f"{cols} {rows}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(data, dtype=np.uint8).tobytes())


def write_csv(path: str, grid: ClassificationGrid) -> None:
    centers = grid.spec.cell_centers()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im", "status", "first_escape_iter"])
        names = np.array([STATUS_NAMES[k] for k in range(len(STATUS_NAMES))])

        def row(r):  # a row at a time, so no grid-sized list is built
            cells = (centers[r].real, centers[r].imag, names[grid.status[r]],
                     grid.escape_iter[r])
            return zip(repeat(r), range(grid.spec.cols), *(a.tolist() for a in cells))

        writer.writerows(chain.from_iterable(map(row, range(grid.spec.rows))))
