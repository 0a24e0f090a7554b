import cmath
import hashlib
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidyn.commutator import SemigroupPresentation, build_commutator_table
from semidyn.expr import (
    AffineMap,
    Cos,
    Exp,
    Identity,
    Negate,
    Power,
    Sin,
    Sum,
    Const,
    Product,
    affine_inverse,
    compose,
    eval_array,
    format_expr,
    is_class_b,
    is_exactly_even,
    parse_expr,
)
import semidyn.grid as grid
from semidyn.cli import main
from semidyn.fixtures import FIXTURES
from semidyn.grid import (
    CELL_BUDGET,
    STATUS_BOUNDED,
    STATUS_ESCAPING,
    STATUS_NAMES,
    STATUS_UNDECIDED,
    ClassificationGrid,
    GridSpec,
    SpecMismatchError,
    Transport,
    WordBudgetExceededError,
    check_fatou_invariance,
    classify_map,
    classify_semigroup,
    compare_classifications,
    enumerate_words,
    escape_boundary,
    extract_julia_boundary,
    fatou_mask,
    heatmap_bytes,
    iterated_words,
    map_classification,
    map_mask,
    resolve_workers,
    status_bytes,
    transport_ratios,
    write_csv,
    write_pgm,
)

Z = Identity()


def small_spec(**kwargs):
    defaults = dict(center=0j, width=8.0, height=8.0, cols=64, rows=64)
    defaults.update(kwargs)
    return GridSpec(**defaults)


def cell_index_of(spec, z):
    dx = spec.width / spec.cols
    dy = spec.height / spec.rows
    col = int((z.real - (spec.center.real - spec.width / 2)) // dx)
    row = int(((spec.center.imag + spec.height / 2) - z.imag) // dy)
    return row, col


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(cols=1)
        with pytest.raises(ValueError):
            GridSpec(escape_radius=0.5)
        with pytest.raises(ValueError):
            GridSpec(max_iter=0)

    def test_cell_budget(self):
        # criterion 7's 1024^2 grid and the fixtures' 512^2 fit; a grid too
        # large for memory once ended in numpy's allocation error, mid-run
        assert 512 * 512 < 1024 * 1024 <= CELL_BUDGET
        GridSpec(cols=4096, rows=CELL_BUDGET // 4096)
        with pytest.raises(ValueError, match=f"over the budget of {CELL_BUDGET} cells"):
            GridSpec(cols=4097, rows=CELL_BUDGET // 4096)
        with pytest.raises(ValueError):
            GridSpec(cols=100000, rows=100000)

    @pytest.mark.parametrize("side", ["width", "height"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_degenerate_window_rejected(self, side, value):
        with pytest.raises(ValueError):
            GridSpec(**{side: value})

    def test_cell_centers_orientation(self):
        spec = small_spec(cols=4, rows=4)
        centers = spec.cell_centers()
        assert centers[0, 0].imag > centers[-1, 0].imag  # row 0 on top
        assert centers[0, 0].real < centers[0, -1].real

    def test_cell_index_inverts_cell_centers(self):
        spec = small_spec(center=0.3 - 1.1j, width=5.0, height=3.0, cols=7, rows=5)
        row, col, valid = spec.cell_index(spec.cell_centers())
        assert valid.all()
        assert np.array_equal(row, np.repeat(np.arange(5)[:, None], 7, axis=1))
        assert np.array_equal(col, np.repeat(np.arange(7)[None, :], 5, axis=0))

    def test_cell_index_outside_window_is_invalid(self):
        spec = small_spec(cols=4, rows=4)
        points = np.array([-4.5 + 0j, 4.5 + 0j, 4.5j, -4.5j, 3.9 - 3.9j])
        row, col, valid = spec.cell_index(points)
        assert valid.tolist() == [False, False, False, False, True]
        assert (row[-1], col[-1]) == cell_index_of(spec, points[-1]) == (3, 3)

    def test_cell_index_far_infinite_and_nan_points_are_invalid(self):
        spec = small_spec(cols=4, rows=4)
        inf, nan = math.inf, math.nan
        points = np.array([4e301 + 0j, -4e301j, 1e300 + 1e300j, complex(inf, 0),
                           complex(0, -inf), complex(nan, 0), complex(0, nan), 1 + 1j])
        # cells half a unit wide: the offset of a finite point over the
        # cell width overflows
        narrow = small_spec(cols=16, rows=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, col, valid = spec.cell_index(points)
            far = narrow.cell_index(np.array([1.7e308 + 0j]))
        assert valid.tolist() == [False] * 7 + [True]
        assert (row[:-1] == -1).all() and (col[:-1] == -1).all()
        assert (row[-1], col[-1]) == cell_index_of(spec, points[-1]) == (1, 2)
        assert [a.tolist() for a in far] == [[-1], [-1], [False]]


class TestClassifyMap:
    def test_exp_escapes_fast_at_one(self):
        # oracle: 1, e, e^e ~ 15.15, e^15.15 > 50
        orbit = [1.0]
        while abs(orbit[-1]) <= 50:
            orbit.append(cmath.exp(orbit[-1]))
        expected_iter = len(orbit) - 1
        assert expected_iter <= 5

        spec = small_spec(cols=8, rows=8, width=0.01, height=0.01, center=1 + 0j)
        g = classify_map(Exp(Z), spec)
        assert (g.status == STATUS_ESCAPING).all()
        assert g.escape_iter.max() <= 5

    def test_cos_bounded_at_half(self):
        spec = small_spec(cols=8, rows=8, width=0.01, height=0.01, center=0.5 + 0j)
        g = classify_map(Cos(Z), spec)
        assert (g.status == STATUS_BOUNDED).all()

    def test_outside_escape_radius_is_immediate(self):
        spec = GridSpec(center=100 + 0j, width=1, height=1, cols=4, rows=4,
                        escape_radius=50)
        g = classify_map(Cos(Z), spec)
        assert (g.status == STATUS_ESCAPING).all()
        assert (g.escape_iter == 0).all()

    def test_deterministic_across_workers(self):
        spec = small_spec(cols=96, rows=96)
        g1 = classify_map(Exp(Z), spec, workers=1)
        g2 = classify_map(Exp(Z), spec, workers=3)
        assert np.array_equal(g1.status, g2.status)
        assert np.array_equal(g1.escape_iter, g2.escape_iter)

    def test_monotone_in_max_iter(self):
        spec = small_spec(max_iter=20)
        g1 = classify_map(Cos(Z), spec)
        from dataclasses import replace

        g2 = classify_map(Cos(Z), replace(spec, max_iter=40))
        esc1 = g1.status == STATUS_ESCAPING
        assert not (esc1 & (g2.status == STATUS_BOUNDED)).any()
        # decisions only increase
        assert ((g2.status != STATUS_UNDECIDED) | (g1.status == STATUS_UNDECIDED)).all()

    def test_negation_is_bounded_off_origin(self):
        spec = small_spec(cols=8, rows=8, width=0.01, height=0.01, center=1 + 1j)
        g = classify_map(Negate(Z), spec)
        assert (g.status == STATUS_BOUNDED).all()

    def test_period_20_rotation_is_bounded(self):
        # the orbit returns to the step-32 reference at step 52
        spec = small_spec(cols=8, rows=8, width=0.01, height=0.01, center=1 + 1j)
        g = classify_map(AffineMap(cmath.exp(2j * cmath.pi / 20), 0j), spec)
        assert (g.status == STATUS_BOUNDED).all()

    def test_period_40_rotation_is_undecided(self):
        # a period-40 orbit returns to the step-64 reference only at step
        # 104, past max_iter
        spec = small_spec(cols=8, rows=8, width=0.01, height=0.01, center=1 + 1j,
                          max_iter=100)
        g = classify_map(AffineMap(cmath.exp(2j * cmath.pi / 40), 0j), spec)
        assert (g.status == STATUS_UNDECIDED).all()


class TestKernelDigests:
    """sha256 of status.tobytes() and escape_iter.tobytes() of
    classify_semigroup on each fixture's window at 128x128, with the
    fixture's max_iter.  Recorded at commit 09fd2e2, with the kernel that
    compared each iterate against a sliding window of the last 16; the
    checkpoint detector that replaced it decides every cell the same way
    on these windows."""

    DIGESTS = {
        "example-2.1-exp": (
            "746664dba900c81ef311c8456e15b02a5efeee3736a4f3827ce1eb1e0c24d8da",
            "f162540bc614cd8b38b2094d6fe0a0348eafc340f498ee70dfdc4cd83808a376",
        ),
        "example-2.1-cos": (
            "e75d8393b4ce978ee9e6c76b2895b1e0c4bd1991c0ab638ce3549848259783de",
            "e6ee56c4bdfd88c5b889b111dba489f89f0a79766d0d7ac14b55a208a6e36197",
        ),
        "derived-exp-shift": (
            "746664dba900c81ef311c8456e15b02a5efeee3736a4f3827ce1eb1e0c24d8da",
            "94339796e79a7ff9b0c46bd5abf130974ef6b188fb724adf94a20f862be4d3b5",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_semigroup_grid_matches_recorded_digest(self, name):
        fx = FIXTURES[name]
        spec = replace(fx.window, cols=128, rows=128)
        g = classify_semigroup(fx.presentation, spec)
        digests = (
            hashlib.sha256(g.status.tobytes()).hexdigest(),
            hashlib.sha256(g.escape_iter.tobytes()).hexdigest(),
        )
        assert digests == self.DIGESTS[name]

    # classify_map on node kinds the fixtures never reach, recorded at
    # a85b6dc, before evaluation wrote into its children's arrays
    MAP_SPEC = GridSpec(center=0.5 + 0.25j, width=8.0, height=6.0,
                        cols=96, rows=80, max_iter=60)
    MAP_DIGESTS = {
        "mul(const(0.3+0i), sin(z))": (
            "a5e628d44fbba094af2e146b35bd8802c1b8a12500fbe9451f241a152c72662b",
            "1a2f1fc3301992d281ade3278c7db9769c5b2ddc26a9158afa69ca769c9ddffb",
        ),
        "add(z, const(1+0i), exp(neg(z)))": (
            "9efec4774036989cc3f98064342f1387716ba8301938ee66d686c68433be0ba3",
            "5bab079c18a7647e15090e955ced14fb8d49e0b07bfd675ba65184c4019172fb",
        ),
        "compose(exp(z), affine(0.5+0.5i, 0.1-0.2i))": (
            "6866ff83183aae5ebc9aedd5056cc21415267cded4df9246042c7139d3df0141",
            "2492ff717eb092ccbdb30c9cf8143093dfc370bed3b352ae43daf4cbcd999796",
        ),
        "pow(z, 3)": (
            "f57f31d02e0064b78ba1ec4e9e1b76fea917c36a85c48626246a7697afd6a7fb",
            "62126aef7af217b87015fbfbb45e5048ff456d17a82dfac041043c910280074f",
        ),
        # the constant is over the ceiling, so every cell overflows at step 1
        "add(z, const(1e200+0i))": (
            "9efec4774036989cc3f98064342f1387716ba8301938ee66d686c68433be0ba3",
            "9ea25bdf064d0741b0df0d8a2375d9a802c01ab5f063505ef00ae172f1292a9a",
        ),
    }

    @pytest.mark.parametrize("text", sorted(MAP_DIGESTS))
    def test_map_grid_matches_recorded_digest(self, text):
        g = classify_map(parse_expr(text), self.MAP_SPEC)
        digests = (
            hashlib.sha256(g.status.tobytes()).hexdigest(),
            hashlib.sha256(g.escape_iter.tobytes()).hexdigest(),
        )
        assert digests == self.MAP_DIGESTS[text]


class TestClassifySemigroup:
    def test_single_generator_depth_one_matches_map(self):
        f = Cos(Z)
        S = SemigroupPresentation((f,), label="single")
        spec = small_spec(word_depth=1)
        gm = classify_map(f, spec)
        gs = classify_semigroup(S, spec)
        assert np.array_equal(gm.status, gs.status)
        assert np.array_equal(gm.escape_iter, gs.escape_iter)

    def test_escaping_requires_all_words(self):
        fx = FIXTURES["example-2.1-cos"]
        spec = small_spec(word_depth=2)
        gs = classify_semigroup(fx.presentation, spec)
        for i in (1, 2):
            gm = classify_map(fx.presentation.generator(i), spec)
            esc_s = gs.status == STATUS_ESCAPING
            esc_m = gm.status == STATUS_ESCAPING
            assert (esc_s <= esc_m).all()  # subset

    def test_exp_pair_agrees_with_single_map(self):
        fx = FIXTURES["example-2.1-exp"]
        spec = small_spec(cols=128, rows=128, word_depth=2)
        gs = classify_semigroup(fx.presentation, spec)
        gm = classify_map(fx.presentation.generator(1), spec)
        both = (gs.status != STATUS_UNDECIDED) & (gm.status != STATUS_UNDECIDED)
        agree = (gs.status == gm.status) & both
        assert agree.sum() / both.sum() >= 0.99

    def test_word_budget(self):
        fx = FIXTURES["example-2.1-cos"]
        spec = small_spec(word_depth=13)  # 2^13 > 4096
        with pytest.raises(WordBudgetExceededError):
            classify_semigroup(fx.presentation, spec)
        assert len(enumerate_words(2, 2)) == 6

    def test_word_budget_counts_words_not_iterated(self):
        # the kernel would iterate 13 words of the exp fixture at depth 13
        fx = FIXTURES["example-2.1-exp"]
        with pytest.raises(WordBudgetExceededError):
            classify_semigroup(fx.presentation, small_spec(word_depth=13))


def per_word_reference(S, spec):
    """classify_semigroup as a loop over the words: one band over the whole
    window for each word's composed tree, as an unmirrored root with no
    powers, combined by AND (escaping), OR (bounded) and max (escape_iter).
    No word is evaluated as a sign class or on another's orbit, and no cell
    is filled in by a symmetry of the grid."""
    grids = []
    for w in enumerate_words(len(S), spec.word_depth):
        expr = S.generator(w[-1])
        for i in reversed(w[:-1]):
            expr = compose(S.generator(i), expr)
        grids.append(grid._classify_band([(expr, False, (1,))], spec, spec.cols, 0, spec.rows))
    escaping_all = np.logical_and.reduce([status == STATUS_ESCAPING for status, _ in grids])
    bounded_any = np.logical_or.reduce([status == STATUS_BOUNDED for status, _ in grids])
    esc_iter = np.maximum.reduce([esc for _, esc in grids])
    status = np.zeros((spec.rows, spec.cols), dtype=np.uint8)
    status[bounded_any] = STATUS_BOUNDED
    status[escaping_all] = STATUS_ESCAPING
    return status, np.where(escaping_all, esc_iter, -1).astype(np.int32)


# eval_array elements of classify_semigroup on example-2.1-cos at 64 x 64;
# 145964 when each sibling word evaluated its own generator at step 1,
# 140060 when each power word iterated its own tree, and 135172 when
# sibling words took their step-1 values from a shared suffix, and 141076
# before the kernel classified the top half of the rows of a real map alone
KERNEL_ELEMENTS = 70538

# elements h is evaluated on by classify_semigroup on example-2.1-exp at
# 64 x 64, depths 1-3; 13528, 27552 and 41868 when h, h o h and h o h o h
# each iterated their own tree, 13528, 18120 and 22176 when the kernel
# classified every row, not the top half alone, and 6764, 9060 and 11088
# before it classified the left half of the top half alone
H_ELEMENTS = [3382, 4530, 5544]

EXP_H = FIXTURES["example-2.1-exp"].presentation.generator(1)
THREE = SemigroupPresentation((Cos(Z), Sin(Z), Negate(Cos(Z))), label="three")
THREE_SPEC = GridSpec(center=0.5j, width=8.0, height=6.0, cols=40, rows=30,
                      max_iter=40, word_depth=2)


def mirror_h(spec, cell):
    """h = e^{z^2} + c, exactly even, with -h(z0) = z0 - 9e-7 at the centre
    z0 of ``cell``, so that h(z0) = -z0 + 9e-7."""
    z0 = spec.cell_centers()[cell]
    return Sum((Exp(Power(Z, 2)), Const(-z0 - cmath.exp(z0**2) + 9e-7)))


def mirrored_pair(spec, cell):
    h = mirror_h(spec, cell)
    return SemigroupPresentation((h, Negate(h)), label="mirrored")


MIRROR_CELL = (16, 25)
MIRROR_H = mirror_h(THREE_SPEC, MIRROR_CELL)
# windows centred at 0 with cell size 1/8, whose cell centres N(z) = -z
# maps onto cell centres bit for bit, with an even and an odd row count,
# each with a cell for mirror_h that h alone and -h alone decide otherwise
# than the cell at its negation
MIRROR_WINDOWS = {
    "even": (GridSpec(width=8.0, height=8.0, cols=64, rows=64, max_iter=40,
                      escape_radius=3.0), (27, 38)),
    "odd": (GridSpec(width=7.875, height=7.875, cols=63, rows=63, max_iter=40,
                     escape_radius=3.0), (21, 38)),
}
# 0.3 e^{z^2} is real and exactly even, and 0.3 e^z real but not even;
# each has an attracting fixed point near 0.35, so that on these windows
# bounded cells lie next to escaping ones
REAL_H = Product((Const(0.3), Exp(Power(Z, 2))))
REAL_PAIR = SemigroupPresentation((REAL_H, Negate(REAL_H)), label="real-pair")
REAL_ROOT = SemigroupPresentation((Product((Const(0.3), Exp(Z))),), label="real-root")


def window(rows, cols, center=0j, word_depth=2):
    """A window of cell size 1/8 at ``center``: its cell centres mirror in
    both axes bit for bit when the centre is 0, and in rows alone when it is
    elsewhere on the real axis."""
    return GridSpec(center=center, width=cols / 8, height=rows / 8, cols=cols, rows=rows,
                    max_iter=40, escape_radius=3.0, word_depth=word_depth)


def half(n):
    return -(-n // 2)


# the block of rows [0, r) and columns [0, c) that the kernel classifies on
# the cases where a symmetry fills in the rest of the grid: C(z) = conj(z)
# alone flips the rows of real generators on a window centred on the real
# axis, N(z) = -z alone flips both axes of <h, -h> with h exactly even on a
# window centred at 0, and both together leave a quarter
SYMMETRY_BLOCKS = {
    **{f"mirrored-window-{parity}-depth{d}": (half(spec.rows), spec.cols)
       for parity, (spec, _) in MIRROR_WINDOWS.items() for d in (1, 2, 3)},
    **{f"real-root-{r}x64": (half(r), 64) for r in (63, 64)},
    **{f"real-pair-off-centre-{r}x64": (half(r), 64) for r in (63, 64)},
    **{f"real-pair-{r}x{c}": (half(r), half(c)) for r in (63, 64) for c in (63, 64)},
}

KERNEL_CASES = {
    **{
        f"{name}-depth{d}": (fx.presentation,
                             replace(fx.window, cols=40, rows=30, word_depth=d))
        for name, fx in sorted(FIXTURES.items())
        for d in (1, 2, 3)
    },
    # a two-letter root, (1, 2, 1, 2) = (1, 2)^2, and words that extend
    # power words, such as (2, 1, 1) after (1, 1)
    "example-2.1-cos-depth4": (FIXTURES["example-2.1-cos"].presentation,
                               replace(FIXTURES["example-2.1-cos"].window, cols=40,
                                       rows=30, word_depth=4)),
    # with max_iter 3, h^3 tests its steps at orbit indices 3, 6 and 9, past
    # the 3 steps of its root h
    "powers-past-the-root-budget": (FIXTURES["example-2.1-cos"].presentation,
                                    replace(FIXTURES["example-2.1-cos"].window, cols=40,
                                            rows=30, word_depth=3, max_iter=3)),
    # 0.1 sin z contracts tenfold a step towards 0: with max_iter 3, h o h o h
    # compares x9 with its step-2 checkpoint x6 and bounds the cells with
    # |z0| below about 1, which h alone leaves undecided (x3 would be too far)
    "power-checkpoints": (SemigroupPresentation((Product((Const(0.1), Sin(Z))),),
                                                label="contraction"),
                          replace(THREE_SPEC, word_depth=3, max_iter=3)),
    # h = e^{400 - 100 z^2} near z = 1.99: h(z0) is past the escape radius 3,
    # h(h(z0)) is about 0 and h at 0 overflows, so the bad bit at orbit
    # index 3 ends h o h at its step 2, after h has escaped at step 1
    "power-ends-inside-its-step": (
        SemigroupPresentation((Exp(Sum((Const(400), Product((Const(-100), Power(Z, 2)))))),),
                              label="gauss"),
        replace(THREE_SPEC, center=1.99 + 0j, width=0.05, height=0.05, escape_radius=3.0)),
    # three generators with cells no word decides
    "three-undecided": (THREE, THREE_SPEC),
    # a 12-wide window with escape radius 3: its corners escape at step 0
    "three-immediate": (THREE, replace(THREE_SPEC, width=12.0, height=12.0,
                                       escape_radius=3.0)),
    # exp overflows at step 1 where Re z > 345, so cos after exp overflows
    # inside its own step 1
    "exp-overflow": (SemigroupPresentation((Exp(Z), Cos(Z)), label="exp-cos"),
                     replace(THREE_SPEC, width=1600.0, height=1600.0,
                             escape_radius=1000.0)),
    # sign classes without evenness, at depths 1-3: the class of e^z has
    # no un-negated member, and cos z is in no class.  With escape radius
    # 3, a step-1 value of the wrong sign changes the grids at depths 1
    # and 2
    **{
        f"uneven-sign-classes-depth{d}": (SemigroupPresentation(
            (Negate(Exp(Z)), Negate(Negate(Exp(Z))), Cos(Z)), label="uneven-classes"),
            replace(THREE_SPEC, word_depth=d, escape_radius=3.0))
        for d in (1, 2, 3)
    },
    # two sign classes of exactly even maps, one generator a double
    # negation: the kernel iterates 6 of the 20 words
    "even-sign-classes": (SemigroupPresentation(
        (EXP_H, Negate(Cos(Power(Z, 2))), Cos(Power(Z, 2)), Negate(Negate(EXP_H))),
        label="even-classes"), THREE_SPEC),
    # compose folds 1.5z - 1.5e8 after z + 1e8 into 1.5z, which reaches the
    # escape radius 3 at step 1 or 2 on this window; applying the two maps
    # in turn rounds z + 1e8 and moves some cells across
    "affine-folding": (SemigroupPresentation(
        (AffineMap(1, 1e8), AffineMap(1.5, -1.5e8)),
        label="affine", require_transcendental=False),
        replace(THREE_SPEC, center=2 + 0j, width=1e-7, height=1e-7,
                escape_radius=3.0)),
    # <h, -h> with h = e^{z^2} + c exactly even, where -h(z0) = z0 - 9e-7 at
    # the centre z0 of cell MIRROR_CELL: -h settles that cell at step 1,
    # and h, which the kernel iterates for both, does not (|h'(z0)| is
    # about 7.2, so the fixed point near -z0 repels)
    **{
        f"mirrored-step-one-depth{d}": (
            SemigroupPresentation((MIRROR_H, Negate(MIRROR_H)), label="mirrored"),
            replace(THREE_SPEC, word_depth=d, escape_radius=3.0))
        for d in (1, 2, 3)
    },
    # the same construction on a window that N(z) = -z maps onto itself:
    # the kernel classifies the top half of the rows and flips it
    **{
        f"mirrored-window-{parity}-depth{d}": (mirrored_pair(spec, cell),
                                               replace(spec, word_depth=d))
        for parity, (spec, cell) in sorted(MIRROR_WINDOWS.items())
        for d in (1, 2, 3)
    },
    # a real map alone on windows centred at 0.75 on the real axis, with
    # an odd and an even row count: C fixes the grid, N does not
    **{f"real-root-{r}x64": (REAL_ROOT, window(r, 64, 0.75, word_depth=1)) for r in (63, 64)},
    # a real, exactly even pair off the imaginary axis: C fixes the grid,
    # N(z) = -z maps the window elsewhere
    **{f"real-pair-off-centre-{r}x64": (REAL_PAIR, window(r, 64, 0.75)) for r in (63, 64)},
    # the same pair centred at 0, with odd and even rows and columns: C and
    # N both fix the grid, which the kernel assembles from a quarter
    **{f"real-pair-{r}x{c}": (REAL_PAIR, window(r, c)) for r in (63, 64) for c in (63, 64)},
}


def trie_order(words):
    return sorted(words, key=lambda w: w[::-1])


COEFFS = st.sampled_from([0.1, 0.5, -0.4 + 0.3j, 1.0, 2.0, 1j, 3.0])
REAL_COEFFS = st.sampled_from([0.1, 0.5, -0.4, 1.0, 2.0, -1.0, 3.0])


def small_maps(coeffs):
    """Maps of a few nodes with coefficients from ``coeffs``, under which
    some cells of a small window escape, overflow, settle on a cycle or stay
    undecided within a few steps."""
    return st.recursive(
        st.one_of(st.sampled_from([Z, Power(Z, 2)]), st.builds(AffineMap, coeffs, coeffs)),
        lambda inner: st.one_of(
            st.builds(Exp, inner),
            st.builds(Cos, inner),
            st.builds(Sin, inner),
            st.builds(Power, inner, st.just(2)),
            st.builds(lambda a, t: Product((Const(a), t)), coeffs, inner),
            st.builds(lambda t, b: Sum((t, Const(b))), inner, coeffs),
            st.builds(compose, inner, inner),
        ),
        max_leaves=3,
    )


def even_pairs(maps):
    """<g, -g> with g = f(z^2) exactly even, so that the kernel iterates one
    word per sign class."""
    return maps.map(lambda f: compose(f, Power(Z, 2))).map(lambda g: [g, Negate(g)])


def generator_sets(maps):
    """Free generators, sign pairs and exactly even pairs."""
    return st.one_of(st.lists(maps, min_size=1, max_size=3),
                     maps.map(lambda g: [g, Negate(g)]), even_pairs(maps))


SMALL_MAPS = small_maps(COEFFS)
EVEN_PAIRS = even_pairs(SMALL_MAPS)
RANDOM_GENERATORS = generator_sets(SMALL_MAPS)


def small_windows(center, width):
    """About 10 x 8 cells, with every budget the kernel branches on small."""
    return st.builds(
        lambda c, w, r, d, n: GridSpec(center=c, width=w, height=0.8 * w, cols=10,
                                       rows=8, escape_radius=r, word_depth=d,
                                       max_iter=n),
        center, width, st.floats(2.0, 8.0), st.integers(1, 3), st.integers(1, 6))


@st.composite
def centred_windows(draw):
    """Windows centred at 0 with a dyadic cell size and 5-11 columns and
    rows of either parity, whose cell centres N(z) = -z maps onto cell
    centres bit for bit, with every budget the kernel branches on small."""
    size = 2.0 ** -draw(st.integers(0, 4))
    cols, rows = draw(st.integers(5, 11)), draw(st.integers(5, 11))
    return GridSpec(width=cols * size, height=rows * size, cols=cols, rows=rows,
                    escape_radius=draw(st.floats(2.0, 8.0)),
                    word_depth=draw(st.integers(1, 3)), max_iter=draw(st.integers(1, 6)))


@st.composite
def real_axis_windows(draw):
    """centred_windows moved along the real axis by a whole number of cells,
    0 included: C(z) = conj(z) maps the centres of their rows onto each
    other bit for bit, and N(z) = -z maps their cells onto cells at 0 alone."""
    spec = draw(centred_windows())
    return replace(spec, center=draw(st.integers(-4, 4)) * spec.width / spec.cols)


@st.composite
def mirrored_pairs(draw, windows):
    """<h, -h> with h = e^{z^2} + c exactly even, built as MIRROR_H is, so
    that -h(z0) lies within 1e-6 of a drawn cell centre z0 and h(z0) near
    -z0: only the mirrored step-1 test settles that cell at step 1."""
    spec = draw(windows)
    z0 = complex(spec.cell_centers()[draw(st.integers(0, spec.rows - 1)),
                                     draw(st.integers(0, spec.cols - 1))])
    shift = complex(draw(st.floats(-6e-7, 6e-7)), draw(st.floats(-6e-7, 6e-7)))
    h = Sum((Exp(Power(Z, 2)), Const(-z0 - cmath.exp(z0**2) + shift)))
    return [h, Negate(h)], spec


@st.composite
def gaussian_bumps(draw):
    """e^{A - B z^2} on a 0.05-wide window at sqrt(A / B), as in
    power-ends-inside-its-step: h escapes, h(h) is near 0 and h overflows
    there (A > 345), so a bad bit falls inside a power's step."""
    a, b = draw(st.floats(350.0, 700.0)), draw(st.floats(50.0, 200.0))
    h = Exp(Sum((Const(a), Product((Const(-b), Power(Z, 2))))))
    return [h], draw(small_windows(st.just(complex(math.sqrt(a / b))), st.just(0.05)))


@st.composite
def centred_cases(draw):
    """Generators on a centred window: a random exactly even pair <g, -g>,
    whose grid the kernel fills from its top half, or from a quarter when g
    has real coefficients, or a pair from mirrored_pairs, or one of its
    generators alone.  h alone settles -z0 at step 1 and -h alone z0, and
    neither root is mirrored, so their grids need not be symmetric and the
    kernel must classify every row."""
    spec = draw(centred_windows())
    if draw(st.booleans()):
        return draw(EVEN_PAIRS), spec
    pair, _ = draw(mirrored_pairs(st.just(spec)))
    return draw(st.sampled_from([pair, pair[:1], pair[1:]])), spec


class TestWordQuotient:
    """When every generator is exactly even, a word's letters matter only
    up to sign, and the first letter's sign only in the step-1 cycle test,
    so the kernel iterates one word per sign class; the per-word references
    in KERNEL_CASES (the exp fixture at depths 1-3, even-sign-classes,
    mirrored-step-one) check the grids bit for bit."""

    ACCEPTED = [EXP_H, Negate(EXP_H), Power(Z, 2), Const(3 + 1j),
                Cos(Power(Z, 2)), compose(Exp(Z), Power(Z, 2)),
                Sum((Exp(Power(Z, 2)), Negate(Sin(Power(Z, 2))))),
                parse_expr("mul(pow(z,2), exp(neg(pow(z,2))), const(-0.5+0i))")]
    EXP_Z = Exp(Z)
    EXP_Z2_PLUS_Z = Exp(Sum((Power(Z, 2), Z)))
    REJECTED = {
        "exp": (EXP_Z, Negate(EXP_Z)),
        "exp-z2-plus-z": (EXP_Z2_PLUS_Z, Negate(EXP_Z2_PLUS_Z)),
        "exp-pair-and-cos": (EXP_H, Negate(EXP_H), Cos(Z)),
        "cos-fixture": FIXTURES["example-2.1-cos"].presentation.generators,
    }

    @pytest.mark.parametrize("e", ACCEPTED, ids=format_expr)
    def test_accepted_trees_are_even_bit_for_bit(self, e):
        assert is_exactly_even(e)
        rng = np.random.default_rng(0)
        z = np.concatenate([
            (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) * scale
            for scale in (0.5, 3.0, 20.0, 1e80)
        ] + [np.array([0j, complex(0.0, -0.0), complex(-0.0, 0.0), 1e200 + 0j])])
        (v, bad), (vn, badn) = eval_array(e, z), eval_array(e, -z)
        assert np.array_equal(bad, badn)
        assert v.tobytes() == vn.tobytes()

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_generators_iterate_every_word(self, name):
        gens = self.REJECTED[name]
        assert not all(map(is_exactly_even, gens))
        for d in (1, 2, 3):
            words = iterated_words(gens, d)
            assert list(words) == trie_order(enumerate_words(len(gens), d))
            assert not any(mirrored for _, mirrored, _ in words.values())

    def test_odd_and_unproven_trees_rejected(self):
        for text in ("z", "affine(1+0i, 0+0i)", "pow(z, 3)", "pow(z, 4)",
                     "cos(z)", "sin(pow(neg(z), 2))", "compose(pow(z, 2), z)"):
            assert not is_exactly_even(parse_expr(text)), text

    def test_exp_fixture_words(self):
        # h stands for -h too, so every word is mirrored, and h o h and
        # h o h o h ride the orbit of h
        gens = FIXTURES["example-2.1-exp"].presentation.generators
        words = [iterated_words(gens, d) for d in (1, 2, 3)]
        assert [list(w) for w in words] == [[(1,)], [(1,), (1, 1)],
                                            [(1,), (1, 1), (1, 1, 1)]]
        assert [w[(1,)][1:] for w in words] == [(True, (1,)), (True, (1, 2)),
                                                (True, (1, 2, 3))]
        assert words[2][(1, 1)][1:] == words[2][(1, 1, 1)][1:] == (True, ())
        assert [len(enumerate_words(2, d)) for d in (2, 3)] == [6, 14]

    def test_even_sign_classes_words(self):
        # the class of h has two even members, so its words are not
        # mirrored; the class of cos(z^2) is led by its odd member
        S, spec = KERNEL_CASES["even-sign-classes"]
        words = iterated_words(S.generators, spec.word_depth)
        assert [(w, v[1:]) for w, v in words.items()] == [
            ((1,), (False, (1, 2))), ((1, 1), (False, ())), ((2, 1), (True, (1,))),
            ((2,), (True, (1, 2))), ((1, 2), (False, (1,))), ((2, 2), (True, ()))]

    def test_cos_fixture_roots(self):
        # words are rooted at their primitive root, (1, 2, 1, 2) at (1, 2)
        words = iterated_words(FIXTURES["example-2.1-cos"].presentation.generators, 4)
        roots = {w: powers for w, (_, _, powers) in words.items() if powers}
        assert roots[(1,)] == roots[(2,)] == (1, 2, 3, 4)
        assert roots[(1, 2)] == roots[(2, 1)] == (1, 2)
        assert len(roots) == 30 - 8
        assert all(words[w * m][2] == () for w, powers in roots.items()
                   for m in powers[1:])

    def test_folding_powers_iterate_their_own_tree(self):
        # (1, 1) composes into one affine map, which rounds otherwise than
        # applying z + 1e8 twice, so it rides no orbit
        S, spec = KERNEL_CASES["affine-folding"]
        words = iterated_words(S.generators, spec.word_depth)
        assert all(powers == (1,) for _, _, powers in words.values())


class TestSemigroupKernel:
    """The band kernel iterates each root word's tree once, tests the
    root's powers on that one orbit, and skips cells some word has bounded;
    none of that may change a bit of the per-word combination."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_per_word_reference(self, case):
        S, spec = KERNEL_CASES[case]
        status, esc = per_word_reference(S, spec)
        if case == "three-undecided":
            assert (status == STATUS_UNDECIDED).any() and (status == STATUS_BOUNDED).any()
        if case == "three-immediate":
            assert (esc == 0).any() and (esc > 0).any()
        if case.startswith("mirrored-step-one"):
            assert status[MIRROR_CELL] == STATUS_BOUNDED
        if case in SYMMETRY_BLOCKS:
            assert (status == STATUS_ESCAPING).any() and (status == STATUS_BOUNDED).any()
        if case in ("powers-past-the-root-budget", "power-checkpoints"):
            # the powers of h decide cells otherwise than h alone
            assert (classify_map(S.generator(1), spec).status != status).any()
        if case == "power-ends-inside-its-step":
            alone = classify_map(S.generator(1), spec).escape_iter
            assert ((alone == 1) & (esc == 2)).any()
        for workers in (1, 2, 3, 4):
            g = classify_semigroup(S, spec, workers=workers)
            assert np.array_equal(g.status, status), workers
            assert np.array_equal(g.escape_iter, esc), workers

    def assert_matches_per_word_reference(self, gens, spec, workers):
        S = SemigroupPresentation(tuple(gens), require_transcendental=False)
        status, esc = per_word_reference(S, spec)
        g = classify_semigroup(S, spec, workers=workers)
        assert np.array_equal(g.status, status)
        assert np.array_equal(g.escape_iter, esc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(RANDOM_GENERATORS,
           small_windows(st.complex_numbers(max_magnitude=2.0), st.floats(0.5, 6.0)),
           st.integers(1, 2))
    def test_random_generators_match_per_word_reference(self, gens, spec, workers):
        # free generators, sign pairs and exactly even pairs on z^2
        self.assert_matches_per_word_reference(gens, spec, workers)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(mirrored_pairs(small_windows(st.complex_numbers(max_magnitude=1.0),
                                                   st.floats(0.5, 2.0))),
                     gaussian_bumps()),
           st.integers(1, 2))
    def test_constructed_generators_match_per_word_reference(self, case, workers):
        # the mirrored step-1 test and a bad bit inside a power's step,
        # which random generators on random windows almost never reach
        self.assert_matches_per_word_reference(*case, workers)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(centred_cases(), st.integers(1, 2))
    def test_centred_windows_match_per_word_reference(self, case, workers):
        # the top-half rule fires on exactly even pairs and must not fire
        # on roots that are not mirrored
        self.assert_matches_per_word_reference(*case, workers)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(generator_sets(small_maps(REAL_COEFFS)), real_axis_windows(), st.integers(1, 2))
    def test_real_generators_match_per_word_reference(self, gens, spec, workers):
        # the row flip fires on every example, and the quarter on exactly
        # even pairs on windows centred at 0
        self.assert_matches_per_word_reference(gens, spec, workers)

    @pytest.fixture
    def band_rows(self, monkeypatch):
        # (row, number of columns) for each row a band classifies
        rows = []
        real = grid._classify_band

        def spy(roots, spec, cols, row0, row1):
            rows.extend((row, cols) for row in range(row0, row1))
            return real(roots, spec, cols, row0, row1)

        monkeypatch.setattr(grid, "_classify_band", spy)
        return rows

    def assert_classifies_its_block(self, band_rows, case):
        S, spec = KERNEL_CASES[case]
        rows, cols = SYMMETRY_BLOCKS[case]
        for workers in (1, 2, 3, 4):
            band_rows.clear()
            classify_semigroup(S, spec, workers=workers)
            assert sorted(band_rows) == [(row, cols) for row in range(rows)], workers

    @pytest.mark.parametrize("case", [c for c in sorted(SYMMETRY_BLOCKS)
                                      if c.startswith("mirrored-window")])
    def test_mirrored_window_classifies_the_top_half(self, band_rows, case):
        # the constants are not real, so N alone fires, on every column
        self.assert_classifies_its_block(band_rows, case)

    @pytest.mark.parametrize("case", [c for c in sorted(SYMMETRY_BLOCKS)
                                      if c.startswith("real-")])
    def test_real_generators_classify_their_block(self, band_rows, case):
        self.assert_classifies_its_block(band_rows, case)

    @pytest.mark.parametrize("rows", [63, 64])
    def test_non_real_map_classifies_every_row(self, band_rows, rows):
        # 0.3i + 0.3 e^z has a non-real coefficient, and its grid is not its
        # own row flip, on a window whose centres mirror in both axes
        f = Sum((Product((Const(0.3), Exp(Z))), Const(0.3j)))
        S, spec = SemigroupPresentation((f,), label="non-real"), window(rows, 64, word_depth=1)
        status, esc = per_word_reference(S, spec)
        assert not np.array_equal(status, status[::-1])
        for workers in (1, 2, 3, 4):
            band_rows.clear()
            g = classify_map(f, spec, workers=workers)
            assert np.array_equal(g.status, status), workers
            assert np.array_equal(g.escape_iter, esc), workers
            assert sorted(band_rows) == [(row, spec.cols) for row in range(rows)], workers

    @pytest.mark.parametrize("parity", sorted(MIRROR_WINDOWS))
    @pytest.mark.parametrize("negated", [False, True])
    def test_unmirrored_root_classifies_every_row(self, band_rows, parity, negated):
        # h alone and -h alone are exactly even, but neither root stands for
        # its negation: -h settles z0 at step 1 and h settles -z0, each not
        # the other, so the grid is not its own double flip
        spec, cell = MIRROR_WINDOWS[parity]
        f = Negate(mirror_h(spec, cell)) if negated else mirror_h(spec, cell)
        S, spec = SemigroupPresentation((f,), label="alone"), replace(spec, word_depth=1)
        status, esc = per_word_reference(S, spec)
        assert status[cell] != status[spec.rows - 1 - cell[0], spec.cols - 1 - cell[1]]
        band_rows.clear()
        for workers in (1, 2, 3, 4):
            for g in (classify_semigroup(S, spec, workers=workers),
                      classify_map(f, spec, workers=workers)):
                assert np.array_equal(g.status, status), workers
                assert np.array_equal(g.escape_iter, esc), workers
        assert sorted(band_rows) == sorted([(row, spec.cols) for row in range(spec.rows)] * 8)

    def test_unmirrored_window_classifies_every_row(self, band_rows):
        # centred at 0, but with cell size 2/15 some centres are 1 ulp off
        # the negation of their mirror image's
        spec = replace(MIRROR_WINDOWS["even"][0], cols=60, rows=60)
        x, y = spec._axes()
        assert not np.array_equal(x[::-1], -x) and not np.array_equal(y[::-1], -y)
        S = mirrored_pair(spec, (27, 38))
        status, esc = per_word_reference(S, spec)
        band_rows.clear()
        for workers in (1, 2):
            g = classify_semigroup(S, spec, workers=workers)
            assert np.array_equal(g.status, status), workers
            assert np.array_equal(g.escape_iter, esc), workers
        assert sorted(band_rows) == sorted([(row, spec.cols) for row in range(spec.rows)] * 2)

    @pytest.fixture
    def executors(self, monkeypatch):
        sizes = []
        real = grid.ThreadPoolExecutor

        def spy(workers):
            sizes.append(workers)
            return real(workers)

        monkeypatch.setattr(grid, "ThreadPoolExecutor", spy)
        return sizes

    def test_transport_starts_one_executor_per_grid(self, executors, tmp_path):
        main(["transport", "--fixture", "example-2.1-cos", "--cells", "32",
              "--workers", "2", "--out", str(tmp_path)])
        assert executors == [2, 2]

    def test_one_worker_starts_no_executor(self, executors, tmp_path):
        main(["render", "--fixture", "example-2.1-cos", "--cells", "32",
              "--workers", "1", "--out", str(tmp_path)])
        assert executors == []

    def test_fewer_than_two_rows_a_worker_start_no_executor(self, executors, tmp_path):
        assert main(["render", "--fixture", "example-2.1-cos", "--cells", "4",
                     "--workers", "4", "--out", str(tmp_path)]) == 0
        assert executors == []

    def test_runs_without_fork(self, monkeypatch, tmp_path):
        # as on a platform whose multiprocessing has no fork start method
        def no_fork(method=None):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        for workers in ("1", "2"):
            assert main(["render", "--fixture", "example-2.1-cos", "--cells", "32",
                         "--workers", workers, "--out", str(tmp_path / workers)]) == 0
        for name in ("classification.pgm", "heatmap.pgm"):
            # past the "# config=..." line, whose hash covers --workers
            one, two = ((tmp_path / w / name).read_bytes().split(b"\n", 2)[2]
                        for w in ("1", "2"))
            assert one == two

    def test_threads_switching_often_keep_every_bit(self):
        # more band threads than CPUs, switching every 10 us: a band that
        # shared mutable state with another would lose bits here
        S, spec = KERNEL_CASES["example-2.1-cos-depth2"]
        spec = replace(spec, cols=64, rows=64)
        one = classify_semigroup(S, spec, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            many = classify_semigroup(S, spec, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(many.status, one.status)
        assert np.array_equal(many.escape_iter, one.escape_iter)

    def test_evaluates_fewer_elements_than_per_word(self, kernel_calls):
        fx = FIXTURES["example-2.1-cos"]
        spec = replace(fx.window, cols=64, rows=64)
        classify_semigroup(fx.presentation, spec)
        kernel = sum(size for _, size in kernel_calls)
        kernel_calls.clear()
        per_word_reference(fx.presentation, spec)
        assert kernel == KERNEL_ELEMENTS
        assert kernel < sum(size for _, size in kernel_calls)

    def test_siblings_evaluate_the_shared_subtree_once_at_step_one(self, monkeypatch):
        # example-2.1-exp is <h, -h> with h exactly even: at depth 1 the
        # quotient keeps h alone, mirrored for -h, and max_iter 1 leaves
        # step 1 alone, so each band evaluates h once, not once per word;
        # the window mirrors and h is real, so the bands cover the top 16
        # rows and the left 16 columns
        fx = FIXTURES["example-2.1-exp"]
        h = fx.presentation.generator(1)
        calls = []
        real = Sum._eval

        def spy(self, w, bad):
            if self is h:
                calls.append(w.size)
            return real(self, w, bad)

        monkeypatch.setattr(Sum, "_eval", spy)
        spec = replace(fx.window, cols=32, rows=32, max_iter=1, word_depth=1)
        classify_semigroup(fx.presentation, spec, workers=1)
        assert calls == [4 * 16] * 4  # 4 bands of 4 rows of 16 columns

    def test_powers_ride_their_roots_orbit(self, monkeypatch):
        # example-2.1-exp iterates h, h o h and h o h o h at depths 1-3, and
        # each is a power of h: h runs once a band, on one orbit
        fx = FIXTURES["example-2.1-exp"]
        h = fx.presentation.generator(1)
        sizes = []
        real = Sum._eval

        def spy(self, w, bad):
            if self is h:
                sizes.append(w.size)
            return real(self, w, bad)

        monkeypatch.setattr(Sum, "_eval", spy)
        counts = []
        for d in (1, 2, 3):
            sizes.clear()
            classify_semigroup(fx.presentation, replace(fx.window, cols=64, rows=64,
                                                        word_depth=d))
            counts.append(sum(sizes))
        assert counts == H_ELEMENTS

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        real = eval_array

        def spy(expr, z):
            calls.append((expr, z.size))
            return real(expr, z)

        monkeypatch.setattr(grid, "eval_array", spy)
        return calls

    def test_evaluates_only_the_root_words_trees(self, kernel_calls, monkeypatch):
        # the kernel evaluates the root words' trees, the very objects that
        # iterated_words composed, and composes no tree of its own
        words = []

        def spy(gens, word_depth):
            words.append(iterated_words(gens, word_depth))
            return words[-1]

        monkeypatch.setattr(grid, "iterated_words", spy)
        fx = FIXTURES["example-2.1-cos"]
        spec = replace(fx.window, cols=32, rows=32, word_depth=2)
        classify_semigroup(fx.presentation, spec, workers=1)
        roots = [tree for tree, _, powers in words[0].values() if powers]
        assert kernel_calls
        assert all(any(expr is t for t in roots) for expr, _ in kernel_calls)

    def test_no_evaluation_on_zero_elements(self, kernel_calls):
        # roots late in the walk find every cell of a band bounded by an
        # earlier word, and start no evaluation there
        fx = FIXTURES["example-2.1-cos"]
        spec = replace(fx.window, cols=128, rows=128, word_depth=3)
        classify_semigroup(fx.presentation, spec, workers=2)
        assert kernel_calls
        assert all(size for _, size in kernel_calls)

    def test_auto_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(0) == resolve_workers(None) == 1
        assert resolve_workers(3) == 3


def synthetic_grid(status, max_iter=100):
    rows, cols = status.shape
    spec = GridSpec(center=0j, width=4.0, height=4.0, cols=cols, rows=rows,
                    max_iter=max_iter)
    esc = np.where(status == STATUS_ESCAPING, 1, -1).astype(np.int32)
    return ClassificationGrid(spec, status.astype(np.uint8), esc, "synthetic")


class TestBoundary:
    def test_all_escaping_empty_mask(self):
        g = synthetic_grid(np.full((8, 8), STATUS_ESCAPING))
        assert not extract_julia_boundary(g).any()

    def test_checkerboard_all_masked(self):
        status = np.indices((8, 8)).sum(axis=0) % 2
        status = np.where(status, STATUS_ESCAPING, STATUS_BOUNDED)
        g = synthetic_grid(status)
        assert extract_julia_boundary(g).all()

    def test_exp_window_nonempty(self):
        # half escaping / half bounded split produces a boundary line
        status = np.full((8, 8), STATUS_BOUNDED)
        status[:, 4:] = STATUS_ESCAPING
        g = synthetic_grid(status)
        mask = extract_julia_boundary(g)
        assert mask[:, 3:5].all() and not mask[:, 0].any()

    def test_fatou_mask_is_complement(self):
        fx = FIXTURES["example-2.1-cos"]
        g = classify_map(fx.presentation.generator(1), small_spec())
        assert np.array_equal(fatou_mask(g), ~extract_julia_boundary(g))


CROSS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def neighbourhood(mask, r, c):
    """Values of mask on the in-window cells of the cross at (r, c)."""
    rows, cols = mask.shape
    return [mask[r + dr, c + dc] for dr, dc in CROSS
            if 0 <= r + dr < rows and 0 <= c + dc < cols]


def edge_masks(rows, cols):
    """Masks that are True on one edge row or one edge column only."""
    for index in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        mask = np.zeros((rows, cols), dtype=bool)
        mask[index] = True
        yield mask


def reference_masks():
    rng = np.random.default_rng(20181)
    for shape in [(2, 2), (2, 7), (7, 2), (3, 3), (5, 9), (16, 16)]:
        for density in (0.1, 0.5, 0.9):
            yield rng.random(shape) < density
        yield np.ones(shape, dtype=bool)
        yield np.zeros(shape, dtype=bool)
        yield from edge_masks(*shape)


class TestDilation:
    """_dilate and escape_boundary against a loop over each cell's
    cross-shaped 4-neighbourhood, with cells beyond the edge left out."""

    @pytest.mark.parametrize("mask", list(reference_masks()))
    def test_dilate_matches_loop(self, mask):
        want = np.array([[any(neighbourhood(mask, r, c)) for c in range(mask.shape[1])]
                         for r in range(mask.shape[0])])
        got = grid._dilate(mask)
        assert got.dtype == bool and np.array_equal(got, want)

    @pytest.mark.parametrize("mask", list(reference_masks()))
    def test_escape_boundary_matches_loop(self, mask):
        g = synthetic_grid(np.where(mask, STATUS_ESCAPING, STATUS_BOUNDED))
        want = np.array([[len(set(neighbourhood(mask, r, c))) == 2
                          for c in range(mask.shape[1])]
                         for r in range(mask.shape[0])])
        assert np.array_equal(escape_boundary(g), want)

    def test_input_unchanged(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[2, 2] = True
        grid._dilate(mask)
        assert mask.sum() == 1


class TestClassBJuliaMask:
    """J(f) is the boundary of I(f) for transcendental entire f; for f in
    class B, I(f) lies in J(f), so the escaping cells belong to the mask."""

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixture_generators_recognised(self, name):
        assert all(is_class_b(g) for g in FIXTURES[name].presentation.generators)

    @pytest.mark.parametrize("text", [
        "exp(z)", "sin(pow(z,3))", "mul(const(2+0i), cos(add(z, const(1+0i))))",
        "compose(exp(z), cos(z))", "pow(exp(neg(z)), 2)",
    ])
    def test_recognised(self, text):
        assert is_class_b(parse_expr(text))

    @pytest.mark.parametrize("text", [
        "pow(z,2)",  # polynomial
        "const(3+0i)",
        "exp(const(1+0i))",  # constant
        "add(z, const(1+0i), exp(neg(z)))",  # Fatou's function
        "add(exp(z), cos(z))",  # two non-constant transcendental terms
        "exp(add(z, neg(z)))",  # may cancel to a constant
        "mul(const(0+0i), exp(z))",
        "mul(z, exp(z))",
        "compose(exp(z), add(z, exp(z)))",  # an inner map of unknown growth
        "compose(exp(z), const(1+0i))",  # constant
        "mul(z, exp(add(z, neg(z))))",  # a factor that may cancel to a constant
        "add(const(1+0i), const(2+0i))",  # constant
    ])
    def test_not_recognised(self, text):
        assert not is_class_b(parse_expr(text))

    def test_all_escaping_exp_grid_is_all_julia(self):
        g = classify_map(Exp(Z), small_spec())
        assert (g.status == STATUS_ESCAPING).all() and g.class_b
        assert not escape_boundary(g).any()
        assert extract_julia_boundary(g).all()
        assert not fatou_mask(g).any()

    def test_polynomial_mask_is_escape_boundary(self):
        # escaping cells of a polynomial lie in the Fatou basin of infinity
        g = classify_map(Power(Z, 2), small_spec(width=4.0, height=4.0))
        assert not g.class_b
        mask = extract_julia_boundary(g)
        assert mask.any() and np.array_equal(mask, escape_boundary(g))

    def test_baker_domain_map_mask_is_escape_boundary(self):
        # Fatou's function escapes to +inf inside a Baker domain (Fatou set)
        f = parse_expr("add(z, const(1+0i), exp(neg(z)))")
        g = classify_map(f, small_spec())
        assert not g.class_b and (g.status == STATUS_ESCAPING).any()
        assert np.array_equal(extract_julia_boundary(g), escape_boundary(g))

    def test_flag_follows_generators_and_transport(self):
        spec = small_spec(cols=16, rows=16, word_depth=1)
        fatou = parse_expr("add(z, const(1+0i), exp(neg(z)))")
        mixed = SemigroupPresentation((fatou, Exp(Z)), label="mixed")
        assert classify_semigroup(mixed, spec).class_b
        alone = SemigroupPresentation((fatou,), label="fatou")
        assert not classify_semigroup(alone, spec).class_b
        moved = map_classification(classify_map(Exp(Z), spec),
                                   Transport(spec, AffineMap(-1, 0), spec))
        assert moved.class_b

    def test_compare_all_escaping_class_b_is_not_vacuous(self):
        g = classify_map(Exp(Z), small_spec())
        moved = map_classification(g, Transport(g.spec, AffineMap(-1, 0), g.spec))
        rep = compare_classifications(moved, g)
        assert not rep.indeterminate
        assert rep.compared == g.status.size and rep.ratio == 1.0


class TestTransport:
    def test_identity_transport(self):
        g = classify_map(Cos(Z), small_spec())
        moved = map_classification(g, Transport(g.spec, AffineMap(1, 0), g.spec))
        assert np.array_equal(moved.status, g.status)
        assert np.array_equal(moved.escape_iter, g.escape_iter)

    def test_mirror_transport_on_symmetric_raster(self):
        g = classify_map(Cos(Z), small_spec())
        moved = map_classification(g, Transport(g.spec, AffineMap(-1, 0), g.spec))
        assert np.array_equal(moved.status, g.status[::-1, ::-1])

    def test_scaling_transport_against_direct_oracle(self):
        rng = np.random.default_rng(3)
        status = rng.integers(0, 3, size=(16, 16)).astype(np.uint8)
        g = synthetic_grid(status)
        phi = AffineMap(2, 0)
        moved = map_classification(g, Transport(g.spec, phi, g.spec))
        inv_centers = g.spec.cell_centers() / 2  # phi^{-1}(w) = w / 2
        for r in range(16):
            for c in range(16):
                rr, cc = cell_index_of(g.spec, inv_centers[r, c])
                if 0 <= rr < 16 and 0 <= cc < 16:
                    assert moved.status[r, c] == status[rr, cc]
                else:
                    assert moved.status[r, c] == STATUS_UNDECIDED

    def test_out_of_window_is_undecided(self):
        g = classify_map(Cos(Z), small_spec())
        moved = map_classification(g, Transport(g.spec, AffineMap(1, 1000 + 0j), g.spec))
        assert (moved.status == STATUS_UNDECIDED).all()

    def test_far_shift_fatou_ratio_has_no_cells(self):
        # no target cell has its preimage in the window: the Julia ratio is
        # over every cell, the Fatou ratio over none, so it is vacuous
        g = classify_map(Cos(Z), small_spec())
        _, ratios, vacuous = transport_ratios(g, g, AffineMap(1, 1000 + 0j), g.spec)
        julia = extract_julia_boundary(g)
        assert ratios["julia"] == float((~julia).mean()) < 1.0
        assert ratios["fatou"] == 0.0 and vacuous["fatou"] and not vacuous["julia"]


class TestCompare:
    def test_identical(self):
        g = classify_map(Cos(Z), small_spec())
        rep = compare_classifications(g, g)
        assert rep.ratio == 1.0 and not rep.indeterminate

    def test_map_unmap_round_trip(self):
        g = classify_map(Cos(Z), small_spec())
        phi = AffineMap(-1, 0)
        plan = Transport(g.spec, phi, g.spec)
        back = map_classification(map_classification(g, plan), plan)
        rep = compare_classifications(g, back)
        assert rep.ratio == 1.0

    def test_conjugate_pipeline_agreement(self):
        fx = FIXTURES["example-2.1-cos"]
        table = build_commutator_table(fx.presentation, fx.plan)
        phi = table.entry(1, 2)
        from semidyn.commutator import conjugate_semigroup

        conj = conjugate_semigroup(fx.presentation, phi)
        spec = small_spec(cols=128, rows=128)
        g = classify_map(fx.presentation.generator(1), spec)
        gc = classify_map(conj.generator(1), spec)
        moved = map_classification(g, Transport(g.spec, phi, spec))
        rep = compare_classifications(moved, gc)
        assert rep.ratio >= 0.99

    def test_spec_mismatch(self):
        g1 = classify_map(Cos(Z), small_spec())
        g2 = classify_map(Cos(Z), small_spec(cols=32, rows=32))
        with pytest.raises(SpecMismatchError):
            compare_classifications(g1, g2)


class TestFatouInvariance:
    @staticmethod
    def cos_grid(**kw):
        fx = FIXTURES["example-2.1-cos"]
        return classify_semigroup(fx.presentation, small_spec(word_depth=1, **kw))

    @staticmethod
    def invariance(g, phi):
        plan = Transport(g.spec, phi, g.spec)
        julia = extract_julia_boundary(g)
        return check_fatou_invariance(julia, map_mask(julia, plan), plan)

    def test_identity(self):
        rep = self.invariance(self.cos_grid(), AffineMap(1, 0))
        assert rep.ratio == 1.0

    def test_negation_on_symmetric_window(self):
        rep = self.invariance(self.cos_grid(cols=128, rows=128), AffineMap(-1, 0))
        assert rep.ratio >= 0.99

    def test_far_shift_is_indeterminate(self):
        rep = self.invariance(self.cos_grid(), AffineMap(1, 1000 + 0j))
        # no comparable overlap in the window interior
        assert rep.indeterminate and rep.compared == 0


# The transport before the one plan, kept as the differential reference:
# map_classification and map_mask each compute their own preimage index,
# and check_fatou_invariance derives its own Fatou mask and index.
def reference_map_classification(g, phi, target):
    row, col, valid = g.spec.cell_index(affine_inverse(phi)(target.cell_centers()))
    status = np.zeros((target.rows, target.cols), dtype=np.uint8)
    esc = np.full((target.rows, target.cols), -1, dtype=np.int32)
    rr, cc = row[valid], col[valid]
    status[valid] = g.status[rr, cc]
    esc[valid] = g.escape_iter[rr, cc]
    return ClassificationGrid(target, status, esc, "transported", g.class_b)


def reference_map_mask(mask, source, phi, target):
    row, col, valid = source.cell_index(affine_inverse(phi)(target.cell_centers()))
    out = np.zeros((target.rows, target.cols), dtype=bool)
    out[valid] = mask[row[valid], col[valid]]
    return out, valid


def reference_transport_ratios(grid_s, grid_c, phi, spec):
    rep = compare_classifications(reference_map_classification(grid_s, phi, spec), grid_c)
    jb_s, valid = reference_map_mask(extract_julia_boundary(grid_s), grid_s.spec, phi, spec)
    jb_c = extract_julia_boundary(grid_c)
    agree = jb_s == jb_c
    ratios = {
        "escaping": rep.ratio,
        "julia": float(agree.mean()),
        "fatou": float(agree[valid].mean()) if valid.any() else 0.0,
    }
    vacuous = {
        "escaping": rep.vacuous,
        "julia": grid._single_class(jb_s, jb_c),
        "fatou": grid._single_class(jb_s[valid], jb_c[valid]),
    }
    return rep, ratios, vacuous


def reference_check_fatou_invariance(g, phi):
    """(ratio, compared, indeterminate)"""
    fat = fatou_mask(g)
    moved, valid = reference_map_mask(fat, g.spec, phi, g.spec)
    compare = valid & fat
    n = int(compare.sum())
    if n == 0:
        return 0.0, 0, True
    agree = (moved == fat) & compare
    return float(agree.sum() / n), n, False


TRANSPORT_PHIS = [
    AffineMap(-1, 0), AffineMap(1, 0), AffineMap(2, 0), AffineMap(0.5, 0),
    AffineMap(1 + 0.5j, 0.3), AffineMap(1, 1000), AffineMap(1e-300, 0),
]


@st.composite
def status_grid(draw, shape):
    """A synthetic grid whose cells take classes from a drawn subset, so
    that single-class grids (vacuous and indeterminate verdicts) occur."""
    classes = draw(st.lists(st.sampled_from([STATUS_UNDECIDED, STATUS_BOUNDED,
                                             STATUS_ESCAPING]),
                            min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.sampled_from(classes), min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1]))
    g = synthetic_grid(np.array(cells, dtype=np.uint8).reshape(shape))
    return replace(g, class_b=draw(st.booleans()))


class TestTransportPlan:
    """One preimage index a transport: the plan's verdicts against the
    three-index reference, bit for bit, and the calls one run makes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data(), st.integers(2, 12), st.integers(2, 12), st.sampled_from(TRANSPORT_PHIS))
    def test_matches_three_index_reference(self, data, rows, cols, phi):
        grid_s = data.draw(status_grid((rows, cols)))
        grid_c = data.draw(status_grid((rows, cols)))
        (rep, fatou), ratios, vacuous = transport_ratios(grid_s, grid_c, phi, grid_s.spec)
        want, want_ratios, want_vacuous = reference_transport_ratios(
            grid_s, grid_c, phi, grid_s.spec)
        assert {k: v.hex() for k, v in ratios.items()} \
            == {k: v.hex() for k, v in want_ratios.items()}
        assert vacuous == want_vacuous
        assert (rep.ratio.hex(), rep.compared, rep.indeterminate, rep.vacuous) \
            == (want.ratio.hex(), want.compared, want.indeterminate, want.vacuous)
        assert np.array_equal(rep.disagreement, want.disagreement)
        ratio, compared, indeterminate = reference_check_fatou_invariance(grid_s, phi)
        assert (fatou.ratio.hex(), fatou.compared, fatou.indeterminate) \
            == (ratio.hex(), compared, indeterminate)

    def test_one_index_and_one_source_boundary_a_run(self, tmp_path, monkeypatch):
        indexes, boundaries, grids = [], [], []
        cell_index, escape_boundary_of = GridSpec.cell_index, grid.escape_boundary

        def spy_index(self, z):
            indexes.append(z.shape)
            return cell_index(self, z)

        def spy_boundary(g):
            boundaries.append(g)
            return escape_boundary_of(g)

        def spy_classify(S, spec, workers=1):
            grids.append(classify_semigroup(S, spec, workers))
            return grids[-1]

        monkeypatch.setattr(GridSpec, "cell_index", spy_index)
        monkeypatch.setattr(grid, "escape_boundary", spy_boundary)
        monkeypatch.setattr("semidyn.cli.classify_semigroup", spy_classify)
        assert main(["transport", "--fixture", "example-2.1-cos", "--cells", "32",
                     "--out", str(tmp_path)]) == 0
        source, conjugate = grids
        assert indexes == [(32, 32)]
        assert sum(g is source for g in boundaries) == 1
        assert sum(g is conjugate for g in boundaries) == 2 and len(boundaries) == 4

    def test_each_grid_derives_its_boundary_once(self, tmp_path, monkeypatch):
        # two dilations for each of the three grids' escape boundaries (the
        # moved source, the source, the conjugate) and one for the band
        # around them, although the conjugate's boundary is asked for twice
        dilations = []
        dilate = grid._dilate

        def spy_dilate(mask):
            dilations.append(mask.shape)
            return dilate(mask)

        monkeypatch.setattr(grid, "_dilate", spy_dilate)
        assert main(["transport", "--fixture", "example-2.1-cos", "--cells", "64",
                     "--out", str(tmp_path)]) == 0
        assert dilations == [(64, 64)] * 7

    def test_grid_off_the_plan_source_is_refused(self):
        g = synthetic_grid(np.full((4, 4), STATUS_BOUNDED))
        plan = Transport(small_spec(cols=4, rows=4), AffineMap(1, 0), g.spec)
        with pytest.raises(SpecMismatchError):
            map_classification(g, plan)
        with pytest.raises(SpecMismatchError):
            map_mask(np.zeros((5, 4), dtype=bool), plan)

    def test_fatou_invariance_needs_a_window_onto_itself(self):
        g = synthetic_grid(np.full((4, 4), STATUS_BOUNDED))
        plan = Transport(g.spec, AffineMap(1, 0), small_spec(cols=4, rows=4))
        julia = extract_julia_boundary(g)
        with pytest.raises(SpecMismatchError):
            check_fatou_invariance(julia, julia, plan)
        # the conjugate grid on the target spec, the source grid off it
        with pytest.raises(SpecMismatchError, match="window onto itself"):
            transport_ratios(g, replace(g, spec=plan.target), AffineMap(1, 0), plan.target)


class TestArtifacts:
    def test_pgm_bytes(self, tmp_path):
        status = np.array([[STATUS_ESCAPING, STATUS_BOUNDED],
                           [STATUS_UNDECIDED, STATUS_ESCAPING]], dtype=np.uint8)
        g = synthetic_grid(status)
        path = tmp_path / "out.pgm"
        write_pgm(str(path), status_bytes(g), comment="config=x seed=0")
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n# config=x seed=0\n2 2\n255\n")
        assert blob[-4:] == bytes([255, 0, 128, 255])

    def test_pgm_reproducible(self, tmp_path):
        g = classify_map(Cos(Z), small_spec(cols=16, rows=16))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(str(p1), status_bytes(g))
        write_pgm(str(p2), status_bytes(g))
        assert p1.read_bytes() == p2.read_bytes()

    def test_heatmap_range(self):
        g = classify_map(Exp(Z), small_spec(cols=16, rows=16))
        hm = heatmap_bytes(g)
        esc = g.status == STATUS_ESCAPING
        assert (hm[esc] <= 254).all()
        assert (hm[~esc] == 255).all()

    @pytest.mark.parametrize("max_iter", [1, 7, 100, 254, 255, 1000])
    def test_heatmap_is_the_scaled_escape_iteration(self, max_iter):
        # every escape_iter from -1 to max_iter, in a grid of 2 rows
        esc = np.arange(-1, max_iter + 1 + (max_iter % 2), dtype=np.int32)
        esc = np.minimum(esc, max_iter).reshape(2, -1)
        g = ClassificationGrid(GridSpec(cols=esc.shape[1], rows=2, max_iter=max_iter),
                               np.where(esc >= 0, STATUS_ESCAPING, 0).astype(np.uint8),
                               esc, "synthetic")
        scaled = np.round(esc * 254.0 / max_iter)
        expected = np.where(esc >= 0, np.clip(scaled, 0, 254), 255).astype(np.uint8)
        hm = heatmap_bytes(g)
        assert hm.dtype == np.uint8 and hm.shape == esc.shape
        assert hm.tobytes() == expected.tobytes()

    def test_csv(self, tmp_path):
        g = classify_map(Cos(Z), small_spec(cols=4, rows=4))
        path = tmp_path / "grid.csv"
        write_csv(str(path), g)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,re,im,status,first_escape_iter"
        assert len(lines) == 17
        centers = g.spec.cell_centers()
        for i, line in enumerate(lines[1:]):
            r, c, re, im, status, first = line.split(",")
            assert (int(r), int(c)) == divmod(i, 4)
            # plain numbers, read back exactly: numpy 2's repr once wrote
            # np.float64(...)
            assert complex(float(re), float(im)) == centers[int(r), int(c)]
            assert status == STATUS_NAMES[g.status[int(r), int(c)]]
            assert int(first) == g.escape_iter[int(r), int(c)]


class TestEremenkoWitness:
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_escaping_cells_exist(self, name):
        fx = FIXTURES[name]
        from dataclasses import replace

        spec = replace(fx.window, cols=64, rows=64)
        g = classify_map(fx.presentation.generator(1), spec)
        assert (g.status == STATUS_ESCAPING).any()
