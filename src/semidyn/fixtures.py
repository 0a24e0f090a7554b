"""Built-in worked examples.

The constants are recorded choices, not canonical values: the exp fixture
is e^{z^2} + 0.2 and the cos fixture is cos z, unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutator import SemigroupPresentation
from .expr import Const, Cos, Exp, Identity, Negate, Power, SamplePlan, Sum
from .grid import GridSpec


@dataclass(frozen=True)
class Fixture:
    name: str
    presentation: SemigroupPresentation
    window: GridSpec
    plan: SamplePlan
    # whether the commutator group is finite (the shifted-exp pair has a
    # full table, but its group does not close, so its normal forms use
    # each fitted xi unchecked, and a word fails where a migration has no
    # affine xi)
    finite_commutator_group: bool


def build_fixtures() -> dict[str, Fixture]:
    f_exp = Sum((Exp(Power(Identity(), 2)), Const(0.2)))
    f_cos = Cos(Identity())
    window = GridSpec(center=0j, width=8.0, height=8.0, cols=512, rows=512)
    fixtures = {
        "example-2.1-exp": Fixture(
            name="example-2.1-exp",
            presentation=SemigroupPresentation(
                (f_exp, Negate(f_exp)), label="example-2.1-exp"
            ),
            window=window,
            plan=SamplePlan(seed=21),
            finite_commutator_group=True,
        ),
        "example-2.1-cos": Fixture(
            name="example-2.1-cos",
            presentation=SemigroupPresentation(
                (f_cos, Negate(f_cos)), label="example-2.1-cos"
            ),
            window=window,
            plan=SamplePlan(seed=22),
            finite_commutator_group=True,
        ),
        "derived-exp-shift": Fixture(
            name="derived-exp-shift",
            presentation=SemigroupPresentation(
                (Exp(Identity()), Sum((Exp(Identity()), Const(1.0)))),
                label="derived-exp-shift",
            ),
            window=window,
            plan=SamplePlan(seed=23),
            finite_commutator_group=False,
        ),
    }
    return fixtures


FIXTURES = build_fixtures()

# the two fixtures taken verbatim from the worked examples; these are the
# ones with the involution commutator and a two-element commutator group
INVOLUTION_FIXTURES = ("example-2.1-exp", "example-2.1-cos")


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
