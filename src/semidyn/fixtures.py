"""Built-in worked examples.

The constants are recorded choices, not canonical values: the exp fixture
is e^{z^2} + 0.2 and the cos fixture is cos z, unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutator import SemigroupPresentation
from .expr import Const, Cos, Exp, Expr, Identity, Negate, Power, SamplePlan, Sum
from .grid import GridSpec


@dataclass(frozen=True)
class Fixture:
    name: str
    presentation: SemigroupPresentation
    window: GridSpec
    plan: SamplePlan


def _fixture(name: str, generators: tuple[Expr, ...], seed: int) -> Fixture:
    """The fixture `name`, rendered on 512x512 cells over [-4, 4]^2."""
    window = GridSpec(center=0j, width=8.0, height=8.0, cols=512, rows=512)
    return Fixture(name, SemigroupPresentation(generators, label=name), window,
                   SamplePlan(seed=seed))


_f_exp = Sum((Exp(Power(Identity(), 2)), Const(0.2)))
_f_cos = Cos(Identity())
FIXTURES = {fx.name: fx for fx in (
    _fixture("example-2.1-exp", (_f_exp, Negate(_f_exp)), seed=21),
    _fixture("example-2.1-cos", (_f_cos, Negate(_f_cos)), seed=22),
    _fixture("derived-exp-shift", (Exp(Identity()), Sum((Exp(Identity()), Const(1.0)))),
             seed=23),
)}

# the first two, taken verbatim from the worked examples; these are the
# ones with the involution commutator and a two-element commutator group
INVOLUTION_FIXTURES = tuple(FIXTURES)[:2]


def get_fixture(name: str) -> Fixture:
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    return FIXTURES[name]
