"""Walk through the commutator machinery on the built-in fixtures.

Run:  python demos/commutator_tour.py
"""

from semidyn import (
    FIXTURES,
    Word,
    find_affine_commutator,
    group_closure,
    is_nearly_abelian,
    normal_form,
)

for name, fx in FIXTURES.items():
    f, g = fx.presentation.generators
    res = find_affine_commutator(f, g, fx.plan)
    print(f"{name}: [f1, f2] = ({res.map.a:.6g})z + ({res.map.b:.6g}), "
          f"residual {res.residual:.2e}")

print()
fx = FIXTURES["example-2.1-exp"]
table = is_nearly_abelian(fx.presentation, fx.plan)
G = group_closure(table.maps())
print(f"{fx.name} is nearly abelian: {table.algebraic} "
      f"(unsolved pairs: {list(table.failing_pairs)})")
print(f"commutator group of {fx.name} has {len(G)} elements")

for letters in [(2, 1), (2, 1, 2), (1, 2, 1, 2)]:
    nf = normal_form(Word(letters), fx.presentation, table, G, fx.plan)
    print(f"word {list(letters)} -> prefix ({nf.prefix.a:.3g})z+({nf.prefix.b:.3g}), "
          f"exponents {nf.exponents}, residual {nf.residual:.2e}")
