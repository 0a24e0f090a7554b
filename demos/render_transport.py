"""Render the escaping-set grid of a fixture and check affine transport.

Conjugating a semigroup by the commutator map moves its escaping set by
exactly that map; this script renders both sides and prints the agreement.

Run:  python demos/render_transport.py   (writes PGMs to ./demo_out/)
"""

import os

from semidyn import (
    FIXTURES,
    AffineMap,
    Transport,
    classify_semigroup,
    compare_classifications,
    conjugate_semigroup,
    map_classification,
    status_bytes,
    write_pgm,
)

fx = FIXTURES["example-2.1-cos"]
phi = AffineMap(-1, 0)
spec = fx.window

grid = classify_semigroup(fx.presentation, spec)
conj_grid = classify_semigroup(conjugate_semigroup(fx.presentation, phi), spec)
plan = Transport(spec, phi, spec)
rep = compare_classifications(map_classification(grid, plan), conj_grid)

os.makedirs("demo_out", exist_ok=True)
write_pgm("demo_out/original.pgm", status_bytes(grid))
write_pgm("demo_out/conjugate.pgm", status_bytes(conj_grid))
print(f"counts: {grid.counts()}")
print(f"transport agreement: {rep.ratio:.5f} over {rep.compared} cells")
print("wrote demo_out/original.pgm and demo_out/conjugate.pgm")
