"""Ordinary lattice graphs: faces, weights and the vanishing theorem.

Builds one of the worked shapes, lists a few faces of its polyhedron with
their weights, confirms the signed face sum identity on an interlacing
polytope, and checks that a row-growing shape has identically vanishing
transform at random points.
"""

import json

from hlbrion.graphs import (
    BSeq, OrdinaryGraph, enumerate_faces, psi_is_zero, t_multinomial,
    triangle_graph, verify_face_euler_sum, verify_graphsum,
)
from hlbrion.ring import TPoly

with open("fixtures/fig2.json") as fh:
    shape = OrdinaryGraph(json.load(fh))
print("shape:", sorted(shape.vertices))
print("row counts:", shape.row_counts(), "- grows downward:",
      shape.violates_row_monotonicity())

print("\nfaces of the triangle polytope for values (2, 1, 0):")
G = triangle_graph(3)
for f in sorted(enumerate_faces(G, BSeq([2, 1, 0])), key=lambda f: f.dim)[:6]:
    print(f"  dim {f.dim}: weight {f.phi()}")

print("\nsigned face sums (t-multinomials):")
for lam, parts in (([2, 1], [1, 1, 1]), ([1, 1], [2, 1])):
    assert verify_face_euler_sum(3, lam)
    print(f"  lam={lam}: {t_multinomial(3, parts)}")

print("\ndegeneration identity on the triangle (exact):",
      verify_graphsum(G, BSeq([2, 1, 0]), BSeq([1, 1, 0])))

print("vanishing transform for the row-growing shape:",
      psi_is_zero(shape, BSeq([3]), trials=5, seed=1))
