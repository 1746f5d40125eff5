"""The weighted vertex identity on a segment, end to end.

For the segment [0, 2] with weight 1 on vertices and 1 - t on the interior,
the weighted lattice sum 1 + (1-t)x + x^2 must equal the sum of the two
tangent-cone transforms (1 - tx)/(1 - x) and x^2 (1 - t/x)/(1 - 1/x).
"""

from hlbrion.cones import (
    Polyhedron, face_lattice, ipt_weighted, tangent_cone_at_vertex,
    verify_weighted_brion, weighted_sum_bruteforce,
)
from hlbrion.ring import TPoly

segment = Polyhedron(1, [((1,), 2), ((-1,), 0)], labels=["x"])


def phi(face):
    return TPoly.one() if face.dim == 0 else TPoly.from_list([1, -1])


print("lattice sum:", weighted_sum_bruteforce(segment, phi).to_text())

vertices = segment.vertices_bruteforce()
faces = face_lattice(segment, vertices)
total = None
for vid, v in enumerate(vertices):
    cone = tangent_cone_at_vertex(segment, faces, vid, vertices, phi)
    f = ipt_weighted(cone).expand()
    print(f"cone at {v}:", f)
    total = f if total is None else total + f

print("summed and divided out:", total.to_laurent().to_text())
print("randomized check:",
      verify_weighted_brion(segment, phi, trials=3, seed=1))
