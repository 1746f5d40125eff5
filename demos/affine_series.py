"""The affine identity, truncated in q.

Enumerates the basis sequences of the basic level-one weight up to q^3,
prints their weights, compares the basis sum against the Weyl-group series,
and shows one vertex contribution matching its closed product formula.
"""

from hlbrion.affine_hl import (
    AffineWeight, closed_form_contribution, enumerate_pi, p_weight,
    rhs_series, t0_sequence, tau_truncated, verify_main, vertices_relevant,
    weyl_elements,
)

weight = AffineWeight(2, [1, 0])
print("weight:", weight, "level", weight.k, "stabilizer series",
      weight.wlambda())

print("\nbasis sequences up to q^3:")
for A in enumerate_pi(weight, 3):
    zvec, qd = A.mu_exponent()
    print(f"  {A}: z^{zvec[0]} q^{qd}, weight {p_weight(A)}")

print("\nbasis sum series:", rhs_series(weight, 3))
print("\nidentity against the Weyl side up to q^6:", verify_main(weight, 6))

regular = AffineWeight(2, [1, 1])
v0 = t0_sequence(regular)
tau = tau_truncated(regular, v0, 2)
# the one group element whose weight shift is the vertex's
element, = [e for e in weyl_elements(regular, 2) if e[2] == v0.zq_monomial()]
closed = closed_form_contribution(regular, element, 2, None)
print("\nvertex transform of the base vertex (regular weight):")
print("  sections:  ", tau)
print("  closed form agrees:", tau.equals(closed, up_to=2))

rel = vertices_relevant(weight, 2)
print("\nrelevant vertices up to q^2 (singular weight):")
for v, fiber in sorted(rel.items(), key=lambda kv: kv[0].mu_exponent()[1]):
    print(f"  {v}: weight shift {v.mu_exponent()}, {len(fiber)} parametrizations")
