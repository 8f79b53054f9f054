"""Construct the singular vectors of each level two independent ways.

A singular vector is annihilated by the total raising operator.  The Gordan
route builds one explicit vector per composition (k_1..k_{N-1}) of m by
repeatedly adjoining a site with Pochhammer-ratio coefficients; the kernel
route applies the extremal projector prod_k (1 - F E / c_k) to the ballot
states of V_m, in integers.  In the regime m <= min(weights) the two spans
coincide, with dimension C(m+N-2, m).
"""

from fractions import Fraction

from gaudin import (
    ModelSpec,
    build_total_generator,
    enumerate_weight_space,
    gordan_coefficients,
    singular_basis_gordan,
    singular_basis_kernel,
    singular_dimension_formula,
)
from gaudin.rational_linalg import rank

spec = ModelSpec(weights=(2, 2, 2), z=(Fraction(0), Fraction(1), Fraction(3, 2)))
m = 2

print("two-factor coefficients at step k=2 for weights (2, 2):")
print("  ", [str(c) for c in gordan_coefficients(2, 2, 2).coeffs])

basis = singular_basis_gordan(spec, m)
space = enumerate_weight_space(spec, m)
print(f"\nGordan basis of the singular subspace of V_{m}, weights {spec.weights}:")
for comp, vec in zip(basis.labels, basis.vectors):
    entries = {space.states[i]: str(x) for i, x in enumerate(vec) if x != 0}
    print(f"  composition {comp}: {entries}")

raise_e = build_total_generator("E", spec, m)
annihilated = all(not raise_e.apply(v).any() for v in basis.vectors)
print("\nevery vector exactly annihilated by the total raising operator:", annihilated)

kernel = singular_basis_kernel(spec, m)
stacked = [list(v) for v in basis.vectors] + [list(v) for v in kernel.vectors]
print("kernel-route dimension:", kernel.count,
      "= C(m+N-2, m) =", singular_dimension_formula(spec.n_sites, m))
print("stacked rank (spans agree):", rank(stacked))

print("\ntruncated regime: weights (1,1), m = 2")
print("  kernel dimension:", singular_basis_kernel((1, 1), 2).count,
      "< formula value", singular_dimension_formula(2, 2))
