"""Build the Gaudin Hamiltonians exactly and check their algebra.

Everything here is rational arithmetic: the commutators, the zero sum and
the intertwining with the total raising/lowering operators hold with zero
tolerance, so any assembly bug shows up deterministically.
"""

from fractions import Fraction

from gaudin import (
    ModelSpec,
    build_hamiltonian,
    independent_count,
    vacuum_eigenvalue,
    verify_family,
)

spec = ModelSpec(weights=(1, 1), z=(Fraction(0), Fraction(1)))

print("two-site model, weights (1,1), z = (0,1)")
print("vacuum eigenvalues:", [str(vacuum_eigenvalue(spec, i)) for i in range(2)])

h1 = build_hamiltonian(spec, 0, 1)
print("\nH_1 on V_1 in the basis {(0,1), (1,0)}:")
for row in h1.to_array(object):
    print("  ", [str(x) for x in row])

print("\nexact checks on V_1:", verify_family(spec, 1))

spec3 = ModelSpec(weights=(2, 1, 2), z=(Fraction(0), Fraction(1), Fraction(-1, 2)))
# dense matrices of Fractions: @ and + are exact
mats = [build_hamiltonian(spec3, i, 1).to_array(object) for i in range(3)]
a, b = mats[0], mats[1]
print("\nthree-site model, weights (2,1,2):")
print("  [H_1, H_2] is zero:", not (a @ b - b @ a).any())
total = mats[0] + mats[1] + mats[2]
print("  H_1 + H_2 + H_3 is zero:", not total.any())
print("  independent Hamiltonians (rank of the vectorized family):",
      independent_count(spec3, 1), "= N - 1")
