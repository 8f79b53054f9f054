"""Solve the Bethe equations and cross-validate against the exact route.

Each solution w_1..w_m of

    sum_j lam_j/(w_k - z_j) + sum_{l != k} 2/(w_l - w_k) = 0

turns the Bethe vector F(w_1)...F(w_m) v_0 into a singular common
eigenvector.  The solver derives one root set from each singular joint
eigenvector, so the expected count is the exact singular dimension; it
annotates every solution with its eigenvalue tuple and residuals.
"""

from fractions import Fraction

import numpy as np

from gaudin import (
    ModelSpec,
    diagonalize_singular,
    singular_dimension,
    solve_bethe,
    solve_bethe_numeric,
)

spec = ModelSpec(weights=(2, 2), z=(Fraction(0), Fraction(1)))
m = 2
sols = solve_bethe(spec, m)
print(f"weights {spec.weights}, z = (0, 1), m = {m}: "
      f"found {len(sols)} of {singular_dimension(spec, m)} expected")
for sol in sols:
    roots = ", ".join(f"{w:.6f}" for w in sol.roots)
    print(f"  roots [{roots}]")
    print(f"  eigenvalues {np.round(sol.eigenvalues, 8)}")
    print(f"  residuals: equations {sol.residual_eq:.1e}, "
          f"eigen {sol.vector_residual:.1e}, singular {sol.singular_residual:.1e}")

print("\nsame eigenvalues from the exact singular-subspace route:")
for ev in diagonalize_singular(spec, m):
    print("  ", np.round(ev.eigenvalues, 8), "exact:", ev.exact_eigenvalues)

print("\ndegenerate site configuration (complex z): the two level-one roots collide")
z_degenerate = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)])
for sol in solve_bethe_numeric((1, 1, 1), z_degenerate, 1):
    print(f"  root {sol.roots[0]:.8f}, multiplicity flag: {sol.multiplicity_flag}")
