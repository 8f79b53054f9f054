"""Exact-plus-numeric toolkit for the SL(2) Gaudin model.

Exact rational weight-space algebra (generators, commuting Hamiltonians,
singular vectors) cross-validated against numerical joint diagonalization
and Bethe-equation root finding.
"""

from .sl2 import (
    DEFAULT_SEED,
    ModelSpec,
    SparseOperator,
    WeightSpace,
    build_site_operator,
    build_total_generator,
    enumerate_weight_space,
    weight_space_dimension_formula,
)
from .hamiltonians import (
    VerifyReport,
    build_hamiltonian,
    hamiltonian_array,
    independent_count,
    vacuum_eigenvalue,
    verify_family,
)
from .singular import (
    GordanCoefficients,
    GordanSingularityError,
    SingularBasis,
    UnsupportedRegimeError,
    apply_P,
    compositions,
    gordan_coefficients,
    pochhammer,
    singular_basis_gordan,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
)
from .eigenbasis import (
    CompletenessError,
    DiagonalizationError,
    EigenBasis,
    InvarianceError,
    EigenVector,
    build_eigenbasis,
    diagonalize_singular,
    verify_nonsingularity,
)
from .bethe import (
    BetheSolution,
    SolutionReport,
    bethe_residual,
    bethe_vector,
    lowering_field,
    solve_bethe,
    solve_bethe_numeric,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "ModelSpec",
    "SparseOperator",
    "WeightSpace",
    "build_site_operator",
    "build_total_generator",
    "enumerate_weight_space",
    "weight_space_dimension_formula",
    "VerifyReport",
    "build_hamiltonian",
    "hamiltonian_array",
    "independent_count",
    "vacuum_eigenvalue",
    "verify_family",
    "GordanCoefficients",
    "GordanSingularityError",
    "SingularBasis",
    "UnsupportedRegimeError",
    "apply_P",
    "compositions",
    "gordan_coefficients",
    "pochhammer",
    "singular_basis_gordan",
    "singular_basis_kernel",
    "singular_dimension",
    "singular_dimension_formula",
    "CompletenessError",
    "DiagonalizationError",
    "EigenBasis",
    "InvarianceError",
    "EigenVector",
    "build_eigenbasis",
    "diagonalize_singular",
    "verify_nonsingularity",
    "BetheSolution",
    "SolutionReport",
    "bethe_residual",
    "bethe_vector",
    "lowering_field",
    "solve_bethe",
    "solve_bethe_numeric",
    "verify_solution",
]
