"""The N commuting Gaudin Hamiltonians on each weight subspace.

    H_i = sum_{j != i} 1/(z_i - z_j) [ H^(i) H^(j) / 2 + E^(i) F^(j) + F^(i) E^(j) ]

Every H_i preserves each V_m.  Matrices are assembled state by state (each
basis state contributes O(N) terms per Hamiltonian), with exact rational
entries, so the algebraic identities [H_i, H_j] = 0 and sum_i H_i = 0 can be
checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational_linalg import rank
from .sl2 import (
    ModelSpec,
    SparseOperator,
    build_total_generator,
    enumerate_weight_space,
    _weights_of,
)


def _pair_terms(weights, states, index, i):
    """Yield (row, col, j, q): the H_i entry contribution q / (z_i - z_j)."""
    n_sites = len(weights)
    for col, s in enumerate(states):
        for j in range(n_sites):
            if j == i:
                continue
            # diagonal part: H^(i) H^(j) / 2
            yield col, col, j, Fraction((weights[i] - 2 * s[i]) * (weights[j] - 2 * s[j]), 2)
            # E^(i) F^(j): lowers n_i, raises n_j
            if s[i] > 0 and s[j] < weights[j]:
                t = list(s)
                t[i] -= 1
                t[j] += 1
                yield index[tuple(t)], col, j, Fraction(s[i] * (weights[i] - s[i] + 1))
            # F^(i) E^(j): raises n_i, lowers n_j
            if s[j] > 0 and s[i] < weights[i]:
                t = list(s)
                t[i] += 1
                t[j] -= 1
                yield index[tuple(t)], col, j, Fraction(s[j] * (weights[j] - s[j] + 1))


def build_hamiltonian(spec: ModelSpec, i: int, m: int) -> SparseOperator:
    """Exact matrix of H_i on V_m (site index i is 0-based)."""
    space = enumerate_weight_space(spec, m)
    op = SparseOperator.zero(space, space)
    for row, col, j, q in _pair_terms(spec.weights, space.states, space.index, i):
        op.add_term(row, col, q / (spec.z[i] - spec.z[j]))
    return op


def hamiltonian_array(weights, z, i: int, m: int) -> np.ndarray:
    """Dense complex matrix of H_i on V_m for arbitrary complex site points z."""
    weights = _weights_of(weights)
    z = np.asarray(z, dtype=complex)
    space = enumerate_weight_space(weights, m)
    arr = np.zeros((space.dim, space.dim), dtype=complex)
    for row, col, j, q in _pair_terms(weights, space.states, space.index, i):
        arr[row, col] += float(q) / (z[i] - z[j])
    return arr


def vacuum_eigenvalue(spec: ModelSpec, i: int) -> Fraction:
    """Exact eigenvalue of H_i on the vacuum vector."""
    return _vacuum_eigenvalue(spec.weights, spec.z, i)


def _vacuum_eigenvalue(weights, z, i: int):
    """sum_{j != i} lam_i lam_j / (2 (z_i - z_j)), in the number type of z (Fraction or complex)."""
    return sum(
        weights[i] * weights[j] / (2 * (z[i] - z[j])) for j in range(len(weights)) if j != i
    )


@dataclass
class HamiltonianFamily:
    """All N Hamiltonians on one weight subspace."""

    spec: ModelSpec
    m: int
    matrices: list


def hamiltonian_family(spec: ModelSpec, m: int) -> HamiltonianFamily:
    return HamiltonianFamily(
        spec, m, [build_hamiltonian(spec, i, m) for i in range(spec.n_sites)]
    )


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    return a @ b - b @ a


@dataclass
class VerifyReport:
    commuting: bool
    sum_zero: bool
    symmetry_commute: bool

    @property
    def all_ok(self) -> bool:
        return self.commuting and self.sum_zero and self.symmetry_commute


def verify_family(spec: ModelSpec, m: int, matrices=None) -> VerifyReport:
    """Exact checks of the Hamiltonian family on V_m.  Never raises on failure.

    commuting:        [H_i, H_j] = 0 for all pairs.
    sum_zero:         sum_i H_i = 0.
    symmetry_commute: H_i intertwines with E (V_m -> V_{m-1}), F
                      (V_m -> V_{m+1}) and commutes with the diagonal total H,
                      using the Hamiltonians built on each relevant degree.
    """
    if matrices is None:
        matrices = hamiltonian_family(spec, m).matrices
    n = spec.n_sites

    commuting = all(
        commutator(matrices[i], matrices[j]).is_zero()
        for i in range(n)
        for j in range(i + 1, n)
    )

    total = matrices[0]
    for mat in matrices[1:]:
        total = total + mat
    sum_zero = total.is_zero()

    symmetry = True
    h_tot = build_total_generator("H", spec, m)
    for i in range(n):
        if not commutator(matrices[i], h_tot).is_zero():
            symmetry = False
    if m >= 1:
        e_op = build_total_generator("E", spec, m)
        below = [build_hamiltonian(spec, i, m - 1) for i in range(n)]
        for i in range(n):
            if not (below[i] @ e_op - e_op @ matrices[i]).is_zero():
                symmetry = False
    if m < spec.total_weight:
        f_op = build_total_generator("F", spec, m)
        above = [build_hamiltonian(spec, i, m + 1) for i in range(n)]
        for i in range(n):
            if not (above[i] @ f_op - f_op @ matrices[i]).is_zero():
                symmetry = False

    return VerifyReport(commuting, sum_zero, symmetry)


def independent_count(spec: ModelSpec, m: int) -> int:
    """Rational rank of the vectorized Hamiltonians on V_m (N-1 for generic specs)."""
    mats = hamiltonian_family(spec, m).matrices
    vectorized = [[x for row in op.rows() for x in row] for op in mats]
    return rank(vectorized)
