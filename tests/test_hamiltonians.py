from fractions import Fraction

import numpy as np

from gaudin import (
    ModelSpec,
    SparseOperator,
    build_hamiltonian,
    build_site_operator,
    build_total_generator,
    enumerate_weight_space,
    hamiltonian_array,
    hamiltonian_family,
    independent_count,
    vacuum_eigenvalue,
    verify_family,
)
from gaudin.hamiltonians import _float_array, _integer_family, _pair_terms, _scale
from gaudin.rational_linalg import rank
from gaudin.singular import singular_basis_kernel
from gaudin.sl2 import _shapovalov_norms

from conftest import random_spec


SPEC2 = ModelSpec((1, 1), (Fraction(0), Fraction(1)))


class TestVacuum:
    def test_two_site_value(self):
        assert vacuum_eigenvalue(SPEC2, 0) == Fraction(-1, 2)

    def test_three_site_cancellation(self):
        spec = ModelSpec((1, 1, 1), (Fraction(0), Fraction(1), Fraction(2)))
        assert vacuum_eigenvalue(spec, 1) == 0

    def test_vacuum_sum_is_zero(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            assert sum(vacuum_eigenvalue(spec, i) for i in range(spec.n_sites)) == 0

    def test_matches_matrix_on_v0(self, rng):
        spec = random_spec(rng)
        for i in range(spec.n_sites):
            op = build_hamiltonian(spec, i, 0)
            assert op.rows() == [[vacuum_eigenvalue(spec, i)]]


class TestBuildHamiltonian:
    def test_two_site_level_one_matrix(self):
        # hand application of the site actions in the basis {(0,1), (1,0)}
        op = build_hamiltonian(SPEC2, 0, 1)
        assert op.rows() == [
            [Fraction(1, 2), Fraction(-1)],
            [Fraction(-1), Fraction(1, 2)],
        ]

    def test_sum_is_zero_matrix(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(min(spec.min_weight, 2) + 1):
                mats = hamiltonian_family(spec, m).matrices
                total = mats[0]
                for mat in mats[1:]:
                    total = total + mat
                assert total.is_zero()

    def test_complex_array_matches_exact(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        z = np.array([complex(Fraction(x)) for x in spec.z])
        for i in range(spec.n_sites):
            exact = build_hamiltonian(spec, i, 1).to_array(complex)
            arr = hamiltonian_array(spec.weights, z, i, 1)
            assert np.allclose(exact, arr, atol=1e-14)


class TestVerifyFamily:
    def test_valid_spec_passes(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=2)
            for m in range(spec.min_weight + 1):
                report = verify_family(spec, m)
                assert report.commuting and report.sum_zero and report.symmetry_commute

    def test_two_site_commuting_is_forced(self):
        # H_2 = -H_1, so the commutator vanishes identically
        report = verify_family(SPEC2, 1)
        assert report.commuting

    def test_tampered_matrix_detected(self):
        spec = ModelSpec((1, 1, 1), (Fraction(0), Fraction(1), Fraction(2)))
        mats = hamiltonian_family(spec, 1).matrices
        mats[0].add_term(0, 1, Fraction(1, 3))
        report = verify_family(spec, 1, matrices=mats)
        assert not report.commuting
        assert not report.sum_zero
        assert not report.all_ok

    def test_entry_with_prime_denominator_detected(self):
        # D = 42 for this ladder; 7919 is a prime coprime to it
        spec = ladder_spec((2, 2, 2))
        assert _scale(spec.z) == 42
        for m in (1, 2):
            mats = hamiltonian_family(spec, m).matrices
            mats[0].add_term(0, 1, Fraction(1, 7919))
            report = verify_family(spec, m, matrices=mats)
            assert not report.commuting
            assert not report.sum_zero

    def test_shift_by_identity_breaks_only_the_intertwining(self):
        # H_i + c_i I with sum c_i = 0 still commutes and sums to zero, but
        # no longer intertwines with E; at the top level there is no F check
        spec = ladder_spec((1, 2, 2))
        shifts = (Fraction(1, 5), Fraction(-3), Fraction(14, 5))
        for m in (1, spec.total_weight):
            mats = hamiltonian_family(spec, m).matrices
            for mat, c in zip(mats, shifts):
                for k in range(mat.domain.dim):
                    mat.add_term(k, k, c)
            report = verify_family(spec, m, matrices=mats)
            assert report.commuting and report.sum_zero
            assert not report.symmetry_commute

    def test_every_commutator_pair_is_checked(self):
        # only the pair (a, b) fails to commute: M_a = e_01, M_b = e_10, others zero
        spec = ladder_spec((1, 1, 1, 1))
        space = enumerate_weight_space(spec, 1)
        n = spec.n_sites
        for a in range(n):
            for b in range(a + 1, n):
                mats = [SparseOperator.zero(space, space) for _ in range(n)]
                mats[a].add_term(0, 1, 1)
                mats[b].add_term(1, 0, 1)
                assert not verify_family(spec, 1, matrices=mats).commuting


def ladder_spec(weights, den=None):
    z = [Fraction(k * k + 1, k + 2) for k in range(len(weights))]
    if den is not None:
        z = [x + Fraction(k + 1, den) for k, x in enumerate(z)]
    return ModelSpec(tuple(weights), tuple(z))


def reference_hamiltonian(spec, i, m):
    """H_i from site operators, composed and scaled in Fractions."""
    n = spec.n_sites
    w = spec.weights
    space = enumerate_weight_space(spec, m)
    out = SparseOperator.zero(space, space)
    for j in range(n):
        if j == i:
            continue
        term = (build_site_operator("H", i, w, m) @ build_site_operator("H", j, w, m)).scaled(
            Fraction(1, 2)
        )
        if m < spec.total_weight:
            term = term + build_site_operator("E", i, w, m + 1) @ build_site_operator("F", j, w, m)
        if m >= 1:
            term = term + build_site_operator("F", i, w, m - 1) @ build_site_operator("E", j, w, m)
        out = out + term.scaled(1 / (spec.z[i] - spec.z[j]))
    return out


def reference_array(weights, z, i, m):
    """The complex matrix summed in _pair_terms order from float(Fraction) terms."""
    space = enumerate_weight_space(weights, m)
    arr = np.zeros((space.dim, space.dim), dtype=complex)
    for row, col, j, k in _pair_terms(weights, space.states, space.index, i):
        arr[row, col] += float(Fraction(k, 2)) / (z[i] - z[j])
    return arr


class TestIntegerScaling:
    def random_spec_97(self, rng):
        """Random weights and z with a denominator of 97."""
        n = int(rng.integers(2, 5))
        weights = tuple(int(rng.integers(1, 4)) for _ in range(n))
        picks = rng.choice(np.arange(-300, 300), size=n, replace=False)
        return ModelSpec(weights, tuple(Fraction(int(p), 97) for p in picks))

    def test_build_matches_fraction_formula(self, rng):
        for _ in range(6):
            spec = self.random_spec_97(rng)
            assert any(x.denominator == 97 for x in spec.z)
            for m in range(spec.total_weight + 1):
                for i in range(spec.n_sites):
                    op = build_hamiltonian(spec, i, m)
                    assert op.entries() == reference_hamiltonian(spec, i, m).entries()
                    assert all(type(v) is Fraction for _, _, v in op.entries())

    def test_integer_family_is_scale_times_family(self, rng):
        for _ in range(4):
            spec = self.random_spec_97(rng)
            scale = _scale(spec.z)
            assert scale % 2 == 0
            for m in range(spec.total_weight + 1):
                ints = _integer_family(spec, m, scale)
                for i, op in enumerate(ints):
                    assert all(type(v) is int for _, _, v in op.entries())
                    exact = build_hamiltonian(spec, i, m)
                    assert [(r, c, Fraction(v, scale)) for r, c, v in op.entries()] == exact.entries()
                    assert np.array_equal(_float_array(op, scale), exact.to_array(float))

    def test_array_matches_float_formula(self, rng):
        for _ in range(4):
            spec = self.random_spec_97(rng)
            real_z = np.array([complex(x) for x in spec.z])
            complex_z = real_z + 1j * np.arange(spec.n_sites) / 7
            for z in (real_z, complex_z):
                for m in range(spec.total_weight + 1):
                    for i in range(spec.n_sites):
                        arr = hamiltonian_array(spec.weights, z, i, m)
                        assert np.array_equal(arr, reference_array(spec.weights, z, i, m))


class TestStructure:
    def test_exactly_n_minus_one_independent(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            assert independent_count(spec, 1) == spec.n_sites - 1

    def test_preserves_weight_space(self, rng):
        # every column of H_i stays inside V_m by construction; check shapes
        spec = random_spec(rng, n_max=4, lam_max=2)
        m = spec.min_weight
        op = build_hamiltonian(spec, 0, m)
        assert op.domain == op.codomain
        assert op.domain.m == m

    def test_singular_subspace_invariant(self, rng):
        # H_i maps the kernel of the total raising operator into itself
        for _ in range(3):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(1, spec.min_weight + 1):
                kernel = singular_basis_kernel(spec, m)
                if kernel.count == 0:
                    continue
                base = [list(v) for v in kernel.vectors]
                for i in range(spec.n_sites):
                    op = build_hamiltonian(spec, i, m)
                    images = [op.apply(list(v)) for v in kernel.vectors]
                    assert rank(base + images) == rank(base)

    def test_symmetric_for_the_shapovalov_form(self, rng):
        # S[r] (D H_i)[r, c] = S[c] (D H_i)[c, r] on integers, truncated levels included
        truncated = 0
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            scale = _scale(spec.z)
            for m in range(spec.total_weight + 1):
                truncated += m > spec.min_weight
                norms = _shapovalov_norms(spec.weights, m)
                for op in _integer_family(spec, m, scale):
                    rows = op.rows()
                    for r, row in enumerate(rows):
                        for c, value in enumerate(row):
                            assert norms[r] * value == norms[c] * rows[c][r]
        assert truncated > 0

    def test_intertwines_with_lowering(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        m = 1
        f_op = build_total_generator("F", spec, m - 1)
        for i in range(spec.n_sites):
            above = build_hamiltonian(spec, i, m)
            below = build_hamiltonian(spec, i, m - 1)
            assert (above @ f_op - f_op @ below).is_zero()
