import math
from fractions import Fraction

import numpy as np
import pytest

from gaudin import (
    DiagonalizationError,
    ModelSpec,
    build_eigenbasis,
    build_hamiltonian,
    build_site_operator,
    build_total_generator,
    diagonalize_singular,
    enumerate_weight_space,
    simultaneous_eigenvectors,
    singular_basis_kernel,
    singular_dimension_formula,
    verify_nonsingularity,
)
from gaudin import eigenbasis
from gaudin.eigenbasis import _restrict
from gaudin.hamiltonians import _integer_family, _scale

from conftest import random_spec


SPEC2 = ModelSpec((1, 1), (Fraction(0), Fraction(1)))


def angle_between(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    overlap = min(abs(np.vdot(a, b)), 1.0)
    return np.arccos(overlap)


class TestSimultaneousEigenvectors:
    def test_diagonal_family(self, rng):
        mats = [np.diag([1.0, 2.0, 3.0]), np.diag([5.0, 6.0, 7.0])]
        vecs, eigs = simultaneous_eigenvectors(mats, 1e-9, rng)
        assert vecs.shape == (3, 3)
        assert sorted(np.round(eigs[0].real, 9)) == [1.0, 2.0, 3.0]

    def test_degenerate_joint_eigenvalues(self, rng):
        # joint eigenspace of dimension 2: any basis passing the residual
        # criterion is acceptable
        mats = [np.diag([1.0, 1.0, 2.0]), np.diag([4.0, 4.0, 9.0])]
        vecs, eigs = simultaneous_eigenvectors(mats, 1e-9, rng)
        for j in range(3):
            v = vecs[:, j]
            for a, mat in enumerate(mats):
                assert np.max(np.abs(mat @ v - eigs[a, j] * v)) <= 1e-9

    def test_conjugated_commuting_pair(self, rng):
        base = rng.standard_normal((4, 4))
        t = base @ np.linalg.inv(base + 5 * np.eye(4))  # well-conditioned similarity
        s = np.eye(4) + 0.3 * t
        d1 = s @ np.diag([1.0, 2.0, 3.0, 4.0]) @ np.linalg.inv(s)
        d2 = s @ np.diag([7.0, 5.0, 2.0, 1.0]) @ np.linalg.inv(s)
        vecs, eigs = simultaneous_eigenvectors([d1, d2], 1e-8, rng)
        for j in range(4):
            v = vecs[:, j]
            assert np.max(np.abs(d1 @ v - eigs[0, j] * v)) <= 1e-8
            assert np.max(np.abs(d2 @ v - eigs[1, j] * v)) <= 1e-8

    def test_noncommuting_family_fails(self, rng):
        mats = [
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
        ]
        with pytest.raises(DiagonalizationError) as err:
            simultaneous_eigenvectors(mats, 1e-12, rng)
        assert err.value.worst_residual > 1e-12

    def test_empty_family_dimension(self, rng):
        vecs, eigs = simultaneous_eigenvectors([np.zeros((0, 0))], 1e-9, rng)
        assert vecs.shape == (0, 0) and eigs.shape == (1, 0)


class TestDiagonalizeSingular:
    def test_vacuum_level(self):
        vecs = diagonalize_singular(SPEC2, 0)
        assert len(vecs) == 1
        v = vecs[0]
        assert v.origin == "singular"
        assert v.exact_eigenvalues == (Fraction(-1, 2), Fraction(1, 2))
        assert np.allclose(v.coords, [1.0])

    def test_two_site_level_one(self):
        vecs = diagonalize_singular(SPEC2, 1)
        assert len(vecs) == 1
        v = vecs[0]
        assert v.exact_eigenvalues == (Fraction(3, 2), Fraction(-3, 2))
        target = np.array([1.0, -1.0]) / np.sqrt(2)  # states (0,1), (1,0)
        assert angle_between(v.coords, target) < 1e-12
        assert v.residual <= 1e-12

    def test_truncated_level_is_empty(self):
        assert diagonalize_singular(SPEC2, 2) == []

    def test_counts_and_residuals(self, rng):
        for _ in range(4):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.min_weight + 1):
                vecs = diagonalize_singular(spec, m)
                assert len(vecs) == singular_dimension_formula(spec.n_sites, m)
                for v in vecs:
                    assert v.residual <= 1e-9
                    assert abs(np.linalg.norm(v.coords) - 1.0) < 1e-12


def ladder_spec(weights):
    return ModelSpec(weights, tuple(Fraction(k * k + 1, k + 2) for k in range(len(weights))))


class TestRestriction:
    def test_kernel_times_restriction_is_image(self):
        # a generic level (N, lam, m) = (5, 4, 3) and a truncated one, m > min(weights)
        for spec, m in ((ladder_spec((4,) * 5), 3), (ladder_spec((1, 2, 3, 4)), 3)):
            vectors = singular_basis_kernel(spec, m).vectors
            scale = _scale(spec.z)
            restricted = _restrict(
                _integer_family(spec, m, scale), scale, vectors, build_total_generator("E", spec, m)
            )
            hams = [build_hamiltonian(spec, i, m) for i in range(spec.n_sites)]
            count = len(vectors)
            assert count > 0
            for op, mat in zip(hams, restricted):
                for col in range(count):
                    image = op.apply(list(vectors[col]))
                    combo = [
                        sum(vectors[k][r] * mat[k][col] for k in range(count))
                        for r in range(len(image))
                    ]
                    assert combo == image

    def test_non_invariant_operator_raises(self):
        spec = ladder_spec((1, 2, 3))
        vectors = singular_basis_kernel(spec, 2).vectors
        site_h = build_site_operator("H", 0, spec, 2)
        with pytest.raises(ValueError, match="does not preserve"):
            _restrict([site_h], 1, vectors, build_total_generator("E", spec, 2))


class TestBuildEigenbasis:
    def test_one_hamiltonian_family_per_level(self, monkeypatch):
        built = []
        original = eigenbasis._integer_family

        def counting(spec, m, scale):
            built.append(m)
            return original(spec, m, scale)

        monkeypatch.setattr(eigenbasis, "_integer_family", counting)
        spec = ladder_spec((3, 3, 3, 3))
        basis = build_eigenbasis(spec, 3)
        assert built == [1, 2, 3]
        for m in (1, 2, 3):
            alone = diagonalize_singular(spec, m)
            assert len(alone) == len(basis.singular_at(m))
            for a, b in zip(alone, basis.singular_at(m)):
                assert np.array_equal(a.coords, b.coords)
                assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_two_site_level_one(self):
        basis = build_eigenbasis(SPEC2, 1)
        level = basis.levels[1]
        assert len(level) == 2
        values = sorted(v.eigenvalues[0].real for v in level)
        assert np.allclose(values, [-0.5, 1.5])
        lowered = basis.nonsingular_at(1)
        assert len(lowered) == 1
        assert lowered[0].origin == "lowered:1"
        assert lowered[0].exact_eigenvalues == (Fraction(-1, 2), Fraction(1, 2))

    def test_level_zero_unique(self):
        basis = build_eigenbasis(SPEC2, 0)
        assert len(basis.levels[0]) == 1
        assert basis.levels[0][0].origin == "singular"

    def test_eigenvalue_inheritance_is_copy(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        basis = build_eigenbasis(spec, spec.min_weight)
        for m in range(1, spec.min_weight + 1):
            for v in basis.nonsingular_at(m):
                parent = basis.levels[m - 1][v.preimage]
                assert np.array_equal(v.eigenvalues, parent.eigenvalues)

    def test_counts_match_dimensions(self, rng):
        for _ in range(4):
            spec = random_spec(rng, n_max=4, lam_max=3)
            basis = build_eigenbasis(spec, spec.min_weight)
            for m in range(spec.min_weight + 1):
                dim = enumerate_weight_space(spec, m).dim
                assert len(basis.levels[m]) == dim
                expected_ns = (
                    math.comb(m + spec.n_sites - 2, m - 1) if m >= 1 else 0
                )
                assert len(basis.nonsingular_at(m)) == expected_ns
                for v in basis.levels[m]:
                    assert v.residual <= 1e-9

    def test_stacked_matrix_nonsingular(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        basis = build_eigenbasis(spec, spec.min_weight)
        for m in range(spec.min_weight + 1):
            stacked = np.array([v.coords for v in basis.levels[m]])
            assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-8

    def test_m_max_out_of_regime(self):
        with pytest.raises(ValueError):
            build_eigenbasis(SPEC2, 2)


class TestVerifyNonsingularity:
    def test_first_level_scalar_is_total_weight(self):
        # E (F v_0) = (sum of weights) v_0
        basis = build_eigenbasis(SPEC2, 1)
        report = verify_nonsingularity(basis, 1)
        assert report.ok
        (check,) = report.checks
        assert check.scalar == SPEC2.total_weight == 2
        assert check.relative_error <= 1e-12

    def test_scalars_positive_and_colinear(self, rng):
        fixed = ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3, 2)))
        specs = [fixed] + [random_spec(rng, n_max=4, lam_max=3) for _ in range(3)]
        for spec in specs:
            basis = build_eigenbasis(spec, spec.min_weight)
            for m in range(1, spec.min_weight + 1):
                report = verify_nonsingularity(basis, m)
                assert report.ok
                assert report.worst_relative_error <= 1e-9
                for check in report.checks:
                    k = check.times_lowered - 1
                    assert check.scalar == (k + 1) * (
                        spec.total_weight - 2 * (m - 1) + k
                    )
                    assert check.scalar > 0

    def test_lowered_vectors_not_annihilated(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=2)
        basis = build_eigenbasis(spec, spec.min_weight)
        for m in range(1, spec.min_weight + 1):
            raise_e = build_total_generator("E", spec, m).to_array(float)
            for v in basis.nonsingular_at(m):
                assert np.max(np.abs(raise_e @ v.coords)) > 1e-6
