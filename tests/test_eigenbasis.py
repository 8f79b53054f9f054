import gc
import math
from fractions import Fraction

import numpy as np
import pytest

from gaudin import (
    CompletenessError,
    DiagonalizationError,
    ModelSpec,
    build_eigenbasis,
    build_hamiltonian,
    build_total_generator,
    diagonalize_singular,
    enumerate_weight_space,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
    solve_bethe,
    solve_bethe_numeric,
    verify_nonsingularity,
)
from gaudin import bethe, eigenbasis, hamiltonians
from gaudin.eigenbasis import _joint_eigen, _singular_eigen, _singular_frame
from gaudin.sl2 import DEFAULT_SEED, _shapovalov_norms

from conftest import random_spec


SPEC2 = ModelSpec((1, 1), (Fraction(0), Fraction(1)))
SPEC3 = ModelSpec((1, 1, 1), (Fraction(0), Fraction(1), Fraction(2)))


def angle_between(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    overlap = min(abs(np.vdot(a, b)), 1.0)
    return np.arccos(overlap)


def joint_residual(mats, vecs, eigs):
    return max(np.max(np.abs(mat @ vecs - vecs * e)) for mat, e in zip(mats, eigs))


def shapovalov_root(weights, m):
    """The diagonal of S^1/2 on V_m, as floats."""
    return np.sqrt(np.array(_shapovalov_norms(weights, m), dtype=float))


def scaled_raising(weights, m):
    """S_{m-1}^1/2 E S_m^-1/2 from the dense total E: F E on V_m has the squares of its singular values."""
    raise_e = build_total_generator("E", weights, m).to_array(float)
    return shapovalov_root(weights, m - 1)[:, None] * raise_e / shapovalov_root(weights, m)


def svd_frame(weights, m, count):
    """The reference frame of S^1/2 ker E: the last count right singular vectors of scaled_raising."""
    return np.linalg.svd(scaled_raising(weights, m))[2][-count:].T


def near_degenerate_family(seed, gap):
    """Three commuting symmetric 6x6 matrices whose first seeded combination splits one pair by gap.

    Joint eigenvectors 0 and 1 differ by d in the three eigenvalues, with d of
    size 3 but t . d = gap for the weights t of that first combination.
    """
    t = np.random.default_rng(seed).standard_normal(3)
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    values = rng.integers(-9, 10, size=(3, 6)).astype(float)
    d = rng.standard_normal(3)
    d -= (t @ d) / (t @ t) * t
    d *= 3 / np.max(np.abs(d))
    values[:, 1] = values[:, 0] + d + gap * t / (t @ t)
    return [q @ np.diag(v) @ q.T for v in values], t


class TestSimultaneousEigenvectors:
    """The joint-eigen routine shared by the eigenbasis and Bethe layers."""

    def test_diagonal_family(self):
        mats = [np.diag([1.0, 2.0, 3.0]), np.diag([5.0, 6.0, 7.0])]
        vecs, eigs = _joint_eigen(mats, DEFAULT_SEED)
        assert vecs.shape == (3, 3)
        assert sorted(np.round(eigs[0].real, 9)) == [1.0, 2.0, 3.0]

    def test_degenerate_joint_eigenvalues(self):
        # joint eigenspace of dimension 2: the cluster is re-split once, the
        # fresh combination cannot separate it either, and any orthonormal
        # basis passing the residual criterion is acceptable
        mats = [np.diag([1.0, 1.0, 2.0]), np.diag([4.0, 4.0, 9.0])]
        vecs, eigs = _joint_eigen(mats, DEFAULT_SEED)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
        assert joint_residual(mats, vecs, eigs) <= 1e-9

    def test_near_degenerate_cluster_is_resplit(self):
        # the first combination leaves a gap of 1e-10 (far below 1e-6 of its
        # spread) between two joint eigenvectors that the family separates by
        # about 3; eigh mixes them, and only the re-split with a fresh
        # combination brings the residual under the gate
        mats, t = near_degenerate_family(DEFAULT_SEED, 1e-10)
        combo = np.linalg.eigvalsh(sum(ti * mat for ti, mat in zip(t, mats)))
        assert np.min(np.diff(combo)) < 1e-6 * (combo[-1] - combo[0])
        vecs, eigs = _joint_eigen(mats, DEFAULT_SEED)
        assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)
        assert joint_residual(mats, vecs, eigs) <= 1e-9

    def test_empty_family_dimension(self):
        vecs, eigs = _joint_eigen([np.zeros((0, 0))], DEFAULT_SEED)
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

    @pytest.mark.parametrize("m", [-1, 3])
    def test_spin_deviation_outside_the_module_raises(self, m):
        with pytest.raises(ValueError, match=f"spin deviation m={m} outside 0..2"):
            diagonalize_singular(SPEC2, m)

    def test_level_without_singular_vectors_builds_no_raising_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("total E built for a level with no singular vectors")

        monkeypatch.setattr(eigenbasis, "_generator", refuse)
        spec = ModelSpec((1, 2), (Fraction(0), Fraction(1)))
        for m in (2, 3):
            assert diagonalize_singular(spec, m) == []

    def test_counts_and_residuals(self, rng):
        for _ in range(4):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.min_weight + 1):
                vecs = diagonalize_singular(spec, m)
                assert len(vecs) == singular_dimension_formula(spec.n_sites, m)
                for v in vecs:
                    assert v.residual <= 1e-9
                    assert abs(np.linalg.norm(v.coords) - 1.0) < 1e-12
                    assert (v.exact_eigenvalues is None) == (len(vecs) > 1)

    def test_bad_joint_vectors_fail_the_gate(self, monkeypatch):
        # the residual gate in V_m coordinates catches vectors that are not
        # joint eigenvectors, whatever the joint-eigen routine returns
        def rotated(mats, seed):
            vecs = np.linalg.qr(np.random.default_rng(seed).standard_normal(mats[0].shape))[0]
            return vecs, np.array([np.sum(vecs * (mat @ vecs), axis=0) for mat in mats])

        monkeypatch.setattr(eigenbasis, "_joint_eigen", rotated)
        spec = ladder_spec((2, 2, 2))
        with pytest.raises(DiagonalizationError) as err:
            diagonalize_singular(spec, 2)
        assert err.value.worst_residual > 1e-9

    def test_large_level_passes_the_gate(self):
        # (3,)*8 at m = 4: dim V_m = 322 and 202 singular vectors, each under
        # the absolute 1e-9 gate
        vecs = diagonalize_singular(ladder_spec((3,) * 8), 4)
        assert len(vecs) == 202
        assert max(v.residual for v in vecs) <= 1e-9


def ladder_spec(weights):
    return ModelSpec(weights, tuple(Fraction(k * k + 1, k + 2) for k in range(len(weights))))


class TestRestriction:
    def test_line_kernel_gives_exact_eigenvalues(self):
        # the trace difference tr H_i|V_m - tr H_i|V_{m-1} equals the eigenvalue
        # read off the exact kernel vector, also on the truncated level (1, 1, 3), m = 2
        cases = [((3, 5), m) for m in range(4)] + [((1, 2), 1), ((1, 1, 3), 2)]
        for weights, m in cases:
            spec = ladder_spec(weights)
            (vector,) = singular_basis_kernel(spec, m).vectors
            (found,) = diagonalize_singular(spec, m)
            for i, value in enumerate(found.exact_eigenvalues):
                image = build_hamiltonian(spec, i, m).apply(vector)
                assert list(image) == [value * x for x in vector]
        (found,) = diagonalize_singular(ladder_spec((1, 1, 3)), 2)
        assert found.exact_eigenvalues == (Fraction(1, 3), Fraction(51, 7), Fraction(-160, 21))
        found = diagonalize_singular(ladder_spec((1, 2, 3)), 2)
        assert len(found) > 1
        assert all(v.exact_eigenvalues is None for v in found)

    def test_exact_eigenvalues_of_an_int64_family_past_the_int64_traces(self):
        # z_1 - z_0 = (q - 1) / q gives h_01 = -q: every row of D_i H_i stays below 2^62, so the family is
        # int64, but its diagonal on V_6 sums to -112 q < -2^63, past what an int64 sum can hold
        q = (5 << 54) + 1
        spec = ModelSpec((6, 6), (Fraction(0), Fraction(q - 1, q)))
        for m in (5, 6):
            family = hamiltonians._exact_family(spec, m)
            assert family.coef.dtype == np.int64
            assert max(family.rowsums) * family.dim > 1 << 62
        (found,) = diagonalize_singular(spec, 6)

        def trace(i, m):
            return sum(v for r, c, v in build_hamiltonian(spec, i, m).entries() if r == c)

        assert abs(trace(0, 6)) * hamiltonians._site_scales(spec.z)[0] > 1 << 63
        assert found.exact_eigenvalues == tuple(trace(i, 6) - trace(i, 5) for i in range(2))

    def test_non_invariant_operator_raises(self, monkeypatch):
        # one changed entry of one D_i H_i breaks E H_i = H_i E, which the level checks exactly
        spec = ladder_spec((1, 2, 3))
        original = hamiltonians._integer_gathers
        for m in (1, 2):

            def faulty(spec, k, sites=None):
                src, coef = original(spec, k, sites)
                if k == m:
                    coef[0, 1, 0] += 1
                return src, coef

            monkeypatch.setattr(hamiltonians, "_integer_gathers", faulty)
            with pytest.raises(ValueError, match="does not preserve"):
                eigenbasis._diagonalize_level(spec, m, None, None, DEFAULT_SEED)

    def test_non_singular_frame_fails_the_gate(self, monkeypatch):
        # an orthonormal frame of the complement of the kernel: its lowered
        # vacuum is a joint eigenvector, but not a singular one
        original = eigenbasis._singular_frame

        def complement(weights, m, count):
            root, basis = original(weights, m, count)
            return root, np.linalg.qr(basis, mode="complete")[0][:, count:]

        monkeypatch.setattr(eigenbasis, "_singular_frame", complement)
        with pytest.raises(DiagonalizationError, match="singular residual") as err:
            diagonalize_singular(ladder_spec((3, 5)), 1)
        assert err.value.worst_residual > 1e-9


FRAME_CASES = [((3,) * 7, 3), ((4,) * 5, 4), ((2, 3, 3, 4), 2), ((1, 1, 3), 2)]


class TestSingularFrame:
    @pytest.mark.parametrize("weights, m", FRAME_CASES)
    def test_squared_singular_values_are_known_exactly(self, weights, m):
        # E's Shapovalov adjoint is F, so the squares are the eigenvalues of F E
        # on V_m: k (sum - 2m + k + 1) with multiplicity singular_dimension(m - k)
        computed = np.sort(np.linalg.svd(scaled_raising(weights, m), compute_uv=False) ** 2)
        expected = np.sort([
            float(k * (sum(weights) - 2 * m + k + 1))
            for k in range(1, m + 1)
            for _ in range(singular_dimension(weights, m - k))
        ])
        assert computed.shape == expected.shape
        assert np.max(np.abs(computed - expected) / expected) <= 1e-12
        assert expected[0] == sum(weights) - 2 * m + 2

    @pytest.mark.parametrize("weights, m", FRAME_CASES + [((2, 3, 3, 4), 0), ((1, 1, 3), 0)])
    def test_projector_frame_spans_the_svd_frame(self, weights, m):
        # (1, 1, 3) at m = 2 is truncated; the principal cosines of two
        # orthonormal frames are the singular values of their overlap
        count = singular_dimension(weights, m)
        root, basis = _singular_frame(weights, m, count)
        assert np.array_equal(root, shapovalov_root(weights, m))
        assert basis.shape == (len(root), count)
        assert np.max(np.abs(basis.T @ basis - np.eye(count))) <= 1e-13
        cosines = np.linalg.svd(basis.T @ svd_frame(weights, m, count), compute_uv=False)
        assert np.min(cosines) >= 1 - 1e-12

    @pytest.mark.parametrize("columns", [[0, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5]])
    def test_deficient_block_fails_the_frame_gate(self, monkeypatch, columns):
        # a repeated column leaves its |R_jj| at rounding level, a missing one
        # the wrong count, in both layers of the shared routine
        spec = ladder_spec((2, 2, 2, 2))
        original = eigenbasis._projected
        monkeypatch.setattr(eigenbasis, "_projected", lambda *args: original(*args)[:, columns])
        with pytest.raises(DiagonalizationError, match=f"frame of {len(columns)} of 6 columns") as err:
            diagonalize_singular(spec, 2)
        assert (err.value.worst_residual <= eigenbasis.DEFAULT_TOL_RANK) == (len(columns) == 6)
        with pytest.raises(DiagonalizationError, match="frame of"):
            solve_bethe(spec, 2)


class TestSharedRoutine:
    def test_both_layers_get_the_same_eigenvalue_tuples(self, monkeypatch):
        # integer z: the float differences of the Bethe layer equal the
        # rounded exact ones of the eigenbasis layer, so one routine on one
        # operator form gives both layers the same bits
        spec = ModelSpec((2, 2, 2, 2), (Fraction(0), Fraction(1), Fraction(3), Fraction(7)))
        calls = []

        def spy(*args):
            calls.append(_singular_eigen(*args))
            return calls[-1]

        monkeypatch.setattr(bethe, "_singular_eigen", spy)
        solve_bethe(spec, 2)
        ((*_, eigs),) = calls
        found = diagonalize_singular(spec, 2)
        assert len(found) == eigs.shape[1] == singular_dimension(spec, 2) > 1
        tuples = sorted(eigs.T.astype(complex).tolist(), key=lambda t: [(x.real, x.imag) for x in t])
        assert np.array_equal(np.array(tuples), np.array([v.eigenvalues for v in found]))

    def test_coalescing_sites_keep_their_accuracy(self):
        # sites 1 and 1 + 1/1000: H_i has entries of order 1e3, and the
        # correctly rounded exact differences keep every residual small
        spec = ModelSpec((2, 2, 2, 2), (Fraction(0), Fraction(1), Fraction(1001, 1000), Fraction(3)))
        basis = build_eigenbasis(spec, 2)
        assert max(v.residual for level in basis.levels for v in level) <= 1e-11


class TestBuildEigenbasis:
    def test_one_hamiltonian_family_per_level(self, monkeypatch):
        built = []
        original = hamiltonians._integer_gathers

        def counting(spec, m, sites=None):
            built.append(m)
            return original(spec, m, sites)

        monkeypatch.setattr(hamiltonians, "_integer_gathers", counting)
        spec = ladder_spec((3, 3, 3, 3))
        basis = build_eigenbasis(spec, 3)
        assert built == [0, 1, 2, 3]
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
        vacuum = basis.levels[0][0]
        assert vacuum.origin == "singular"
        # the singular subspace of V_0 is the vacuum, with its exact eigenvalues
        assert np.array_equal(vacuum.coords, [1.0 + 0.0j]) and vacuum.residual == 0.0
        assert vacuum.exact_eigenvalues == (Fraction(-1, 2), Fraction(1, 2))

    def test_level_zero_passes_the_residual_gate(self, monkeypatch):
        def too_large(hams, vecs, eigenvalues):
            return np.full(vecs.shape[1], 10 * eigenbasis.DEFAULT_TOL)

        monkeypatch.setattr(eigenbasis, "_residual", too_large)
        with pytest.raises(DiagonalizationError):
            build_eigenbasis(ladder_spec((2, 3, 3, 4)), 0)

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


class TestCompletenessFailures:
    """The completeness checks of build_eigenbasis, each driven by one faulty step."""

    def test_annihilated_lowered_vector_raises(self, monkeypatch):
        original = eigenbasis._lower

        def first_image_zero(psi, src, coef):
            out = original(psi, src, coef)
            out[:, 0] = 0
            return out

        monkeypatch.setattr(eigenbasis, "_lower", first_image_zero)
        with pytest.raises(CompletenessError, match="lowering annihilated an eigenvector at level 1"):
            build_eigenbasis(SPEC2, 1)

    @pytest.mark.parametrize("edit", ["drop", "duplicate"])
    def test_miscounted_level_raises(self, monkeypatch, edit):
        original = eigenbasis._diagonalize_level

        def miscounted(spec, m, *args):
            level = original(spec, m, *args)
            return level if m == 0 else (level[1:] if edit == "drop" else level + level[:1])

        monkeypatch.setattr(eigenbasis, "_diagonalize_level", miscounted)
        count = 2 if edit == "drop" else 4  # one lowered vector and two singular ones, less or more one
        with pytest.raises(CompletenessError, match=f"level 1 has {count} vectors but dim V_m = 3"):
            build_eigenbasis(SPEC3, 1)

    def test_dependent_level_fails_the_rank_check(self, monkeypatch):
        # the count holds, but one singular vector stands twice
        original = eigenbasis._diagonalize_level

        def repeated(spec, m, *args):
            level = original(spec, m, *args)
            return level if m == 0 else level[:1] * len(level)

        monkeypatch.setattr(eigenbasis, "_diagonalize_level", repeated)
        with pytest.raises(CompletenessError, match="level 1 stacked matrix min singular value"):
            build_eigenbasis(SPEC3, 1)


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

    def test_wrong_lowering_norm_fails_the_report(self):
        basis = build_eigenbasis(ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3, 2))), 2)
        vec = basis.nonsingular_at(2)[0]
        vec.lowering_norm *= 1 + 1e-6
        report = verify_nonsingularity(basis, 2)
        assert not report.ok
        assert report.worst_relative_error > eigenbasis.DEFAULT_TOL
        assert sum(check.relative_error > eigenbasis.DEFAULT_TOL for check in report.checks) == 1

    def test_lowered_vectors_not_annihilated(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=2)
        basis = build_eigenbasis(spec, spec.min_weight)
        for m in range(1, spec.min_weight + 1):
            raise_e = build_total_generator("E", spec, m).to_array(float)
            for v in basis.nonsingular_at(m):
                assert np.max(np.abs(raise_e @ v.coords)) > 1e-6


def test_no_reference_cycles():
    # the solvers leave no garbage that only the cycle collector frees: large
    # matrices held by a cycle would stay alive until a gc pass
    spec = ladder_spec((2, 2, 2))
    z = np.array([0.0, 1.0 + 0.5j, -1.0 + 2.0j])

    def run():
        solve_bethe(spec, 2)
        solve_bethe_numeric(spec.weights, z, 2)
        diagonalize_singular(spec, 2)
        build_eigenbasis(spec, 2)

    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
