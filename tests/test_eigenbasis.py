import gc
import itertools
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
    hamiltonian_array,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
    solve_bethe,
    solve_bethe_numeric,
    verify_nonsingularity,
)
from gaudin import bethe, eigenbasis, hamiltonians
from gaudin.eigenbasis import _joint_eigen, _singular_eigen, _singular_frame
from gaudin.sl2 import (
    DEFAULT_SEED,
    _gather_sum,
    _lowering_map,
    _pad,
    _raising_gathers,
    _scatter,
    _shapovalov_norms,
)

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

            def faulty(spec, k):
                src, coef = original(spec, k)
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

        def counting(spec, m):
            built.append(m)
            return original(spec, m)

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
        # the module ends at sum(weights) = 2
        with pytest.raises(ValueError, match="m_max must lie in 0..sum"):
            build_eigenbasis(SPEC2, 3)


WHOLE_MODULE = [(1, 2), (1, 1, 3), (2, 2, 2), (2, 3, 3, 4), (3, 3, 3, 3)]


class TestWholeModule:
    """build_eigenbasis through the top level sum(weights), past min(weights)."""

    @pytest.mark.parametrize("weights", WHOLE_MODULE)
    def test_every_level_is_complete_and_verified(self, weights):
        spec = ladder_spec(weights)
        top = spec.total_weight
        basis = build_eigenbasis(spec, top)
        assert len(basis.levels) == top + 1
        for m, level in enumerate(basis.levels):
            assert len(level) == enumerate_weight_space(spec, m).dim
            assert max(v.residual for v in level) <= eigenbasis.DEFAULT_TOL
            assert (len(basis.singular_at(m)) == 0) == (2 * m > top)
            if m:
                report = verify_nonsingularity(basis, m)
                assert report.ok and report.worst_relative_error <= eigenbasis.DEFAULT_TOL
            for v in basis.nonsingular_at(m):
                # preimage indexes the full previous level, and the chain from a
                # singular vector at level a has at most top - 2a lowerings
                parent = basis.levels[m - 1][v.preimage]
                assert v.times_lowered == parent.times_lowered + 1 <= top - 2 * (m - v.times_lowered)
                assert np.array_equal(v.eigenvalues, parent.eigenvalues)

    @pytest.mark.parametrize("weights", WHOLE_MODULE)
    def test_weyl_symmetry_of_the_eigenvalues(self, weights):
        # the Weyl element maps V_m onto V_{top - m} and commutes with every H_i
        spec = ladder_spec(weights)
        top = spec.total_weight
        basis = build_eigenbasis(spec, top)

        def tuples(m):
            return np.array(sorted(tuple(v.eigenvalues.real) for v in basis.levels[m]))

        for m in range(top // 2 + 1):
            assert np.max(np.abs(tuples(m) - tuples(top - m))) <= 1e-7

    @pytest.mark.parametrize("weights", WHOLE_MODULE)
    def test_eigenvalues_match_the_dense_spectrum(self, weights):
        # at every level the values t . E(v) of the basis are the spectrum of sum_i t_i H_i on V_m: levels m
        # and top - m are built alike, so the Weyl symmetry alone cannot catch a wrong value
        spec = ladder_spec(weights)
        top = spec.total_weight
        basis = build_eigenbasis(spec, top)
        t = np.random.default_rng(1729).standard_normal(spec.n_sites)
        for m in range(top + 1):
            dense = sum(w * hamiltonian_array(spec.weights, spec.z, i, m) for i, w in enumerate(t))
            want = np.sort(np.linalg.eigvals(dense).real)
            got = np.sort([t @ v.eigenvalues.real for v in basis.levels[m]])
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_an_ended_chain_is_not_lowered(self):
        # weights (1, 1): the singular vector of V_1 (a = 1) has 2 - 2 = 0
        # lowerings, so V_2 is the vacuum lowered twice, from preimage 0 alone
        basis = build_eigenbasis(SPEC2, 2)
        (top,) = basis.levels[2]
        assert basis.levels[1][1].origin == "singular"
        assert (top.origin, top.preimage) == ("lowered:2", 0)
        assert top.exact_eigenvalues == basis.levels[0][0].exact_eigenvalues


def complex_lowered(spec, basis, m):
    """The lowered vectors of level m by complex formulas from their parents' complex fields.

    Complex _lower of the stacked parent coords, the norm of each complex row,
    the row over its norm, and the complex _residual: the real path must give
    the same bits.
    """
    parents = [basis.levels[m - 1][v.preimage] for v in basis.nonsingular_at(m)]
    unit = np.ones((spec.n_sites, 1))
    images = eigenbasis._lower(np.array([p.coords for p in parents]).T, _lowering_map(spec.weights, m - 1), unit).T
    norms = [float(np.linalg.norm(image)) for image in images]
    units = [image / norm for image, norm in zip(images, norms)]
    eigenvalues = np.array([p.eigenvalues for p in parents])
    gathers = eigenbasis._level_family(spec, m)[1]
    return units, eigenvalues, eigenbasis._residual(gathers, np.array(units).T, eigenvalues.T), norms


def complex_nonsingularity(basis, m):
    """The relative errors of verify_nonsingularity, from E-images of the complex coords."""
    level = basis.levels[m]
    raise_e = _raising_gathers(basis.spec.weights, m)
    images = _gather_sum(_pad(np.array([v.coords for v in level]).T), *raise_e).T
    errors = []
    for vec, image in zip(level, images):
        if vec.origin != "singular":
            k = vec.times_lowered
            scalar = k * (basis.spec.total_weight - 2 * (m - 1) + k - 1)
            predicted = (scalar / vec.lowering_norm) * basis.levels[m - 1][vec.preimage].coords
            errors.append(float(np.max(np.abs(image - predicted)) / max(np.max(np.abs(image)), 1e-300)))
    return errors


def complex_singular(spec, m, seed):
    """The singular coords of V_m by per-vector formulas: each column over its norm and over the
    phase v_k / |v_k| of its largest entry, sorted by their eigenvalue tuples."""
    count = singular_dimension(spec, m)
    root, frame, vecs, eigs = _singular_eigen(spec.weights, m, count, eigenbasis._level_family(spec, m)[1], seed)
    columns = []
    for col in ((frame @ vecs) / root[:, None]).T:
        v = col / np.linalg.norm(col)
        k = np.argmax(np.abs(v))
        columns.append((tuple(eigs[:, len(columns)]), (v / (v[k] / abs(v[k]))).astype(complex)))
    return [v for _, v in sorted(columns, key=lambda pair: pair[0])]


class TestRealPath:
    """The levels run on real arrays; every EigenVector field keeps the bits of the complex formulas."""

    @pytest.mark.parametrize("seed", [1729, 555])
    @pytest.mark.parametrize("weights, m_max", [((2, 3, 3, 4), 2), ((2, 2, 2, 2), 2), ((1, 1, 3), 5)])
    def test_lowered_levels_match_the_complex_formulas(self, weights, m_max, seed):
        spec = ladder_spec(weights)
        basis = build_eigenbasis(spec, m_max, seed=seed)
        for m in range(1, m_max + 1):
            lowered = basis.nonsingular_at(m)
            units, eigenvalues, residuals, norms = complex_lowered(spec, basis, m)
            for v, coords, values, res, norm in zip(lowered, units, eigenvalues, residuals, norms):
                assert v.coords.dtype == v.eigenvalues.dtype == np.complex128
                assert v.coords.tobytes() == coords.tobytes()
                assert v.eigenvalues.tobytes() == values.tobytes()
                assert np.float64(v.residual).tobytes() == res.tobytes()
                assert np.float64(v.lowering_norm).tobytes() == np.float64(norm).tobytes()
            assert not np.any(np.array([v.coords.imag for v in basis.levels[m]]))
            singular = basis.singular_at(m)
            by_tuple = sorted(singular, key=lambda ev: tuple((s.real, s.imag) for s in ev.eigenvalues))
            assert [id(v) for v in by_tuple] == [id(v) for v in singular]
            if len(singular) > 1:
                reference = complex_singular(spec, m, seed)
                assert [v.coords.tobytes() for v in singular] == [v.tobytes() for v in reference]
            report = verify_nonsingularity(basis, m)
            errors = [check.relative_error for check in report.checks]
            assert np.array(errors).tobytes() == np.array(complex_nonsingularity(basis, m)).tobytes()
            assert report.worst_relative_error == max(errors)


def dense_family(weights, diffs, m):
    """The H_i on V_m as 2N - 1 dense gathers over _pair_map's src, sentinels included: (src, coef), coef of
    shape (2N - 1, N, dim, 1), the diagonal summed over j != i in ascending order and each k / 2 over diffs[i, j]."""
    src, k = hamiltonians._pair_map(weights, m)
    n, dim = src.shape[1:]
    r = np.arange(n - 1)[:, None]
    terms = k / 2 / diffs[np.arange(n), r + (r >= np.arange(n))][:, :, None, None]
    diag = np.zeros((n, dim), dtype=diffs.dtype)
    for row in terms[:, :, 0]:
        diag = diag + row
    hops = terms[:, :, 1:].transpose(0, 2, 1, 3).reshape(-1, n, dim)
    return src, np.concatenate([diag[None], hops])[..., None]


def same_bits(a, b) -> bool:
    """Equal bits once each zero is made +0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


class TestImages:
    """_images against the dense gathers of every term, absent hops included, which it skips."""

    @pytest.mark.parametrize("block", [None, 1])
    def test_matches_the_dense_gathers(self, rng, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(eigenbasis, "_BLOCK", block)  # every site its own chunk
        specs = [random_spec(rng, n_max=5, lam_max=3) for _ in range(4)] + [SPEC2, ladder_spec((1, 3, 2))]
        for spec in specs:
            real_z = np.array([float(x) for x in spec.z])
            for z in (real_z, real_z + 1j * rng.standard_normal(spec.n_sites)):
                diffs = z[:, None] - z
                for m in range(spec.total_weight + 1):
                    hams = hamiltonians._gather_forms(spec.weights, diffs, m)
                    src, coef = dense_family(spec.weights, diffs, m)
                    dim = src.shape[2]
                    for width, dtype in itertools.product((1, 3), (float, complex)):
                        vecs = rng.standard_normal((dim, width))
                        if dtype is complex:
                            vecs = vecs + 1j * rng.standard_normal((dim, width))
                        want = _gather_sum(_pad(vecs), src, coef)
                        got = np.concatenate([images for _, images in eigenbasis._images(hams, vecs)])
                        assert same_bits(got, want)
                        for c in range(width):
                            alone = np.concatenate([g for _, g in eigenbasis._images(hams, vecs[:, c : c + 1])])
                            assert alone.tobytes() == np.ascontiguousarray(got[:, :, c : c + 1]).tobytes()

    def test_array_is_the_dense_scatter(self, rng):
        for spec in [random_spec(rng, n_max=5, lam_max=3) for _ in range(3)] + [SPEC2]:
            real_z = np.array([complex(x) for x in spec.z])
            for z in (real_z, real_z + 1j * rng.standard_normal(spec.n_sites)):
                for m in range(spec.total_weight + 1):
                    src, coef = dense_family(spec.weights, z[:, None] - z, m)
                    for i in range(spec.n_sites):
                        want = _scatter(src[:, i], coef[:, i], src.shape[2], complex)
                        assert hamiltonian_array(spec.weights, z, i, m).tobytes() == want.tobytes()


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
