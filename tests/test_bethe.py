from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gaudin import (
    ModelSpec,
    SparseOperator,
    bethe_residual,
    bethe_vector,
    build_hamiltonian,
    build_site_operator,
    build_total_generator,
    diagonalize_singular,
    enumerate_weight_space,
    lowering_field,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
    solve_bethe,
    solve_bethe_numeric,
    vacuum_eigenvalue,
    verify_solution,
)
import gaudin
from gaudin.bethe import (
    _bethe_vectors,
    _canonical_order,
    _cofactors,
    _collapse,
    _diagnostics,
    _heine_stieltjes_polynomials,
    _jacobian,
    _lowering_map,
    _hamiltonian_gathers,
    _multiset_gaps,
    _polish,
    _residuals,
    _site_polynomials,
    _vacuum,
    _z_scale,
)
from gaudin.eigenbasis import DEFAULT_TOL, _images, _joint_eigen, _singular_eigen, _singular_frame
from gaudin.hamiltonians import _vacuum_eigenvalue, hamiltonian_array
from gaudin.sl2 import DEFAULT_SEED, _gather_sum, _pad, _raising_gathers

from conftest import lowering_field_exact, random_spec


SPEC2 = ModelSpec((1, 1), (Fraction(0), Fraction(1)))
SPEC3 = ModelSpec((1, 1, 1), (Fraction(0), Fraction(1), Fraction(2)))


def random_rational(rng, lo=-8, hi=8, den=5):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))


def rational_off_poles(rng, spec):
    while True:
        w = random_rational(rng)
        if all(w != zk for zk in spec.z):
            return w


def root_key(c):
    """The canonical key of one root, by the scalar round() of its real part."""
    return (round(c.real, 9), c.imag)


def canonically_sorted(roots):
    return np.array(sorted(roots, key=root_key))


def multiset_gap_reference(a, b):
    """Greedy matching distance between two root multisets, one pair at a time."""
    remaining = list(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        remaining.pop(j)
    return worst


def heine_stieltjes_matrix_reference(p_coeffs, r_coeffs, v, m):
    """The map y -> R y'' - P y' + V y on degree <= m, built by polymul for one V."""
    images = []
    for d in range(m + 1):
        mono = np.zeros(d + 1)
        mono[0] = 1.0
        image = np.polysub(np.polymul(r_coeffs, np.polyder(mono, 2)), np.polymul(p_coeffs, np.polyder(mono)))
        images.append(np.polyadd(image, np.polymul(v, mono)))
    size = max(len(image) for image in images)
    return np.array([np.pad(image, (size - len(image), 0)) for image in images]).T


def vandermonde_root_sets(weights, z, m):
    """The m >= 2 solver with V fitted by least squares on monomials at the z_i, V(z_i) = P(z_i) Lambda_i.

    The restriction basis^T S^1/2 H_i S^-1/2 basis to the frame uses the dense hamiltonian_array.
    """
    lam = np.array([float(x) for x in weights])
    hams = [hamiltonian_array(weights, z, i, m) for i in range(len(weights))]
    root, kernel = _singular_frame(weights, m, singular_dimension(weights, m))
    _, energies = _joint_eigen([kernel.T @ (root[:, None] * ham / root) @ kernel for ham in hams], DEFAULT_SEED)
    vacuum = np.array([_vacuum_eigenvalue(weights, z, i) for i in range(len(weights))], dtype=complex)
    site_sums = -(energies - vacuum[:, None]) / lam[:, None]
    p_coeffs, r_coeffs, _ = _site_polynomials(lam, z)
    fit = np.polyval(p_coeffs, z)[:, None] * site_sums
    v_coeffs = np.linalg.lstsq(np.vander(z, len(z) - 1), fit, rcond=None)[0]
    y = _heine_stieltjes_polynomials(p_coeffs, r_coeffs, v_coeffs, m)
    w, res = _polish(lam, z, np.array([np.roots(row[::-1]) for row in y], dtype=complex))
    return [roots for roots, _, _ in _collapse(lam, z, w[res <= gaudin.bethe.DEFAULT_TOL_ROOT])]


def collapse_reference(lam, z, rows, tol_root):
    """The collapse comparing each row with one group head at a time, ordered by the scalar root_key."""
    tol = 1e-7 * _z_scale(z)
    groups = []
    for row in sorted((canonically_sorted(r) for r in rows), key=lambda r: [root_key(c) for c in r]):
        for group in groups:
            if _multiset_gaps(row, group[0][None])[0] <= tol:
                group.append(row)
                break
        else:
            groups.append([row])
    out = []
    for group in groups:
        roots = np.mean(group, axis=0)
        residual = max(abs(f) for f in _residuals(lam, z, roots))
        if len(group) == 1 and not residual <= tol_root:
            continue
        out.append((roots, residual, len(group)))
    return out


def dense_residuals(weights, z, m, roots):
    """(singular, vector) residuals of one root set from the dense hamiltonian_array and total E matrices."""
    psi = _bethe_vectors(weights, z, np.asarray(roots, dtype=complex)[None, :])[:, 0]
    sup = np.max(np.abs(psi))
    singular = np.max(np.abs(build_total_generator("E", weights, m).to_array(float) @ psi)) / sup
    lam = np.array(weights, dtype=float)
    vector = 0.0
    for i in range(len(weights)):
        value = _vacuum_eigenvalue(weights, z, i) + np.sum(lam[i] / (roots - z[i]))
        vector = max(vector, np.max(np.abs(hamiltonian_array(weights, z, i, m) @ psi - value * psi)) / sup)
    return singular, vector


def ladder_spec(weights):
    return ModelSpec(weights, tuple(Fraction(k * k + 1, k + 2) for k in range(len(weights))))


# equal weights on these sites give P = R' = 3 (x - centroid)^2: a double root at m = 1
EQUILATERAL = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)])


def jacobian_calls(monkeypatch) -> list:
    """Patch bethe._jacobian to record the arguments of every call (one per Newton step) in the returned list."""
    calls = []
    original = gaudin.bethe._jacobian

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gaudin.bethe, "_jacobian", spy)
    return calls


class TestLoweringField:
    def test_two_site_coefficients(self):
        # F(1/2) v_0 = 2 F^(1) v_0 - 2 F^(2) v_0 in states (0,1), (1,0)
        arr = lowering_field(SPEC2, 0.5, 0)
        assert np.allclose(arr[:, 0], [-2.0, 2.0])

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            lowering_field(SPEC2, 1.0, 0)

    def test_exact_matches_float(self):
        exact = lowering_field_exact(SPEC2, Fraction(1, 3), 1).astype(float)
        arr = lowering_field(SPEC2, 1 / 3, 1)
        assert np.allclose(exact, arr)

    def test_operators_commute(self, rng):
        # F(w1) F(w2) = F(w2) F(w1) as maps V_0 -> V_2, exact
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            w1 = rational_off_poles(rng, spec)
            w2 = rational_off_poles(rng, spec)
            a = lowering_field_exact(spec, w1, 1) @ lowering_field_exact(spec, w2, 0)
            b = lowering_field_exact(spec, w2, 1) @ lowering_field_exact(spec, w1, 0)
            assert not (a - b).any()

    def test_cached_site_arrays_are_read_only(self):
        src = _lowering_map((1, 2), 1)
        assert src is _lowering_map((1, 2), 1)
        assert not src.flags.writeable
        with pytest.raises(ValueError):
            src[0, 0] = 7

    def test_result_is_fresh_and_writable(self):
        spec = ModelSpec((1, 2), (Fraction(0), Fraction(1)))
        first = lowering_field(spec, 0.25, 1)
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(lowering_field(spec, 0.25, 1), expected)

    def test_cache_keys_on_weight_order(self):
        z = (Fraction(0), Fraction(1))
        a = _lowering_map((1, 2), 1)
        b = _lowering_map((2, 1), 1)
        assert a.shape != b.shape or not np.array_equal(a, b)
        for weights in ((1, 2), (2, 1)):
            spec = ModelSpec(weights, z)
            fresh = None
            for k in range(2):
                term = build_site_operator("F", k, spec, 1).to_array(complex) / (0.25 - complex(z[k]))
                fresh = term if fresh is None else fresh + term
            assert np.array_equal(lowering_field(spec, 0.25, 1), fresh)


def site_operator(gen, k, spec, m, w=None):
    """X^(k) on V_m as a dense exact matrix, divided by w - z_k when w is given."""
    op = build_site_operator(gen, k, spec, m).to_array(object)
    return op if w is None else op / (w - spec.z[k])


def site_cartan_sum(spec, w, m):
    return sum(site_operator("H", k, spec, m, w) for k in range(spec.n_sites))


def hamiltonian_lowering_commutator(spec, i, w, m):
    fw = lowering_field_exact(spec, w, m)
    return build_hamiltonian(spec, i, m + 1).to_array(object) @ fw - fw @ build_hamiltonian(spec, i, m).to_array(object)


class TestOperatorIdentities:
    def test_commutator_with_lowering_field(self, rng):
        # [H_i, F(w)] = F(w) H^(i)/(w-z_i) - F^(i)/(w-z_i) sum_k H^(k)/(w-z_k),
        # exact at rational w off the poles
        for _ in range(3):
            spec = random_spec(rng, n_max=4, lam_max=3)
            w = rational_off_poles(rng, spec)
            for m in range(min(2, spec.total_weight - 1) + 1):
                fw = lowering_field_exact(spec, w, m)
                h_sum = site_cartan_sum(spec, w, m)
                for i in range(spec.n_sites):
                    lhs = hamiltonian_lowering_commutator(spec, i, w, m)
                    rhs = fw @ site_operator("H", i, spec, m, w) - site_operator("F", i, spec, m, w) @ h_sum
                    assert not (lhs - rhs).any()

    def test_double_commutator(self, rng):
        # [[H_i, F(w1)], F(w2)] = 2/(w1-w2) (F^(i)/(w1-z_i) F(w2) - F^(i)/(w2-z_i) F(w1))
        for _ in range(3):
            spec = random_spec(rng, n_max=4, lam_max=3)
            w1 = rational_off_poles(rng, spec)
            w2 = rational_off_poles(rng, spec)
            if w1 == w2:
                continue
            for m in range(min(1, spec.total_weight - 2) + 1):
                f1_m = lowering_field_exact(spec, w1, m)
                f2_m = lowering_field_exact(spec, w2, m)
                f2_up = lowering_field_exact(spec, w2, m + 1)
                for i in range(spec.n_sites):
                    lhs = (
                        hamiltonian_lowering_commutator(spec, i, w1, m + 1) @ f2_m
                        - f2_up @ hamiltonian_lowering_commutator(spec, i, w1, m)
                    )
                    rhs = (
                        site_operator("F", i, spec, m + 1, w1) @ f2_m
                        - site_operator("F", i, spec, m + 1, w2) @ f1_m
                    ) * (Fraction(2) / (w1 - w2))
                    assert not (lhs - rhs).any()


class TestBetheVector:
    def test_empty_product_is_vacuum(self):
        psi = bethe_vector(SPEC2, [])
        assert np.allclose(psi, [1.0])

    def test_level_one_matches_singular_vector(self):
        psi = bethe_vector(SPEC2, [0.5])
        kernel = singular_basis_kernel(SPEC2, 1).vectors[0]
        target = np.array([float(x) for x in kernel])
        overlap = abs(np.vdot(psi, target)) / (
            np.linalg.norm(psi) * np.linalg.norm(target)
        )
        assert overlap > 1 - 1e-12

    def test_permutation_invariance(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        roots = [0.3 + 0.2j, -0.7 - 0.1j]
        a = bethe_vector(spec, roots)
        b = bethe_vector(spec, roots[::-1])
        assert np.allclose(a, b)

    def test_coincident_roots_rejected(self):
        with pytest.raises(ValueError):
            bethe_vector(SPEC2, [0.5, 0.5])


class TestBetheResidual:
    def test_derived_root(self):
        (f1,) = bethe_residual(SPEC2, 1, [0.5])
        assert abs(f1) < 1e-15

    def test_large_w_residual_decays(self):
        (f1,) = bethe_residual(SPEC2, 1, [1e8])
        assert abs(f1) < 1e-7

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            bethe_residual(SPEC2, 1, [1.0])

    def test_root_count_must_match(self):
        with pytest.raises(ValueError):
            bethe_residual(SPEC2, 2, [0.5])


class TestPolish:
    def test_jacobian_matches_finite_differences(self):
        lam = np.array([2.0, 1.0, 3.0])
        z = np.array([0.0 + 0j, 1.0 + 0j, -0.5 + 0j])
        w = np.array([[0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.3j]])
        f0 = _residuals(lam, z, w)
        jac = _jacobian(lam, z, w)
        assert np.all(np.isfinite(jac))
        h = 1e-7
        for q in range(3):
            bumped = w.copy()
            bumped[0, q] += h
            fd = (_residuals(lam, z, bumped)[0] - f0[0]) / h
            assert np.allclose(jac[0, :, q], fd, rtol=1e-5, atol=1e-5)

    def test_polish_recovers_known_solution_from_perturbation(self):
        # weights (2, 2) at z = (0, 1): w1 + w2 = 1, w1 w2 = 1/3
        lam = np.array([2.0, 2.0])
        z = np.array([0.0 + 0j, 1.0 + 0j])
        exact = np.array([0.5 - np.sqrt(3) / 6 * 1j, 0.5 + np.sqrt(3) / 6 * 1j])
        start = (exact + 1e-6 * np.array([1.0 - 2.0j, -0.5 + 1.0j]))[None, :]
        assert np.max(np.abs(_residuals(lam, z, start))) > 1e-6
        w, res = _polish(lam, z, start.copy())
        assert res[0] <= 1e-14
        assert np.max(np.abs(w[0] - exact)) < 1e-14
        assert res[0] == np.max(np.abs(_residuals(lam, z, w)))

    def test_singular_jacobian_keeps_the_start(self, monkeypatch):
        # a step that cannot be solved for ends the polish: every row keeps its start and its residual
        lam = np.array([2.0, 2.0])
        z = np.array([0.0 + 0j, 1.0 + 0j])
        start = np.array([[0.5 - 0.3j, 0.5 + 0.3j], [0.2 + 0.1j, 0.7 - 0.2j]])
        monkeypatch.setattr(gaudin.bethe, "_jacobian", lambda lam, z, w: np.zeros(w.shape + w.shape[-1:], complex))
        w, res = _polish(lam, z, start.copy())
        assert np.array_equal(w, start)
        assert np.array_equal(res, np.max(np.abs(_residuals(lam, z, start)), axis=-1))

    @pytest.mark.parametrize("z", ["real", "complex"])
    def test_newton_stops_once_no_root_moves(self, monkeypatch, z):
        # the two Newton solves of the benchmark: a step that moves no root by more
        # than 1e-12 of the site scale ends the polish, so rounding noise is not chased
        calls = jacobian_calls(monkeypatch)
        if z == "real":
            sols, count = solve_bethe(ladder_spec((3,) * 7), 3), 56
        else:
            z = np.array([(k * k + 1) / (k + 2) + 0.25j * (k % 3) for k in range(6)])
            sols, count = solve_bethe_numeric((3,) * 6, z, 3), 35
        assert len(sols) == count and len(calls) <= 3

    def test_double_root_freezes_at_its_rounding_floor(self, monkeypatch):
        # Newton halves the error of a double root until rounding stalls its steps near
        # 1e-8 of the site scale: the row freezes there instead of running the 20-step cap
        calls = jacobian_calls(monkeypatch)
        sols = solve_bethe_numeric((1, 1, 1), EQUILATERAL, 1)
        assert [sol.multiplicity for sol in sols] == [2] and len(calls) <= 3

    def test_near_coalescence_keeps_its_solutions(self, monkeypatch):
        # sites 1e-5 apart: one row's steps grow from just above the collapse width, so it
        # is not frozen; the polish stays within its cap and finds the same 3 solutions
        calls = jacobian_calls(monkeypatch)
        sols = solve_bethe_numeric((2, 2, 2, 2), np.array([0, 1, 1 + 1e-5, 3], dtype=complex), 2)
        assert len(sols) == 3 and len(calls) <= 20

    def test_a_frozen_row_does_not_stop_the_others(self, monkeypatch):
        # two starts at the double root: the near one freezes after at most 3 steps, the
        # far one, still halving its error, goes on; each ends as it does alone, and the
        # batch takes as many steps as the far row alone
        lam, centroid = np.ones(3), np.mean(EQUILATERAL)
        starts = np.array([[centroid + 1e-8], [centroid + 0.1]])
        calls = jacobian_calls(monkeypatch)
        w, res = _polish(lam, EQUILATERAL, starts.copy())
        steps = [len(calls)]
        for s in range(2):
            del calls[:]
            alone = _polish(lam, EQUILATERAL, starts[s : s + 1].copy())
            assert w[s].tobytes() == alone[0][0].tobytes() and res[s] == alone[1][0]
            steps.append(len(calls))
        assert steps[1] <= 3 < steps[2] == steps[0]

    @pytest.mark.parametrize(
        "weights, m, z",
        [((3,) * 7, 1, "real"), ((3,) * 7, 3, "real"), ((2, 3, 3, 4), 2, "real"), ((1,) * 8, 4, "real"),
         ((3,) * 6, 1, "complex"), ((3,) * 6, 3, "complex"), ((2, 3, 3, 4), 2, "complex")],
    )
    def test_companion_starts_equal_np_roots_of_each_row(self, monkeypatch, weights, m, z):
        # the back-substituted y of real and complex z, bit for bit, signed zeros included
        n = len(weights)
        ladder = np.array([(k * k + 1) / (k + 2) for k in range(n)], dtype=complex)
        z = ladder if z == "real" else ladder + 0.25j * (np.arange(n) % 3)
        seen = {}
        heine_stieltjes, polish = gaudin.bethe._heine_stieltjes_polynomials, gaudin.bethe._polish

        def heine_stieltjes_spy(*args):
            seen["y"] = heine_stieltjes(*args)
            return seen["y"]

        def polish_spy(lam, z, w):
            seen["starts"] = w.copy()
            return polish(lam, z, w)

        monkeypatch.setattr(gaudin.bethe, "_heine_stieltjes_polynomials", heine_stieltjes_spy)
        monkeypatch.setattr(gaudin.bethe, "_polish", polish_spy)
        solve_bethe_numeric(weights, z, m)
        reference = np.array([np.roots(row[::-1]) for row in seen["y"]], dtype=complex)
        assert seen["starts"].shape == (singular_dimension(weights, m), m)
        assert seen["starts"].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_companion_starts_equal_np_roots_of_any_monic_rows(self, monkeypatch, m):
        # random monic rows in place of y, half of them real: there the division by the
        # leading 1, as np.roots does it, sets the signed zeros that np.roots returns and
        # that order a conjugate pair
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((40, m + 1)) + 0j
        rows[::2] += 1j * rng.standard_normal((20, m + 1))
        rows[:, m] = 1

        class Captured(Exception):
            pass

        def polish_spy(lam, z, w):
            raise Captured(w)

        monkeypatch.setattr(gaudin.bethe, "_heine_stieltjes_polynomials", lambda *args: rows)
        monkeypatch.setattr(gaudin.bethe, "_polish", polish_spy)
        with pytest.raises(Captured) as caught:
            solve_bethe_numeric((m, m), np.array([0.0, 1.0]), m)
        reference = np.array([np.roots(row[::-1]) for row in rows], dtype=complex)
        assert caught.value.args[0].tobytes() == reference.tobytes()

    def test_sorted_roots_match_the_scalar_key(self):
        # real parts near the 9-decimal rounding boundary and conjugate pairs
        # whose real parts differ in the last bits
        rng = np.random.default_rng(23)
        for _ in range(200):
            real = np.round(rng.standard_normal(6), 9) + rng.choice([0.0, 5e-10, -5e-10, 1e-16], 6)
            roots = real + 1j * rng.standard_normal(6)
            roots = np.concatenate([roots, np.nextafter(roots.real, 9.0) - 1j * roots.imag])
            roots = rng.permutation(roots)
            assert np.array_equal(_canonical_order(roots[None, :])[0], canonically_sorted(roots))

    def test_sorted_roots_order_a_conjugate_pair_one_ulp_apart(self):
        # real parts one ulp apart read as equal, so the pair orders by
        # imaginary part; (real, imag) order would put -0.25j last
        pair = [complex(0.5, 0.25), complex(np.nextafter(0.5, 1.0), -0.25)]
        for roots in (pair, pair[::-1]):
            assert np.array_equal(_canonical_order(np.array([roots]))[0], [pair[1], pair[0]])


class TestSolveBethe:
    def test_two_site_closed_form(self):
        sols = solve_bethe(SPEC2, 1)
        assert len(sols) == 1 == singular_dimension_formula(2, 1)
        sol = sols[0]
        assert abs(sol.roots[0] - 0.5) < 1e-12
        assert abs(sol.eigenvalues[0] - 1.5) < 1e-12
        assert abs(sol.eigenvalues[1] + 1.5) < 1e-12
        assert sol.residual_eq < 1e-12
        assert not sol.multiplicity_flag

    def test_three_site_two_distinct_roots(self):
        sols = solve_bethe(SPEC3, 1)
        assert len(sols) == 2 == singular_dimension_formula(3, 1)
        for sol in sols:
            assert sol.singular_residual <= 1e-9
            assert sol.vector_residual <= 1e-9
            assert not sol.multiplicity_flag
        gap = abs(sols[0].roots[0] - sols[1].roots[0])
        assert gap > 1e-3

    def test_degenerate_complex_sites_flag_multiplicity(self):
        # double root of the level-one equation at z_3 = (1 + i sqrt(3))/2
        z = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)])
        sols = solve_bethe_numeric((1, 1, 1), z, 1)
        assert len(sols) == 1
        assert sols[0].multiplicity == 2
        assert sols[0].multiplicity_flag
        assert abs(sols[0].roots[0] - (0.5 + 1j * np.sqrt(3.0) / 6)) < 1e-6

    def test_two_site_weight_two_system(self):
        # hand reduction via symmetric functions: w1 + w2 = 1, w1 w2 = 1/3
        spec = ModelSpec((2, 2), (Fraction(0), Fraction(1)))
        sols = solve_bethe(spec, 2)
        assert len(sols) == 1 == singular_dimension_formula(2, 2)
        sol = sols[0]
        expected = sorted(
            np.roots([1.0, -1.0, 1.0 / 3.0]), key=lambda c: (c.real, c.imag)
        )
        assert np.allclose(sol.roots, expected, atol=1e-10)
        assert abs(sol.eigenvalues[0] - 4.0) < 1e-10
        assert abs(sol.eigenvalues[1] + 4.0) < 1e-10
        assert sol.vector_residual <= 1e-10
        assert sol.singular_residual <= 1e-10
        # cross-route: matches the singular-subspace diagonalization
        (ev,) = diagonalize_singular(spec, 2)
        assert np.allclose(sorted(ev.eigenvalues.real), sorted(sol.eigenvalues.real))

    def test_roots_stay_at_desk_scale(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        if spec.min_weight >= 2:
            sols = solve_bethe(spec, 2)
        else:
            sols = solve_bethe(spec, 1)
        scale = max(abs(complex(a - b)) for a in spec.z for b in spec.z) or 1.0
        for sol in sols:
            assert np.max(np.abs(sol.roots)) < 100 * max(scale, 1.0)

    def test_determinism(self):
        a = solve_bethe(SPEC3, 1, seed=7)
        b = solve_bethe(SPEC3, 1, seed=7)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.roots, y.roots)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_bethe(SPEC2, 0)

    def test_level_above_the_module_rejected(self):
        # the range check of enumerate_weight_space: levels up to sum(weights) = 3 exist
        probe = ModelSpec((1, 2), (Fraction(0), Fraction(1)))
        for m in (4, 9):
            with pytest.raises(ValueError, match="outside 0..3"):
                solve_bethe(probe, m)
            with pytest.raises(ValueError, match="outside 0..3"):
                solve_bethe_numeric((1, 2), np.array([0.0, 1.0]), m)

    def test_repeat_solve_is_identical(self):
        spec = ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3)))
        a = solve_bethe(spec, 2)
        b = solve_bethe(spec, 2)
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            for field in ("roots", "residual_eq", "eigenvalues", "vector_residual",
                          "singular_residual", "multiplicity"):
                assert np.array_equal(getattr(x, field), getattr(y, field))

    def test_truncated_probe_has_no_solutions(self):
        # 2m > sum(weights) = 3: the raising operator is injective on V_m
        probe = ModelSpec((1, 2), (Fraction(0), Fraction(1)))
        for m in (2, 3):
            assert singular_dimension(probe, m) == 0
            assert solve_bethe(probe, m) == []

    def test_no_coincident_roots_at_weight_one_sites(self):
        # the singular subspace of V_2 is 2-dimensional; a spurious [0, 0]
        # (roots on a site point, vector residual 2.4) must not be reported
        spec = ModelSpec((1, 1, 1, 1), tuple(Fraction(k) for k in range(4)))
        sols = solve_bethe(spec, 2)
        assert len(sols) == 2 == singular_dimension(spec, 2)
        for sol in sols:
            assert verify_solution(spec, 2, sol).ok
            assert np.min(np.abs(sol.roots[:, None] - np.arange(4))) > 0.1

    @pytest.mark.parametrize(
        "weights, z, m",
        [((2, 2, 2), (0, 1, 1 + 1e-6), 2)]
        + [((2, 2, 2, 2), (0, 1, 1 + eps * (1 + 1j), 3 + 0.5j), m) for eps in (1e-2, 1e-3) for m in (1, 2)],
        ids=["real-gap-1e-6-m2", "complex-gap-1e-2-m1", "complex-gap-1e-2-m2", "complex-gap-1e-3-m1", "complex-gap-1e-3-m2"],
    )
    def test_near_coalescent_sites_return_only_verified_solutions(self, weights, z, m):
        # the full count is not asserted: the absolute DEFAULT_TOL_ROOT drops
        # some root sets here (see test_all_solutions_near_coalescing_sites)
        sols = solve_bethe_numeric(weights, np.array(z, dtype=complex), m)
        assert 1 <= len(sols) <= singular_dimension(weights, m)
        for sol in sols:
            assert sol.singular_residual <= DEFAULT_TOL and sol.vector_residual <= DEFAULT_TOL

    def test_roots_match_the_singular_eigenvalues(self):
        # one root set per singular joint eigenvector, with its eigenvalue tuple
        spec = ModelSpec((3, 3, 3, 3), tuple(Fraction(k * k + 1, k + 2) for k in range(4)))
        for m in (2, 3):
            sols = solve_bethe(spec, m)
            diag = diagonalize_singular(spec, m)
            assert len(sols) == len(diag) == singular_dimension(spec, m)
            remaining = [ev.eigenvalues for ev in diag]
            for sol in sols:
                gaps = [np.max(np.abs(sol.eigenvalues - ev)) for ev in remaining]
                assert min(gaps) < 1e-9
                remaining.pop(int(np.argmin(gaps)))

    def test_level_one_roots_are_the_roots_of_p(self):
        # m = 1 takes the eigenvector route too: its roots are the companion roots of
        # P = sum_j lam_j prod_{k != j} (x - z_k), built here from np.poly
        rng = np.random.default_rng(606)
        for trial in range(40):
            n = int(rng.integers(2, 8))
            lam = rng.integers(1, 5, n)
            z = rng.uniform(-3, 3, n) + (1j * rng.uniform(-2, 2, n) if trial % 2 else 0)
            if np.min(np.abs(z[:, None] - z)[~np.eye(n, dtype=bool)]) < 0.1:
                continue
            sols = solve_bethe_numeric(tuple(lam), z, 1)
            assert len(sols) == singular_dimension(tuple(lam), 1) == n - 1
            reference = list(np.roots(sum(l * np.poly(np.delete(z, j)) for j, l in enumerate(lam))))
            for sol in sols:
                (w,) = sol.roots
                gaps = [abs(w - ref) for ref in reference]
                j = int(np.argmin(gaps))
                assert gaps[j] <= 1e-12 * max(abs(reference[j]), 1.0)
                reference.pop(j)

    def test_level_one_takes_one_singular_eigen_call(self, monkeypatch):
        calls = []
        original = gaudin.bethe._singular_eigen

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gaudin.bethe, "_singular_eigen", spy)
        sols = solve_bethe_numeric((2, 1, 3, 2), np.array([0.0, 1.0, 2.5, -1.5 + 0.5j]), 1)
        assert len(sols) == 3 and len(calls) == 1

    @pytest.mark.parametrize("seed", [1729, 555, 31337])
    def test_equilateral_double_root_at_every_seed(self, seed):
        z = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)])
        sols = solve_bethe_numeric((1, 1, 1), z, 1, seed=seed)
        assert [sol.multiplicity for sol in sols] == [2]

    def test_roots_come_out_canonically_sorted(self):
        double = solve_bethe_numeric((1, 1, 1), np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)]), 1)
        complex_z = solve_bethe_numeric((2, 2, 2), np.array([0.0, 1.0 + 0.5j, 2.5 - 0.25j]), 2)
        assert len(double) == 1 and len(complex_z) == 3
        for sol in double + complex_z:
            assert np.array_equal(sol.roots, canonically_sorted(sol.roots))


class TestVerification:
    def test_true_solution_verifies(self):
        (sol,) = solve_bethe(SPEC2, 1)
        report = verify_solution(SPEC2, 1, sol)
        assert report.ok
        assert report.singular_residual < 1e-12
        assert report.vector_residual < 1e-12

    def test_random_point_fails(self, rng):
        from gaudin.bethe import BetheSolution

        fake = BetheSolution(
            roots=np.array([0.123 + 0.456j]),
            residual_eq=1.0,
            eigenvalues=np.zeros(2, dtype=complex),
            vector_residual=1.0,
            singular_residual=1.0,
        )
        report = verify_solution(SPEC2, 1, fake)
        assert not report.ok
        assert report.singular_residual > 1e-3

    def test_residual_scales_with_perturbation(self):
        # the raising image is a combination weighted by the residuals f_k,
        # so a small root perturbation gives a proportionally small residual
        eps = 1e-6
        psi = bethe_vector(SPEC2, [0.5 + eps])
        raise_e = build_total_generator("E", SPEC2, 1).to_array(float)
        image_norm = np.max(np.abs(raise_e @ psi)) / np.max(np.abs(psi))
        (f1,) = bethe_residual(SPEC2, 1, [0.5 + eps])
        assert image_norm < 10 * abs(f1)
        assert image_norm > abs(f1) / 10

    def test_solution_residual_tolerance_propagation(self, rng):
        for _ in range(3):
            spec = random_spec(rng, n_max=4, lam_max=3)
            sols = solve_bethe(spec, 1)
            for sol in sols:
                assert sol.singular_residual <= 10 * 1e-11
                assert sol.vector_residual <= 10 * 1e-11

    def test_root_count_must_equal_m(self):
        # dim V_1 = dim V_3 = 4 at four sites of weight 1, so a level-one root set
        # would otherwise be checked by level-three operators
        spec = ModelSpec((1, 1, 1, 1), tuple(Fraction(k) for k in range(4)))
        sol = solve_bethe(spec, 1)[0]
        assert verify_solution(spec, 1, sol).ok
        with pytest.raises(ValueError):
            verify_solution(spec, 3, sol)

    def test_solver_and_verification_agree_exactly(self):
        spec = ModelSpec((2, 2, 2, 2), tuple(Fraction(k * k + 1, k + 2) for k in range(4)))
        sols = solve_bethe(spec, 2)
        assert len(sols) == singular_dimension_formula(4, 2)
        lam = np.array(spec.weights, dtype=float)
        z = np.array([complex(x) for x in spec.z])
        for sol in sols:
            report = verify_solution(spec, 2, sol)
            assert report.ok
            assert report.singular_residual == sol.singular_residual
            assert report.vector_residual == sol.vector_residual
            # the float vacuum is the exact one up to rounding
            exact = np.array(
                [complex(vacuum_eigenvalue(spec, i)) for i in range(4)]
            ) + np.array([np.sum(lam[i] / (sol.roots - z[i])) for i in range(4)])
            assert np.allclose(sol.eigenvalues, exact, rtol=1e-14, atol=0)


class TestSpans:
    def test_bethe_vectors_span_singular_subspace(self):
        spec = ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3)))
        m = 2
        sols = solve_bethe(spec, m)
        expected = singular_dimension_formula(spec.n_sites, m)
        assert len(sols) == expected
        kernel = singular_basis_kernel(spec, m)
        kernel_f = np.array(
            [[float(x) for x in vec] for vec in kernel.vectors], dtype=complex
        )
        bethe_f = np.array([bethe_vector(spec, sol.roots) for sol in sols])
        stacked = np.concatenate([kernel_f, bethe_f], axis=0)
        svals = np.linalg.svd(stacked, compute_uv=False)
        numeric_rank = int(np.sum(svals > 1e-8 * svals[0]))
        assert numeric_rank == expected

    def test_multiset_gaps_match_greedy_reference(self):
        rng = np.random.default_rng(4242)
        lattice = np.array([complex(x, y) for x in range(-2, 3) for y in range(-2, 3)])
        for m in range(1, 5):
            for n_kept in range(21):
                if n_kept % 2:  # lattice points: many exact distance ties
                    a = rng.choice(lattice, m)
                else:
                    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                rows = []
                for r in range(n_kept):
                    kind = r % 4
                    if kind == 0:
                        row = rng.permutation(a)
                    elif kind == 1:
                        phase = np.exp(2j * np.pi * rng.uniform(size=m))
                        row = rng.permutation(a + 0.5e-8 * phase)
                    elif kind == 2:
                        row = rng.choice(lattice, m)
                    else:
                        row = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                    rows.append(row)
                kept = np.array(rows, dtype=complex).reshape(n_kept, m)
                gaps = _multiset_gaps(a, kept)
                reference = np.array([multiset_gap_reference(a, row) for row in kept], dtype=float)
                assert gaps.shape == (n_kept,)
                assert np.array_equal(gaps, reference)

    def test_multiset_gaps_break_ties_on_first_minimum(self):
        # 0 is equally far from 1 and -1; the first one listed is taken, leaving the other for 1.5
        a = np.array([0.0, 1.5], dtype=complex)
        kept = np.array([[1.0, -1.0], [-1.0, 1.0], [1.5, 1e-12j]])
        assert np.array_equal(_multiset_gaps(a, kept), [2.5, 1.0, 1e-12])


class TestBatchedLayer:
    """The batched float routines against the one-at-a-time routines they replaced."""

    @pytest.mark.parametrize(
        "weights, m, z",
        [(weights, m, z) for weights, m in (((3,) * 7, 3), ((2, 3, 3, 4), 2), ((4,) * 5, 4), ((2,) * 8, 4), ((1,) * 10, 5))
         for z in ("real", "complex")]
        + [((1, 1, 1), 1, "equilateral")],
    )
    def test_back_substitution_solves_the_map_of_each_singular_eigenvector(self, weights, m, z):
        n = len(weights)
        ladder = np.array([(k * k + 1) / (k + 2) for k in range(n)], dtype=complex)
        z = {
            "real": ladder,
            "complex": ladder + 0.25j * (np.arange(n) % 3),
            "equilateral": np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)]),  # a double root at m = 1
        }[z]
        lam = np.array(weights, dtype=float)
        count = singular_dimension(weights, m)
        energies = _singular_eigen(weights, m, count, _hamiltonian_gathers(weights, z, m), DEFAULT_SEED)[-1]
        p, r, cofactors = _site_polynomials(lam, z)
        v = (cofactors.T @ (_vacuum(weights, z)[:, None] - energies))[1:]
        y = _heine_stieltjes_polynomials(p, r, v, m)
        assert y.shape == (count, m + 1) and np.all(y[:, m] == 1)
        svd_rows = []
        for s in range(count):
            reference = heine_stieltjes_matrix_reference(p, r, v[:, s], m)
            # every row, the top one and the N - 2 lowest that the recurrence never
            # reads included, against the sizes of its R, P and V terms
            high = y[s][::-1]
            terms = [np.polymul(r, np.polyder(high, 2)), np.polymul(p, np.polyder(high)), np.polymul(v[:, s], high)]
            sizes = sum(np.abs(np.pad(term, (len(reference) - len(term), 0))) for term in terms)
            assert np.all(np.abs(reference @ y[s]) <= 1e-9 * sizes)
            null = np.linalg.svd(reference)[2][-1].conj()
            svd_rows.append(np.roots(null[::-1]))
        routes = []
        for rows in ([np.roots(row[::-1]) for row in y], svd_rows):
            w, res = _polish(lam, z, np.array(rows, dtype=complex))
            routes.append(_collapse(lam, z, w[res <= gaudin.bethe.DEFAULT_TOL_ROOT]))
        ours, remaining = routes
        assert len(ours) == len(remaining) and sum(mult for _, _, mult in ours) == count
        for roots, _, mult in ours:
            gaps = _multiset_gaps(roots, np.array([other for other, _, _ in remaining]))
            j = int(np.argmin(gaps))
            # a double root polishes only to about sqrt(machine epsilon), so a
            # cluster's mean is compared at the collapse width
            assert gaps[j] <= (1e-12 if mult == 1 else 1e-7) * _z_scale(z) and remaining[j][2] == mult
            remaining.pop(j)

    def test_cofactors_times_their_factor_give_r(self):
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            for z in (rng.uniform(-3, 3, n) + 0j, rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                r = np.poly(z)
                cofactors = _cofactors(z)
                assert cofactors.shape == (n, n)
                for row, zj in zip(cofactors, z):
                    assert np.max(np.abs(np.polymul(row, [1, -zj]) - r)) <= 1e-13 * np.max(np.abs(r))

    def test_cofactors_match_the_np_poly_rows(self):
        # np.poly of the other sites, one call per site, is the oracle: real z bit for
        # bit; complex z within 1e-15 of the sizes of the terms, the coefficients of
        # prod_{k != j} (x + |z_k|), the conjugate-closed (i, -i, 0, 2) included
        def reference(z):
            return np.array([np.poly(np.delete(z, j)) for j in range(len(z))])

        rng = np.random.default_rng(29)
        for n in range(2, 11):
            ladder = np.array([(k * k + 1) / (k + 2) for k in range(n)], dtype=complex)
            for z in (ladder, ladder - 0.5, rng.uniform(-3, 3, n) + 0j, np.append(0.0, rng.uniform(-3, 3, n - 1)) + 0j):
                got, want = _cofactors(z), reference(z)
                assert got.dtype == want.dtype == float and got.tobytes() == want.tobytes()
            for z in (ladder + 0.25j * (np.arange(n) % 3), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                got = _cofactors(z)
                assert np.all(np.abs(got - reference(z)) <= 1e-15 * reference(-np.abs(z)))
        z = np.array([1j, -1j, 0, 2])
        assert np.all(np.abs(_cofactors(z) - reference(z)) <= 1e-15 * reference(-np.abs(z)))

    def test_closed_form_v_matches_the_vandermonde_fit(self):
        for n in range(2, 9):
            weights = (3,) * n
            real_z = np.array([(k * k + 1) / (k + 2) for k in range(n)], dtype=complex)
            for z in (real_z, real_z + 1j * (np.arange(n) % 3) / 4):
                for m in (2, 3):
                    sols = solve_bethe_numeric(weights, z, m)
                    remaining = vandermonde_root_sets(weights, z, m)
                    assert len(sols) == len(remaining) == singular_dimension(weights, m)
                    for sol in sols:
                        gaps = _multiset_gaps(sol.roots, np.array(remaining))
                        j = int(np.argmin(gaps))
                        assert gaps[j] <= 1e-12 * np.max(np.abs(sol.roots))
                        remaining.pop(j)

    def test_linear_collapse_matches_nested_loop(self, monkeypatch):
        rng = np.random.default_rng(99)
        lam = np.array([2.0, 1.0, 3.0, 2.0])
        z = np.array([0.0, 1.0, 2.5, -1.5], dtype=complex)
        tol = 1e-7 * _z_scale(z)
        cases = []
        for m in (1, 2, 3):
            for trial in range(8):
                rows = []
                for _ in range(6):
                    base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                    rows.append(rng.permutation(base))
                    phase = np.exp(2j * np.pi * rng.uniform(size=m))
                    rows.append(rng.permutation(base + 0.5 * tol * phase))
                    if trial % 2:
                        rows.append(base + 2 * tol)
                cases.append(rng.permutation(np.array(rows)))
        # -0.0 parts in one-row groups, which np.mean reports as +0.0
        cases.append(np.array([[complex(-1.2, -0.0), complex(0.7, -0.0)], [complex(-0.0, 0.4), complex(-2.1, -0.0)],
                               [complex(0.3, -0.0), complex(1.9, -0.0)], [complex(0.3, -0.0), complex(1.9, -0.0)]]))
        # about 300 rows, mostly distinct, with 10 pairs within the width
        many = rng.standard_normal((290, 2)) + 1j * rng.standard_normal((290, 2))
        near = many[:10] + 0.5 * tol * np.exp(2j * np.pi * rng.uniform(size=(10, 2)))
        cases.append(rng.permutation(np.concatenate([many, near])))
        # two heads 1.5 tol apart, then a row within tol of both: it joins the first
        x, y = -1.0 + 0.3j, 2.0 - 0.1j
        cases.append(np.array([[y + 1.5 * tol, x], [x, y], [x + 2e-9, y + 0.75 * tol]]))
        double_z = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)])
        double_lam = np.ones(3)
        double = np.roots(_site_polynomials(double_lam, double_z)[0]).reshape(-1, 1)
        for lam_, z_, rows in [(lam, z, rows) for rows in cases] + [(double_lam, double_z, double)]:
            for tol_root in (np.inf, 1e-11):
                monkeypatch.setattr(gaudin.bethe, "DEFAULT_TOL_ROOT", tol_root)
                got = _collapse(lam_, z_, rows)
                want = collapse_reference(lam_, z_, rows, tol_root)
                assert len(got) == len(want)
                for (a, res_a, mult_a), (b, res_b, mult_b) in zip(got, want):
                    # bit patterns: np.array_equal reads -0.0 and +0.0 as equal
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)) and res_a == res_b and mult_a == mult_b
        monkeypatch.setattr(gaudin.bethe, "DEFAULT_TOL_ROOT", np.inf)
        assert [mult for _, _, mult in _collapse(lam, z, cases[-1])] == [2, 1]
        assert sorted(mult for _, _, mult in _collapse(lam, z, cases[-3])) == [1, 1, 2]
        assert sorted(mult for _, _, mult in _collapse(lam, z, cases[-2])) == [1] * 280 + [2] * 10
        monkeypatch.setattr(gaudin.bethe, "DEFAULT_TOL_ROOT", 1e-11)
        assert [mult for _, _, mult in _collapse(double_lam, double_z, double)] == [2]

    def test_gather_bethe_vectors_match_exact_lowering(self, rng):
        specs = [random_spec(rng, n_max=4, lam_max=3) for _ in range(6)]
        specs.append(ModelSpec((1, 1, 2), (Fraction(0), Fraction(1), Fraction(-2))))
        for spec in specs:
            # every level through the top, the truncated ones above min(weights) included
            for m in range(1, spec.total_weight + 1):
                roots = []
                while len(roots) < m:
                    w = rational_off_poles(rng, spec)
                    if w not in roots:
                        roots.append(w)
                exact = np.array([Fraction(1)], dtype=object)
                for degree, w in enumerate(roots):
                    exact = lowering_field_exact(spec, w, degree) @ exact
                exact = np.array([complex(x) for x in exact])
                psi = bethe_vector(spec, [float(w) for w in roots])
                assert psi.shape == exact.shape
                assert np.max(np.abs(psi - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_batch_rows_equal_single_root_sets(self):
        rng = np.random.default_rng(5)
        weights = (3, 2, 3, 1, 2)
        z = np.array([0.0, 1.0 + 0.25j, 2.5, -1.0 - 0.5j, 4.0])
        m = 3
        roots = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
        hams = _hamiltonian_gathers(weights, z, m)
        batch = _bethe_vectors(weights, z, roots)
        vacuum = _vacuum(weights, z)
        singular, eigenvalues, vector = _diagnostics(weights, z, roots, hams, vacuum)
        for s in range(len(roots)):
            one = roots[s : s + 1]
            assert np.array_equal(batch[:, s], _bethe_vectors(weights, z, one)[:, 0])
            single = _diagnostics(weights, z, one, hams, vacuum)
            assert single[0][0] == singular[s]
            assert np.array_equal(single[1][0], eigenvalues[s])
            assert single[2][0] == vector[s]

    def test_gathers_match_dense_products(self, rng):
        # truncated levels (m > min(weights)) through the top, real and complex z
        specs = [random_spec(rng, n_max=5, lam_max=3) for _ in range(8)]
        specs.append(ModelSpec((1, 3, 2), (Fraction(0), Fraction(1), Fraction(-2))))
        for spec in specs:
            real_z = np.array([complex(x) for x in spec.z])
            for z in (real_z, real_z + 1j * rng.standard_normal(spec.n_sites)):
                for m in range(1, spec.total_weight + 1):
                    dim = enumerate_weight_space(spec, m).dim
                    psi = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
                    padded = _pad(psi)
                    dense = [build_total_generator("E", spec, m).to_array(float)]
                    dense += [hamiltonian_array(spec.weights, z, i, m) for i in range(spec.n_sites)]
                    images = [_gather_sum(padded, *_raising_gathers(spec.weights, m))]
                    images += [h for _, chunk in _images(_hamiltonian_gathers(spec.weights, z, m), psi) for h in chunk]
                    for mat, got in zip(dense, images):
                        bound = np.abs(mat) @ np.abs(psi)  # the sum of the terms' sizes
                        assert got.shape == (mat.shape[0], 3)
                        assert np.all(np.abs(got - mat @ psi) <= 1e-14 * bound)

    def test_prefiltered_collapse_matches_reference(self, monkeypatch):
        # rows about tol apart: the greedy gap decides, and the means are within 2 tol
        rng = np.random.default_rng(31)
        monkeypatch.setattr(gaudin.bethe, "DEFAULT_TOL_ROOT", np.inf)
        for z in (np.array([0.0, 1.0, 2.5, -1.5], dtype=complex), np.array([0.0, 1.0 + 0.5j, 3.0, -1.0 - 2.0j])):
            lam = np.array([2.0, 1.0, 3.0, 2.0])
            tol = 1e-7 * _z_scale(z)
            for m in (1, 2, 3, 4):
                for _ in range(6):
                    rows = []
                    for _ in range(5):
                        base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                        rows.append(base)
                        for scale in rng.uniform(0.8, 1.2, 4):
                            phase = np.exp(2j * np.pi * rng.uniform(size=m))
                            rows.append(rng.permutation(base + scale * tol * phase))
                    rows.extend(rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m)))
                    rows = rng.permutation(np.array(rows))
                    got = _collapse(lam, z, rows)
                    want = collapse_reference(lam, z, rows, np.inf)
                    assert len(got) == len(want)
                    for (a, res_a, mult_a), (b, res_b, mult_b) in zip(got, want):
                        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
                        assert res_a == res_b and mult_a == mult_b


class TestEdgeInputs:
    def test_two_sites_of_weight_one(self):
        sols = solve_bethe(SPEC2, 1)
        assert len(sols) == 1 == singular_dimension(SPEC2, 1)
        assert verify_solution(SPEC2, 1, sols[0]).ok

    def test_no_diagnostics_without_solutions(self, monkeypatch):
        def refuse(weights, z, roots, *args):
            raise AssertionError(f"diagnostics called on {len(roots)} root sets")

        monkeypatch.setattr(gaudin.bethe, "_diagnostics", refuse)
        for weights in ((1, 1), (1, 2), (3, 1), (2, 2, 2)):
            spec = ModelSpec(weights, tuple(Fraction(k) for k in range(len(weights))))
            # the top level m = sum(weights) is among them
            for m in range(spec.total_weight // 2 + 1, spec.total_weight + 1):
                assert solve_bethe(spec, m) == []
        # candidates exist, but none passes the polish gate
        monkeypatch.setattr(gaudin.bethe, "DEFAULT_TOL_ROOT", -1.0)
        assert solve_bethe(ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3))), 2) == []

    def test_one_vector_kernel_takes_the_single_column_residual(self, monkeypatch):
        calls = []
        original = gaudin.eigenbasis._residual

        def spy(hams, vecs, eigenvalues):
            out = original(hams, vecs, eigenvalues)
            calls.append((hams, vecs, eigenvalues, out))
            return out

        monkeypatch.setattr(gaudin.eigenbasis, "_residual", spy)
        spec = ModelSpec((2, 3), (Fraction(0), Fraction(1)))
        (ev,) = diagonalize_singular(spec, 2)
        ((hams, vecs, eigenvalues, out),) = calls
        assert vecs.shape == (3, 1) and out.shape == (1,)
        v = vecs[:, 0]
        images = np.concatenate([chunk for _, chunk in _images(hams, v[:, None])])[:, :, 0]
        alone = max(np.max(np.abs(h - e * v)) for h, e in zip(images, eigenvalues[:, 0])) / np.max(np.abs(v))
        assert ev.residual == out[0] == alone <= 1e-12

    @pytest.mark.parametrize(
        "weights, z, m",
        [
            ((1, 1, 1), (0, 1, 1), 1),
            ((2, 2, 2), (0, 1, 1), 2),
            ((1, 1, 1), (0, 1), 1),
            ((0, 2), (0, 1), 1),
            ((1.5, 2), (0, 1), 1),
            ((2,), (0,), 1),
            ((1, 1, 1), (0, 1, np.inf), 1),
            ((1, 1, 1), (0, 1, complex(2, np.nan)), 1),
            ((1, 1), (0, 1), 1.5),
        ],
        ids=["repeated-site-m1", "repeated-site-m2", "length-mismatch", "zero-weight", "fractional-weight",
             "one-site", "infinite-site", "nan-site", "fractional-level"],
    )
    def test_numeric_solver_rejects_invalid_models(self, weights, z, m):
        with pytest.raises(ValueError):
            solve_bethe_numeric(weights, np.array(z, dtype=complex), m)

    def test_integral_float_weights_read_as_ints_but_a_float_level_is_refused(self):
        # an integral float weight passes the integer check; a float level m is refused, as by
        # enumerate_weight_space, also after the same call at the integer level
        z = np.array([0.0, 1.0, 3.0], dtype=complex)
        a, b = solve_bethe_numeric((2, 2, 2), z, 2), solve_bethe_numeric((2, 2, 2.0), z, 2)
        assert len(a) == len(b) == 3
        for x, y in zip(a, b):
            assert np.array_equal(x.roots, y.roots) and np.array_equal(x.eigenvalues, y.eigenvalues)
            assert x.residual_eq == y.residual_eq and x.vector_residual == y.vector_residual
        with pytest.raises(ValueError):
            solve_bethe_numeric((2, 2, 2), z, 2.0)

    def test_root_on_a_site_point_is_rejected(self):
        with pytest.raises(ValueError):
            bethe_vector(SPEC3, [0.5, 1.0])
        with pytest.raises(ValueError):
            verify_solution(SPEC3, 2, SimpleNamespace(roots=np.array([0.5, 1.0])))

    @pytest.mark.xfail(strict=True, reason="the absolute DEFAULT_TOL_ROOT drops root sets near coalescing sites")
    def test_all_solutions_near_coalescing_sites(self):
        # sites 1 and 1 + 1/1000: the dropped root sets lie between them, where
        # the terms of f_k are about 1e3-1e4 and Newton stops at residuals
        # near 1e-9; all 6 are found at a gap of 1/10
        spec = ModelSpec((2, 2, 2, 2), (Fraction(0), Fraction(1), Fraction(1001, 1000), Fraction(3)))
        assert len(solve_bethe(spec, 2)) == singular_dimension(spec, 2) == 6

    @pytest.mark.xfail(strict=True, reason="the absolute DEFAULT_TOL_ROOT drops an m = 1 root near coalescing sites")
    def test_all_level_one_roots_near_coalescing_complex_sites(self):
        # the dropped root 1.0005 + 0.0005i polishes to |f_1| = 5.3e-10, while
        # its largest term lam_j / |w - z_j| is 2.8e3
        z = np.array([0, 1, 1 + 1e-3 * (1 + 1j), 3 + 0.5j])
        assert len(solve_bethe_numeric((2, 2, 2, 2), z, 1)) == singular_dimension((2, 2, 2, 2), 1) == 3

    def test_complex_ladder_finds_every_solution(self):
        # the complex-z spec of the benchmark: ladder points lifted by (k mod 3) / 4
        weights = (3,) * 6
        z = np.array([(k * k + 1) / (k + 2) + 0.25j * (k % 3) for k in range(6)])
        sols = solve_bethe_numeric(weights, z, 3)
        assert len(sols) == 35 == singular_dimension(weights, 3)
        for sol in sols:
            assert sol.singular_residual <= DEFAULT_TOL and sol.vector_residual <= DEFAULT_TOL
            singular, vector = dense_residuals(weights, z, 3, sol.roots)
            assert singular <= DEFAULT_TOL and vector <= DEFAULT_TOL


class TestScale:
    def test_ladder_eight_sites_weight_three_level_four(self):
        spec = ladder_spec((3,) * 8)
        sols = solve_bethe(spec, 4)
        assert len(sols) == 202 == singular_dimension(spec, 4)
        for sol in sols:
            assert verify_solution(spec, 4, sol).ok


class TestBenchmarkInterface:
    """The benchmark harness checks every solution with verify_solution and passes seed=."""

    def test_verify_solution_builds_no_dense_operator(self, monkeypatch):
        # the solvers too: the singular frame comes from the projector's index-map gathers
        spec = ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3)))

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built")

        for module in (gaudin.sl2, gaudin.hamiltonians, gaudin.eigenbasis):
            # raising=False: eigenbasis does not import _scatter, and an import there would be refused too
            monkeypatch.setattr(module, "_scatter", refuse, raising=False)
        monkeypatch.setattr(gaudin.hamiltonians, "hamiltonian_array", refuse)
        sols = solve_bethe(spec, 2, seed=5)
        assert len(sols) == 3 == len(diagonalize_singular(spec, 2))
        for sol in sols:
            assert verify_solution(spec, 2, sol).ok

    def test_float_layers_build_no_exact_operator(self, monkeypatch):
        # the solvers and verify_solution read the index maps only
        spec = ladder_spec((2, 2, 3))
        counts = [singular_dimension(spec, m) for m in (1, 2, 3)]
        z = np.array([0.0, 1.0 + 0.5j, -1.0 + 2.0j])

        def refuse(*args, **kwargs):
            raise AssertionError("exact operator built")

        monkeypatch.setattr(SparseOperator, "__init__", refuse)
        for m, count in zip((1, 2, 3), counts):
            sols = solve_bethe(spec, m)
            assert len(sols) == count
            for sol in sols:
                assert verify_solution(spec, m, sol).ok
        sols = solve_bethe_numeric(spec.weights, z, 2)
        assert len(sols) == counts[1]
        for sol in sols:
            assert sol.singular_residual <= DEFAULT_TOL and sol.vector_residual <= DEFAULT_TOL

    def test_solvers_take_a_seed(self):
        z = np.array([0.0, 1.0, 3.0], dtype=complex)
        a = solve_bethe_numeric((2, 2, 2), z, 2, seed=5)
        b = solve_bethe(ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3))), 2, seed=6)
        assert len(a) == len(b) == 3
