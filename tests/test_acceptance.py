"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are pinned here; the exact-algebra criteria use zero tolerance.
"""

from fractions import Fraction

import numpy as np

from gaudin import (
    ModelSpec,
    bethe_vector,
    build_eigenbasis,
    build_hamiltonian,
    build_site_operator,
    build_total_generator,
    diagonalize_singular,
    enumerate_weight_space,
    singular_basis_gordan,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
    solve_bethe,
    solve_bethe_numeric,
    verify_family,
    weight_space_dimension_formula,
)
from gaudin.cli import main as cli_main
from gaudin.rational_linalg import rank

from conftest import lowering_field_exact, random_spec


def _make_specs(count=20, seed=20010801):
    rng = np.random.default_rng(seed)
    return [random_spec(rng, n_min=2, n_max=5, lam_max=4) for _ in range(count)]


SPECS = _make_specs()


def _report(number, description, check):
    try:
        check()
    except AssertionError:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_exact_algebra():
    def check():
        for spec in SPECS:
            for m in range(spec.min_weight + 1):
                report = verify_family(spec, m)
                assert report.commuting, (spec, m)
                assert report.sum_zero, (spec, m)
                assert report.symmetry_commute, (spec, m)

    _report(1, "commutation and intertwining identities exact on 20 random specs", check)


def test_criterion_2_dimension_formulas():
    def check():
        for spec in SPECS:
            for m in range(spec.min_weight + 1):
                dim = enumerate_weight_space(spec, m).dim
                assert dim == weight_space_dimension_formula(spec.n_sites, m)
                kernel = singular_basis_kernel(spec, m)
                assert kernel.count == singular_dimension_formula(spec.n_sites, m)
        truncated = singular_basis_kernel(ModelSpec((1, 1), (0, 1)), 2)
        assert truncated.count == 0 < singular_dimension_formula(2, 2)

    _report(2, "weight-space and singular-subspace dimensions match the formulas", check)


def test_criterion_3_gordan_basis():
    def check():
        for spec in SPECS:
            for m in range(spec.min_weight + 1):
                basis = singular_basis_gordan(spec, m)
                raise_e = build_total_generator("E", spec, m)
                for vec in basis.vectors:
                    assert all(x == 0 for x in raise_e.apply(list(vec)))
                expected = singular_dimension_formula(spec.n_sites, m)
                rows = [list(v) for v in basis.vectors]
                assert basis.count == expected
                assert rank(rows) == expected
                kernel_rows = [list(v) for v in singular_basis_kernel(spec, m).vectors]
                assert rank(rows + kernel_rows) == expected

    _report(3, "Gordan vectors exactly annihilated, independent, spanning the kernel", check)


def test_criterion_4_eigenbasis_completeness():
    def check():
        for spec in SPECS:
            basis = build_eigenbasis(spec, spec.min_weight)
            for m in range(spec.min_weight + 1):
                level = basis.levels[m]
                assert len(level) == enumerate_weight_space(spec, m).dim
                assert max(v.residual for v in level) <= 1e-9
                stacked = np.array([v.coords for v in level])
                assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-8
                for v in level:
                    if v.origin == "singular":
                        continue
                    parent = basis.levels[m - 1][v.preimage]
                    assert np.max(np.abs(v.eigenvalues - parent.eigenvalues)) <= 1e-9

    _report(4, "eigenbasis complete per level with residuals <= 1e-9 and inherited tuples", check)


def test_criterion_5_bethe_desk_scale():
    def check():
        spec = ModelSpec((1, 1), (Fraction(0), Fraction(1)))
        (sol,) = solve_bethe(spec, 1)
        assert abs(sol.roots[0] - 0.5) <= 1e-12
        assert abs(sol.eigenvalues[0] - 1.5) <= 1e-12
        psi = bethe_vector(spec, sol.roots)
        psi = psi / np.linalg.norm(psi)
        exact = np.array(
            [float(x) for x in singular_basis_kernel(spec, 1).vectors[0]], dtype=complex
        )
        exact = exact / np.linalg.norm(exact)
        # angle via the orthogonal component: accurate for tiny angles where
        # arccos of the overlap saturates at sqrt(machine epsilon)
        orthogonal = psi - np.vdot(exact, psi) * exact
        assert np.arcsin(min(np.linalg.norm(orthogonal), 1.0)) < 1e-9

        generic = ModelSpec((1, 1, 1), (Fraction(0), Fraction(1), Fraction(2)))
        sols = solve_bethe(generic, 1)
        assert len(sols) == 2
        assert abs(sols[0].roots[0] - sols[1].roots[0]) > 1e-6
        for s in sols:
            assert s.singular_residual <= 1e-9
            assert s.vector_residual <= 1e-9

        # double solution of the level-one equation at complex site points
        z_degenerate = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)])
        collapsed = solve_bethe_numeric((1, 1, 1), z_degenerate, 1)
        assert len(collapsed) == 1
        assert collapsed[0].multiplicity_flag

    _report(5, "closed-form root, generic three-site roots, degenerate multiplicity flag", check)


def _match_eigenvalue_multisets(a, b, tol):
    """Greedy matching of two lists of eigenvalue tuples; asserts max gap <= tol."""
    assert len(a) == len(b)
    remaining = list(b)
    for ta in a:
        gaps = [np.max(np.abs(ta - tb)) for tb in remaining]
        j = int(np.argmin(gaps))
        assert gaps[j] <= tol, f"eigenvalue tuple gap {gaps[j]:.3e}"
        remaining.pop(j)


def test_criterion_6_cross_route_consistency():
    def check():
        cases = {1: 0, 2: 0, 3: 0}
        for spec in SPECS:
            for m in (1, 2, 3):
                if 2 * m > spec.total_weight:
                    continue
                expected = singular_dimension(spec, m)
                sols = solve_bethe(spec, m)
                assert len(sols) == expected, (spec, m, len(sols), expected)
                cases[m] += 1
                if expected == 0:
                    continue
                bethe_tuples = [sol.eigenvalues for sol in sols]
                diag_tuples = [ev.eigenvalues for ev in diagonalize_singular(spec, m)]
                _match_eigenvalue_multisets(bethe_tuples, diag_tuples, 1e-8)

                kernel = singular_basis_kernel(spec, m)
                kernel_f = np.array(
                    [[float(x) for x in v] for v in kernel.vectors], dtype=complex
                )
                bethe_f = np.array([bethe_vector(spec, sol.roots) for sol in sols])
                bethe_f = bethe_f / np.linalg.norm(bethe_f, axis=1, keepdims=True)
                stacked = np.concatenate([kernel_f, bethe_f], axis=0)
                svals = np.linalg.svd(stacked, compute_uv=False)
                numeric_rank = int(np.sum(svals > 1e-8 * svals[0]))
                assert numeric_rank == expected
        # every (spec, m) with 2m <= sum(weights), truncated levels included
        assert sum(cases.values()) == 56 and min(cases.values()) >= 1

    _report(6, "Bethe root sets are complete and match the singular diagonalization", check)


def test_criterion_7_operator_identities_at_rational_points():
    def check():
        rng = np.random.default_rng(20010803)

        def rational_off_poles(spec):
            while True:
                w = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))
                if all(w != zk for zk in spec.z):
                    return w

        for spec in SPECS[:8]:
            for _ in range(5):
                w1 = rational_off_poles(spec)
                w2 = rational_off_poles(spec)
                if w1 == w2:
                    w2 = w1 + 1
                    if any(w2 == zk for zk in spec.z):
                        w2 = w1 + Fraction(1, 97)

                # dense exact matrices of Fractions: @, + and - are exact
                def site(gen, k, m, w):
                    return build_site_operator(gen, k, spec, m).to_array(object) / (w - spec.z[k])

                def x_op(i, w, m):
                    fw = lowering_field_exact(spec, w, m)
                    return (
                        build_hamiltonian(spec, i, m + 1).to_array(object) @ fw
                        - fw @ build_hamiltonian(spec, i, m).to_array(object)
                    )

                m = 0
                h_sum = sum(site("H", k, m, w1) for k in range(spec.n_sites))
                fw1 = lowering_field_exact(spec, w1, m)
                for i in range(spec.n_sites):
                    hi, fi = site("H", i, m, w1), site("F", i, m, w1)
                    assert not (x_op(i, w1, m) - (fw1 @ hi - fi @ h_sum)).any()

                f2_m = lowering_field_exact(spec, w2, m)
                f1_m = lowering_field_exact(spec, w1, m)
                f2_up = lowering_field_exact(spec, w2, m + 1)
                for i in range(spec.n_sites):
                    lhs = x_op(i, w1, m + 1) @ f2_m - f2_up @ x_op(i, w1, m)
                    rhs = (
                        site("F", i, m + 1, w1) @ f2_m - site("F", i, m + 1, w2) @ f1_m
                    ) * (Fraction(2) / (w1 - w2))
                    assert not (lhs - rhs).any()

    _report(7, "lowering-field commutator identities exact at random rational points", check)


def test_criterion_8_determinism(tmp_path):
    def check():
        spec_path = tmp_path / "model.json"
        spec_path.write_text('{"weights": [2, 2, 2], "z": ["0", "1", "3/2"]}')
        # singular reads no seed, so only the randomized commands get one
        for command in (
            ["eigenbasis", "--m-max", "2", "--seed", "42"],
            ["bethe", "--m", "2", "--seed", "42"],
            ["singular", "--m", "2"],
        ):
            outputs = []
            for name in ("first.json", "second.json"):
                out = tmp_path / name
                code = cli_main(command + ["--spec", str(spec_path), "--out", str(out)])
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]

    _report(8, "repeated runs with the same seed give byte-identical JSON", check)
