import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gaudin import (
    ModelSpec,
    SparseOperator,
    build_hamiltonian,
    build_site_operator,
    build_total_generator,
    enumerate_weight_space,
    hamiltonian_array,
    independent_count,
    vacuum_eigenvalue,
    verify_family,
)
import gaudin.hamiltonians as hamiltonians
from gaudin.hamiltonians import (
    VerifyReport,
    _bounds,
    _exact_family,
    _gather_forms,
    _hops,
    _integer_gathers,
    _level_items,
    _moduli,
    _pair_map,
    _pair_scales,
    _prime,
    _report,
    _site_scales,
    _vanishing,
    _verified_levels,
)
from gaudin.rational_linalg import rank
from gaudin.singular import singular_basis_kernel
from gaudin.sl2 import _scatter, _shapovalov_norms

from conftest import random_spec


SPEC2 = ModelSpec((1, 1), (Fraction(0), Fraction(1)))


def family_arrays(spec, m):
    """The integer matrices D_i H_i on V_m as dense object matrices of Python ints."""
    family = _exact_family(spec, m)
    return [family.to_array(object, i) for i in range(spec.n_sites)]


def with_entries(family, b, rows, cols, values):
    """The family with values added at (rows, cols) of X_b, as one more gather term."""
    src = np.full((1,) + family.src.shape[1:], family.dim)
    coef = np.zeros(src.shape, dtype=object)
    src[0, b, rows], coef[0, b, rows] = cols, values
    return SparseOperator(np.concatenate([family.src, src]), np.concatenate([family.coef, coef]), family.dim)


def level_report(spec, m, here):
    """verify_family's checks on V_m with the integer family D_i H_i replaced by the SparseOperator here."""
    below = _exact_family(spec, m - 1) if m >= 1 else None
    above = _exact_family(spec, m + 1) if m < spec.total_weight else None
    items, groups = _level_items(spec, m, below, here, above)
    return _report(_vanishing(items), groups)


def columns(mat):
    """{row: value} of the nonzero entries of each column of a dense matrix."""
    out = [{} for _ in range(mat.shape[1])]
    for row, col in zip(*np.nonzero(mat)):
        out[col][row] = mat[row, col]
    return out


def reference_products_equal(a, b, c, d) -> bool:
    """a @ b == c @ d for dense exact matrices, by a dict of Python ints per column: the route the residue check replaced."""
    if a.shape[1] != b.shape[0] or c.shape[1] != d.shape[0] or (a.shape[0], b.shape[1]) != (c.shape[0], d.shape[1]):
        raise ValueError("operator composition shapes do not match")
    return columns_products_equal(*(columns(x) for x in (a, b, c, d)))


def columns_products_equal(a, b, c, d) -> bool:
    """reference_products_equal on matrices given by their columns."""
    for bcol, dcol in zip(b, d):
        acc = {}
        for mid, v in bcol.items():
            for row, w in a[mid].items():
                acc[row] = acc.get(row, 0) + w * v
        for mid, v in dcol.items():
            for row, w in c[mid].items():
                acc[row] = acc.get(row, 0) - w * v
        if any(acc.values()):
            return False
    return True


def reference_report(spec, m):
    """verify_family's report by the reference route on the same integer matrices."""
    family = {k: family_arrays(spec, k) for k in (m - 1, m, m + 1) if 0 <= k <= spec.total_weight}
    here = family[m]
    scales = _site_scales(spec.z)
    whole = math.lcm(*scales)
    total = sum(op * (whole // d) for op, d in zip(here, scales))
    family = {k: [columns(op) for op in ops] for k, ops in family.items()}
    here = family[m]
    commuting = all(columns_products_equal(a, b, b, a) for k, a in enumerate(here) for b in here[k + 1 :])
    symmetry = True
    for k, gen in ((m - 1, "E"), (m + 1, "F")):
        if k in family:
            g = columns(build_total_generator(gen, spec, m).to_array(object))
            symmetry = symmetry and all(columns_products_equal(x, g, g, h) for x, h in zip(family[k], here))
    return VerifyReport(commuting, not total.any(), symmetry)


def dense(op, b=0):
    """(X_b of the integer SparseOperator op as a dense matrix, the largest row sum of its |entries|, the
    largest |entry|), in int64 when the row sums of |coef|, summed in floats, are below 2^62 (so surely
    below 2^63), and in Python ints otherwise."""
    int64 = op.coef.dtype == np.int64 and np.abs(op.coef[:, b]).astype(float).sum(axis=0).max(initial=0) < 2**62
    mat = _scatter(op.src[:, b], op.coef[:, b, :, None], op.dim, np.int64 if int64 else object)
    absolute = np.abs(mat)
    return mat, int(absolute.sum(axis=1).max(initial=0)), int(absolute.max(initial=0))


def exact_product(a, b):
    """x @ y for dense(x) and dense(y), exact: in float64 when the widest row of x times the largest entry
    of y is below 2^53, where every partial sum is an integer that a float holds exactly; otherwise row t
    sums x[t, s] y[s] over the nonzero x[t, s] in Python ints."""
    (x, widest, _), (y, _, largest) = a, b
    if widest * largest < 2**53:
        return x.astype(float) @ y.astype(float)
    x, y = x.astype(object), y.astype(object)
    rows, cols = np.nonzero(x)
    out = np.zeros((x.shape[0], y.shape[1]), dtype=x.dtype)
    if rows.size:
        first = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        out[rows[first]] = np.add.reduceat(x[rows, cols, None] * y[cols], first)
    return out


def dense_report(spec, m):
    """verify_family's report from dense exact products of the same integer matrices."""
    family = {k: _exact_family(spec, k) for k in (m - 1, m, m + 1) if 0 <= k <= spec.total_weight}
    family = {k: [dense(op, i) for i in range(spec.n_sites)] for k, op in family.items()}
    scales = _site_scales(spec.z)
    whole = math.lcm(*scales)
    here = family[m]
    total = sum(op.astype(object) * (whole // d) for (op, *_), d in zip(here, scales))
    commuting = all(np.array_equal(exact_product(a, b), exact_product(b, a))
                    for k, a in enumerate(here) for b in here[k + 1 :])
    symmetry = True
    for k, gen in ((m - 1, "E"), (m + 1, "F")):
        if k in family:
            g = dense(build_total_generator(gen, spec, m))
            symmetry = symmetry and all(np.array_equal(exact_product(x, g), exact_product(g, h))
                                        for x, h in zip(family[k], here))
    return VerifyReport(commuting, not total.any(), symmetry)


def bench_ladder(weights, seed):
    """The benchmark's ladder specs: z_k = (k^2 + 1)/(k + 2), shifted by a seeded nonzero k/97 unless seed is 1729."""
    import random

    z = [Fraction(k * k + 1, k + 2) for k in range(len(weights))]
    if seed != 1729:
        rng = random.Random(seed)
        z = [x + Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 97) for x in z]
    return ModelSpec(tuple(weights), tuple(z))


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
            assert op.to_array(object).tolist() == [[vacuum_eigenvalue(spec, i)]]


class TestBuildHamiltonian:
    def test_two_site_level_one_matrix(self):
        # hand application of the site actions in the basis {(0,1), (1,0)}
        op = build_hamiltonian(SPEC2, 0, 1)
        assert op.to_array(object).tolist() == [
            [Fraction(1, 2), Fraction(-1)],
            [Fraction(-1), Fraction(1, 2)],
        ]

    def test_sum_is_zero_matrix(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(min(spec.min_weight, 2) + 1):
                total = sum(build_hamiltonian(spec, i, m).to_array(object) for i in range(spec.n_sites))
                assert not total.any()

    def test_complex_array_matches_exact(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        z = np.array([complex(Fraction(x)) for x in spec.z])
        for i in range(spec.n_sites):
            exact = build_hamiltonian(spec, i, 1).to_array(complex)
            arr = hamiltonian_array(spec.weights, z, i, 1)
            assert np.allclose(exact, arr, atol=1e-14)

    @pytest.mark.parametrize(
        "z", [[0, 1, 5], [1, 1], [0]], ids=["extra-site-point", "repeated-site-point", "missing-site-point"]
    )
    def test_complex_array_checks_the_site_points(self, z):
        with pytest.raises(ValueError):
            hamiltonian_array((1, 2), z, 0, 1)


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
        family = _exact_family(spec, 1)
        assert level_report(spec, 1, family).all_ok
        report = level_report(spec, 1, with_entries(family, 0, 0, 1, 1))
        assert not report.commuting
        assert not report.sum_zero
        assert not report.all_ok

    def test_shift_by_identity_breaks_only_the_intertwining(self):
        # H_i + c_i I with sum c_i = 0 still commutes and sums to zero, but
        # no longer intertwines with E; at the top level there is no F check
        spec = ladder_spec((1, 2, 2))
        shifts = (1, -3, 2)
        for m in (1, spec.total_weight):
            family = _exact_family(spec, m)
            diagonal = np.arange(family.dim)
            for b, c in enumerate(shifts):
                family = with_entries(family, b, diagonal, diagonal, c)
            report = level_report(spec, m, family)
            assert report.commuting and report.sum_zero
            assert not report.symmetry_commute

    def test_every_commutator_pair_is_checked(self):
        # only the pair (a, b) fails to commute: M_a = e_01, M_b = e_10, others zero
        spec = ladder_spec((1, 1, 1, 1))
        space = enumerate_weight_space(spec, 1)
        n = spec.n_sites
        for a in range(n):
            for b in range(a + 1, n):
                zero = SparseOperator(np.full((1, n, space.dim), space.dim), np.zeros((1, n, space.dim), dtype=object),
                                      space.dim)
                mats = with_entries(with_entries(zero, a, 0, 1, 1), b, 1, 0, 1)
                assert not level_report(spec, 1, mats).commuting



def random_operator(rng, domain, codomain, density=0.5):
    """A dense object matrix from domain to codomain with random small Python-int entries at a given density."""
    op = np.zeros((codomain.dim, domain.dim), dtype=object)
    for col in range(domain.dim):
        for row in range(codomain.dim):
            if rng.random() < density:
                op[row, col] = int(rng.integers(-3, 4))
    return op


def spaces(weights, m):
    return [enumerate_weight_space(weights, k) for k in (m - 1, m, m + 1)]


class TestProductsEqual:
    """The test-local reference_products_equal decides a @ b == c @ d as the dense difference does."""

    # (a, b, c, d) as (codomain, domain) level offsets from m: square, E-shaped
    # (below @ E == E @ H) and F-shaped (above @ F == F @ H)
    SHAPES = {
        "square": ((0, 0), (0, 0), (0, 0), (0, 0)),
        "E": ((-1, -1), (-1, 0), (-1, 0), (0, 0)),
        "F": ((1, 1), (1, 0), (1, 0), (0, 0)),
    }

    def operators(self, rng, weights, m, shape, density=0.5):
        levels = spaces(weights, m)
        return [
            random_operator(rng, levels[dom + 1], levels[cod + 1], density)
            for cod, dom in self.SHAPES[shape]
        ]

    @staticmethod
    def reference(a, b, c, d):
        return not (a @ b - c @ d).any()

    def test_agrees_with_the_built_difference(self, rng):
        seen = set()
        for weights, m in (((1, 2), 1), ((2, 2, 1), 2), ((1, 1, 1, 2), 2), ((3, 2), 3)):
            for shape in self.SHAPES:
                for density in (0.1, 0.4, 0.9):
                    a, b, c, d = self.operators(rng, weights, m, shape, density)
                    want = self.reference(a, b, c, d)
                    seen.add(want)
                    assert reference_products_equal(a, b, c, d) is want
                    # equal by construction: a @ (k b) == (k a) @ b
                    assert reference_products_equal(a, 3 * b, 3 * a, b)
        assert seen == {True, False}

    def test_entries_cancel_within_a_column(self, rng):
        # a and a @ a + 2a commute; every column of the difference cancels exactly
        space = enumerate_weight_space((2, 2, 1), 2)
        a = random_operator(rng, space, space)
        b = a @ a + 2 * a
        assert ((a @ b != 0).sum(axis=0) > 1).any()
        assert self.reference(a, b, b, a)
        assert reference_products_equal(a, b, b, a)

    def test_difference_only_in_the_last_column(self, rng):
        for shape in self.SHAPES:
            a, b, _, _ = self.operators(rng, (2, 2, 1), 2, shape)
            c, d = 2 * a, b.copy()
            assert reference_products_equal(a, 2 * b, c, d)
            # one more term in d's last column changes only the last column of c @ d
            mid = next(k for k in range(c.shape[1]) if c[:, k].any())
            d[mid, -1] += 1
            diff = a @ (2 * b) - c @ d
            assert list(diff.any(axis=0)) == [False] * (d.shape[1] - 1) + [True]
            assert not reference_products_equal(a, 2 * b, c, d)

    def test_one_differing_entry_among_cancelling_ones(self, rng):
        for shape in self.SHAPES:
            a, b, _, _ = self.operators(rng, (1, 1, 1, 2), 2, shape, density=0.9)
            c = a.copy()
            # perturbing one entry of c shifts exactly one row of each column
            # of c @ b that reads it; the other rows of those columns cancel
            mid = next(k for k in range(c.shape[1]) if c[:, k].any() and b[k].any())
            row = int(np.flatnonzero(c[:, mid])[0])
            c[row, mid] += 1
            product, diff = a @ b, a @ b - c @ b
            assert not np.delete(diff, row, axis=0).any()
            assert any((product[:, k] != 0).sum() > 1 for k in range(diff.shape[1]) if diff[:, k].any())
            assert self.reference(a, b, c, b) is False
            assert reference_products_equal(a, b, c, b) is False

    def test_shape_mismatch_raises(self, rng):
        square = spaces((2, 2), 2)[1]
        below = spaces((2, 2), 2)[0]
        a = random_operator(rng, square, square)
        e = random_operator(rng, square, below)
        with pytest.raises(ValueError):
            reference_products_equal(a, e, a, a)


class TestBuildCounts:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = hamiltonians._integer_gathers

        def counted(spec, m):
            calls.append(m)
            return original(spec, m)

        monkeypatch.setattr(hamiltonians, "_integer_gathers", counted)
        return calls

    def test_verify_family_builds_at_most_three_families(self, builds, monkeypatch):
        generators = []
        original = hamiltonians._generator

        def counted(gen, weights, m):
            generators.append(gen)
            return original(gen, weights, m)

        monkeypatch.setattr(hamiltonians, "_generator", counted)
        spec = ladder_spec((2, 3, 3, 4))
        for m in range(spec.total_weight + 1):
            builds.clear()
            verify_family(spec, m)
            assert sorted(builds) == [k for k in (m - 1, m, m + 1) if 0 <= k <= spec.total_weight]
        assert set(generators) == {"E", "F"}
        assert len(generators) == 2 * spec.total_weight

    def test_cli_verify_builds_each_matrix_once(self, builds, tmp_path, capsys):
        from gaudin.cli import main

        spec = ladder_spec((2, 3, 3, 4))
        path = tmp_path / "model.json"
        path.write_text(spec.to_json())
        assert main(["verify", "--spec", str(path), "--emit-matrices"]) == 0
        assert len(json.loads(capsys.readouterr().out)["matrices"]) == 52
        assert sorted(builds) == list(range(13))  # each level's family once

def ladder_spec(weights, den=None):
    z = [Fraction(k * k + 1, k + 2) for k in range(len(weights))]
    if den is not None:
        z = [x + Fraction(k + 1, den) for k, x in enumerate(z)]
    return ModelSpec(tuple(weights), tuple(z))


def reference_hamiltonian(spec, i, m):
    """H_i from dense exact site operators, composed and scaled in Fractions."""
    def site(gen, k, level):
        return build_site_operator(gen, k, spec.weights, level).to_array(object)

    dim = enumerate_weight_space(spec, m).dim
    out = np.zeros((dim, dim), dtype=object)
    for j in range(spec.n_sites):
        if j == i:
            continue
        term = site("H", i, m) @ site("H", j, m) * Fraction(1, 2)
        if m < spec.total_weight:
            term = term + site("E", i, m + 1) @ site("F", j, m)
        if m >= 1:
            term = term + site("F", i, m - 1) @ site("E", j, m)
        out = out + term / (spec.z[i] - spec.z[j])
    return out


def dense_entries(mat):
    """(row, col, value) of the nonzero entries of a dense matrix, sorted by (row, col)."""
    return [(row, col, value) for (row, col), value in np.ndenumerate(mat) if value != 0]


def _pair_terms(weights, states, index, i, j):
    """Yield (row, col, k): the Omega_ij entry k / 2, k an int, walked per state; Omega_ij = Omega_ji."""
    for col, s in enumerate(states):
        # diagonal part: H^(i) H^(j) / 2
        yield col, col, (weights[i] - 2 * s[i]) * (weights[j] - 2 * s[j])
        # E^(i) F^(j): lowers n_i, raises n_j
        if s[i] > 0 and s[j] < weights[j]:
            t = list(s)
            t[i] -= 1
            t[j] += 1
            yield index[tuple(t)], col, 2 * s[i] * (weights[i] - s[i] + 1)
        # F^(i) E^(j): raises n_i, lowers n_j
        if s[j] > 0 and s[i] < weights[i]:
            t = list(s)
            t[i] += 1
            t[j] -= 1
            yield index[tuple(t)], col, 2 * s[j] * (weights[j] - s[j] + 1)


def reference_array(weights, z, i, m):
    """The complex matrix summed in _pair_terms order from float(Fraction) terms."""
    space = enumerate_weight_space(weights, m)
    arr = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(len(weights)):
        if j != i:
            for row, col, k in _pair_terms(weights, space.states, space.index, i, j):
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
                    assert op.entries() == dense_entries(reference_hamiltonian(spec, i, m))
                    assert all(type(v) is Fraction for _, _, v in op.entries())

    def test_integer_family_is_scale_times_family(self, rng):
        for _ in range(4):
            spec = self.random_spec_97(rng)
            scales = _site_scales(spec.z)
            assert all(d % 2 == 0 for d in scales)
            for m in range(spec.total_weight + 1):
                ints = SparseOperator(*_integer_gathers(spec, m), enumerate_weight_space(spec, m).dim)
                for i, scale in enumerate(scales):
                    entries = ints.entries(i)
                    assert all(type(v) is int for _, _, v in entries)
                    exact = build_hamiltonian(spec, i, m)
                    assert [(r, c, Fraction(v, scale)) for r, c, v in entries] == exact.entries()

    @pytest.mark.parametrize("weights, seed, int64", [((4,) * 5, 1729, True), ((3,) * 7, 1729, True),
                                                       ((3,) * 7, 555, False)])
    def test_dtype_follows_the_row_bound(self, weights, seed, int64):
        # int64 exactly when max |h_ij| times the largest sum of |k| over a row is below 2^62; at seed 555
        # the (3,)*7 row sums reach 70 bits, so that family stays in Python ints.  Either way the row sums
        # are the Python-int ones, and entries, dense arrays and images hold Python ints and Fractions only
        spec, m = bench_ladder(weights, seed), 3
        k = _pair_map(spec.weights, m)[1]
        bound = max(abs(h) for h in _pair_scales(spec.z).flat) * int(np.abs(k).sum(axis=(0, 2)).max())
        assert (bound < 1 << 62) is int64
        family = _exact_family(spec, m)
        assert (max(family.rowsums) < 1 << 62) is int64
        vec = list(range(1, family.dim + 1))
        for op in [family] + [build_hamiltonian(spec, i, m) for i in range(spec.n_sites)]:
            assert op.coef.dtype == (np.int64 if int64 else object)
            src, coef = op.src.tolist(), op.coef.tolist()
            sites, terms = range(len(src[0])), range(len(src))
            assert op.rowsums == [
                max(sum(abs(coef[h][b][t]) for h in terms if src[h][b][t] != op.dim) for t in range(op.rows))
                for b in sites]
            for b in sites:
                values = [v for *_, v in op.entries(b)] + list(op.to_array(object, b).ravel())
                values += list(op.apply(vec, b))
                assert {type(v) for v in values} == ({int} if op.denominator == 1 else {Fraction})

    def test_one_site_is_site_i_of_the_family(self, rng):
        # build_hamiltonian is site i of _exact_family over D_i, at every level, dtype included: int64 for
        # the denominator-97 specs, Python ints where h_01 = -(2^62 + 1)
        specs = [self.random_spec_97(rng) for _ in range(3)] + [ModelSpec((1, 2, 2), (0, 1, 2**62 + 1))]
        for spec in specs:
            for m in range(spec.total_weight + 1):
                family = _exact_family(spec, m)
                for i, scale in enumerate(_site_scales(spec.z)):
                    op = build_hamiltonian(spec, i, m)
                    assert np.array_equal(op.src, family.src[:, [i]])
                    assert op.coef.dtype == family.coef.dtype
                    assert op.coef.tolist() == family.coef[:, [i]].tolist()
                    assert (op.dim, op.denominator) == (family.dim, scale)
        assert _exact_family(specs[-1], 1).coef.dtype == object

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

    @pytest.mark.parametrize("weights, counts", [((1, 1), [1, 1, 1]), ((1, 2, 3), [1, 2, 2, 2, 2, 2, 1]),
                                                 ((2, 3, 3, 4), [1] + [3] * 11 + [1])])
    def test_independent_count_at_every_level(self, weights, counts):
        # N - 1 inside, 1 at m = 0 and at the top level, where V_m is one-dimensional and each H_i a number
        spec = ladder_spec(weights)
        assert [independent_count(spec, m) for m in range(spec.total_weight + 1)] == counts

    def test_preserves_weight_space(self, rng):
        # every column of H_i stays inside V_m by construction; check shapes
        spec = random_spec(rng, n_max=4, lam_max=2)
        m = spec.min_weight
        op = build_hamiltonian(spec, 0, m)
        dim = enumerate_weight_space(spec, m).dim
        assert (op.rows, op.dim) == (dim, dim)
        assert op.to_array(object).shape == (dim, dim)

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
                    images = [list(op.apply(v)) for v in kernel.vectors]
                    assert rank(base + images) == rank(base)

    def test_symmetric_for_the_shapovalov_form(self, rng):
        # S[r] (D H_i)[r, c] = S[c] (D H_i)[c, r] on integers, truncated levels included
        truncated = 0
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.total_weight + 1):
                truncated += m > spec.min_weight
                norms = _shapovalov_norms(spec.weights, m)
                src, coef = _integer_gathers(spec, m)
                for i in range(spec.n_sites):
                    rows = _scatter(src[:, i], coef[:, i, :, None], src.shape[2], object).tolist()
                    for r, row in enumerate(rows):
                        for c, value in enumerate(row):
                            assert norms[r] * value == norms[c] * rows[c][r]
        assert truncated > 0

    def test_intertwines_with_lowering(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        m = 1
        f_op = build_total_generator("F", spec, m - 1).to_array(object)
        for i in range(spec.n_sites):
            above = build_hamiltonian(spec, i, m).to_array(object)
            below = build_hamiltonian(spec, i, m - 1).to_array(object)
            assert not (above @ f_op - f_op @ below).any()


class TestPairMap:
    def test_maps_are_read_only(self):
        for arr in _pair_map((2, 1, 3), 2) + _hops((2, 1, 3), 2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_second_z_hits_the_cache(self):
        # the maps and the present hops are built once per (weights, m); a form for a new z only reads them
        weights, m = (3, 1, 2, 2), 3
        flat, cols, _, _, bounds = _hops(weights, m)
        misses = [cache.cache_info().misses for cache in (_pair_map, _hops)]
        for z in (np.array([0.0, 1.0, 2.5, -1.0]), np.array([0.5j, 1.0, 2.0 - 1.0j, 4.0])):
            hits = [cache.cache_info().hits for cache in (_pair_map, _hops)]
            form = _gather_forms(weights, z[:, None] - z, m)
            assert [cache.cache_info().hits for cache in (_pair_map, _hops)] == [h + 1 for h in hits]
            assert form[1] is flat and form[2] is cols and form[4] is bounds
        assert [cache.cache_info().misses for cache in (_pair_map, _hops)] == misses

    def test_maps_hold_every_pair_term(self, rng):
        for _ in range(4):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.total_weight + 1):
                space = enumerate_weight_space(spec, m)
                src, k = _pair_map(spec.weights, m)
                assert np.array_equal(src[0], np.tile(np.arange(space.dim), (spec.n_sites, 1)))
                for i, j in itertools.combinations(range(spec.n_sites), 2):
                    terms = set(_pair_terms(spec.weights, space.states, space.index, i, j))
                    # Omega_ij = Omega_ji is held for both sites, as the (j - 1)-th other site of i
                    # and the i-th other site of j
                    for site, r in ((i, j - 1), (j, i)):
                        hops = src[2 * r + 1 : 2 * r + 3, site]
                        held = {(t, t, int(k[r, site, 0, t])) for t in range(space.dim)}
                        held |= {(t, int(hops[h, t]), int(k[r, site, h + 1, t]))
                                 for h in range(2) for t in range(space.dim) if k[r, site, h + 1, t]}
                        assert held == terms
                        assert np.all((hops == space.dim) == (k[r, site, 1:] == 0))


def random_gathers(rng, n, rows, dim, width, big=False):
    """A random integer gather form of n operators: some terms at the sentinel, some entries large."""
    src = rng.integers(0, dim + 1, size=(width, n, rows))
    coef = rng.integers(-3, 4, size=(width, n, rows)).astype(object)
    if big:
        coef = coef * (1 << 70) + rng.integers(-5, 6, size=coef.shape).astype(object)
    return src, coef


def decided(items):
    """_vanishing's answer for items that all lie in one group."""
    return bool(_vanishing(items).all())


def capture_items(monkeypatch):
    """Record the items of every _vanishing call made through the hamiltonians module."""
    calls = []
    original = hamiltonians._vanishing

    def spy(items):
        calls.append(items)
        return original(items)

    monkeypatch.setattr(hamiltonians, "_vanishing", spy)
    return calls


def row_operator(rows, dim, dtype=np.int64):
    """An integer SparseOperator X_0 whose row t holds the (column, value) pairs rows[t], a column possibly repeated."""
    src = np.full((max(map(len, rows), default=0) or 1, 1, len(rows)), dim)
    coef = np.zeros(src.shape, dtype=dtype)
    for t, row in enumerate(rows):
        for h, (col, value) in enumerate(row):
            src[h, 0, t], coef[h, 0, t] = col, value
    return SparseOperator(src, coef, dim)


def reference_vanishing(items) -> list:
    """_vanishing's answer by dense products of Python ints."""
    sums = {}
    for c, x, a, y, b, g in items:
        sums[g] = sums.get(g, 0) + c * (x.to_array(object, a) @ y.to_array(object, b))
    return [not np.any(sums[g]) for g in range(max(sums) + 1)]


def spy_residues(monkeypatch) -> dict:
    """Record, by id of operator, the primes (every modulus but 2^64) SparseOperator.residue is asked for."""
    requested = {}
    residue = SparseOperator.residue

    def spy(op, q):
        if q != 2**64:
            requested.setdefault(id(op), set()).add(q)
        return residue(op, q)

    monkeypatch.setattr(SparseOperator, "residue", spy)
    return requested


class TestVanishing:
    """The residue check against the Python-int reference route."""

    def test_primes_count_down_from_the_mersenne_prime(self):
        primes = [_prime(k) for k in range(6)]
        assert primes[0] == 2**31 - 1
        assert primes == sorted(primes, reverse=True) and len(set(primes)) == 6
        def odd_prime(n):
            return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))

        assert all(odd_prime(p) for p in primes)
        # no prime lies between two consecutive ones
        for hi, lo in zip(primes, primes[1:]):
            assert not any(odd_prime(n) for n in range(lo + 2, hi, 2))

    def test_moduli_are_the_fewest_above_twice_the_bound(self):
        # 2^64 first, then primes only while the product does not exceed twice the bound
        for bound in (0, 1, 2**30, 2**31, 2**61, 2**62 - 1, 2**63 - 1, 2**63, 2**94, 2**100, 3**70):
            moduli = _moduli(bound)
            assert moduli[0] == 2**64 and moduli[1:] == [_prime(k) for k in range(len(moduli) - 1)]
            assert math.prod(moduli) > 2 * bound
            assert len(moduli) == 1 or math.prod(moduli[:-1]) <= 2 * bound
        assert len(_moduli(2**63 - 1)) == 1 and len(_moduli(2**63)) == 2

    @pytest.mark.parametrize("big", [False, True])
    def test_agrees_with_the_reference_on_random_gather_forms(self, rng, big):
        seen = set()
        for weights, m in (((1, 2), 1), ((2, 2, 1), 2), ((1, 1, 1, 2), 2), ((3, 2), 3)):
            below, here, above = spaces(weights, m)
            for shape in ("square", "E", "F"):
                rows_a, mid, dim = {"square": (here, here, here), "E": (below, below, here),
                                    "F": (above, above, here)}[shape]
                rows_c, mid_c = {"square": (here, here), "E": (below, here), "F": (above, here)}[shape]
                for width in (1, 3, 6):
                    a = SparseOperator(*random_gathers(rng, 2, rows_a.dim, mid.dim, width, big), mid.dim)
                    b = SparseOperator(*random_gathers(rng, 2, mid.dim, dim.dim, width, big), dim.dim)
                    c = SparseOperator(*random_gathers(rng, 2, rows_c.dim, mid_c.dim, width, big), mid_c.dim)
                    d = SparseOperator(*random_gathers(rng, 2, mid_c.dim, dim.dim, width, big), dim.dim)
                    for k in range(2):
                        want = reference_products_equal(*(x.to_array(object, k) for x in (a, b, c, d)))
                        seen.add(want)
                        assert decided([(1, a, k, b, k, 0), (-1, c, k, d, k, 0)]) is want
                        # equal by construction, also beside a group that is not
                        assert list(_vanishing([(3, a, k, b, k, 0), (-1, a, k, b, k, 0), (-2, a, k, b, k, 0),
                                                (1, a, k, b, k, 1)])) == [True, not (a.to_array(object, k) @ b.to_array(object, k)).any()]
        assert seen == {True, False}

    @pytest.mark.parametrize("batch", [None, 1 << 6, 1 << 4])
    def test_each_group_is_decided_modulo_its_own_primes(self, rng, monkeypatch, batch):
        # groups of small entries (2^64 alone, or with one prime) beside groups of 2^70-sized ones (three
        # primes or more) in one call: every decision is the Python-int one, an operand that only groups
        # bounded below 2^63 meet is never reduced modulo a prime, and a fault of 2^64, which vanishes
        # modulo the first modulus, is still found, because it raises its own group's bound; with all
        # groups in one batch, a few rows per batch, or one
        if batch is not None:
            monkeypatch.setattr(hamiltonians, "_BATCH", batch)
        dim = enumerate_weight_space((2, 2, 1), 2).dim
        small = [SparseOperator(*random_gathers(rng, 1, dim, dim, 3), dim) for _ in range(2)]
        big = [SparseOperator(*random_gathers(rng, 1, dim, dim, 3, big=True), dim) for _ in range(2)]
        identity = hamiltonians._identity_rows(dim)
        coef = small[0].coef.copy()
        h, t = next((h, t) for t in range(dim) for h in range(3) if small[0].src[h, 0, t] != dim)
        coef[h, 0, t] += 2**64
        faulty = SparseOperator(small[0].src, coef, dim)
        items = [(1, faulty, 0, identity, 0, 0), (-1, small[0], 0, identity, 0, 0),
                 (1, big[0], 0, big[1], 0, 1), (-1, big[0], 0, big[1], 0, 1),
                 (1, small[1], 0, small[0], 0, 2), (-1, small[1], 0, small[0], 0, 2),
                 (1, small[1], 0, identity, 0, 3),
                 (1, big[1], 0, big[0], 0, 4)]
        counts = [len(_moduli(bound)) - 1 for bound in _bounds(items)]  # the primes of each group
        assert counts[0] == 1 and counts[2] == counts[3] == 0 and min(counts[1], counts[4]) >= 3
        requested = spy_residues(monkeypatch)
        assert list(_vanishing(items)) == reference_vanishing(items) == [False, True, True, False, False]
        assert id(small[1]) not in requested and len(requested[id(big[0])]) == max(counts)

    def test_every_level_of_random_specs(self, rng):
        # against dense products, which the column walk of reference_report cross-checks on the first specs
        for k in range(100):
            spec = random_spec(rng, n_max=5, lam_max=4)
            for m in range(spec.total_weight + 1):
                report = verify_family(spec, m)
                assert report == dense_report(spec, m)
                if k < 10:
                    assert report == reference_report(spec, m)
                assert report.all_ok

    @pytest.mark.parametrize("seed", [1729, 555])
    def test_benchmark_ladders(self, seed, monkeypatch):
        calls = capture_items(monkeypatch)
        for weights, levels in (((4,) * 5, range(5)), ((3,) * 7, [3]), ((2, 3, 3, 4), range(13)),
                                ((1, 2, 3, 4), range(11))):
            spec = bench_ladder(weights, seed)
            for m in levels:
                report = verify_family(spec, m)
                assert report == reference_report(spec, m)
                assert report.all_ok
        # both ladders still need primes past 2^64, the seed-555 one (Python-int families) several
        moduli = max(len(_moduli(max(_bounds(items)))) for items in calls)
        assert moduli >= (3 if seed == 555 else 2)

        # and some call holds groups of two moduli counts, which _vanishing decides in one pass per count
        def counts(items):
            bounds = _bounds(items)
            return {len(_moduli(bounds[g])) for *_, g in items}

        assert any(len(counts(items)) > 1 for items in calls)

    @pytest.mark.parametrize("seed", [1729, 555])
    def test_one_level_is_the_window_of_that_level(self, seed, monkeypatch):
        # verify_family(spec, m) is the report _verified_levels yields at m, on the benchmark's levels of the
        # ladders (every level of the two smaller ones), from one _vanishing call per level
        calls = capture_items(monkeypatch)
        for weights, last in (((4,) * 5, 4), ((3,) * 7, 3), ((2, 3, 3, 4), None), ((1, 2, 3, 4), None)):
            spec = bench_ladder(weights, seed)
            window = [(m, report) for m, _, report in _verified_levels(spec, 0, last)]
            assert [m for m, _ in window] == list(range(spec.total_weight + 1 if last is None else last + 1))
            for m, report in window:
                calls.clear()
                assert verify_family(spec, m) == report
                assert len(calls) == 1

    @pytest.mark.parametrize("fault", ["one", "prime", "identity"])
    def test_injected_faults(self, fault, monkeypatch):
        spec = ladder_spec((2, 3, 3, 4))
        level = 4
        original = hamiltonians._integer_gathers
        calls = capture_items(monkeypatch)
        clean = [verify_family(spec, m) for m in (level - 1, level, level + 1)]
        clean_moduli = max(len(_moduli(max(_bounds(items)))) for items in calls)

        def faulty(spec, m):
            src, coef = original(spec, m)
            if m == level:
                if fault == "identity":
                    coef[0, 1] += 5 * _site_scales(spec.z)[1]
                else:
                    hop = int(np.flatnonzero(src[1:, 1, 7] != src.shape[2])[0]) + 1  # a present hop of D_1 H_1
                    if fault == "one":
                        coef[hop, 1, 7] += 1
                    else:  # 2^64, which only a prime finds, on Python ints (the family is int64)
                        coef = coef.astype(object)
                        coef[hop, 1, 7] += 2**64
            return src, coef

        monkeypatch.setattr(hamiltonians, "_integer_gathers", faulty)
        calls.clear()
        reports = [verify_family(spec, m) for m in (level - 1, level, level + 1)]
        assert reports == [reference_report(spec, m) for m in (level - 1, level, level + 1)]
        assert all(r.all_ok for r in clean)
        assert not reports[1].sum_zero and not reports[1].symmetry_commute
        assert not reports[0].symmetry_commute and not reports[2].symmetry_commute
        assert reports[1].commuting is (fault == "identity")
        assert reports[0].commuting and reports[0].sum_zero and reports[2].commuting and reports[2].sum_zero
        if fault == "prime":
            # the fault 2^64 vanishes modulo the first modulus: only the prime its larger bound brings finds it
            assert clean_moduli == 1
            assert max(len(_moduli(max(_bounds(items)))) for items in calls) > 1

    def test_reports_across_batch_boundaries(self, rng, monkeypatch):
        # with _BATCH at 64 products every call spans many batches; the seed-555 ladder needs several
        # primes past 2^64, and its groups fewer or more of them
        monkeypatch.setattr(hamiltonians, "_BATCH", 1 << 6)
        calls = capture_items(monkeypatch)
        batches = []
        expand = hamiltonians._expand

        def counted(starts, counts):
            batches.append(starts.size)
            return expand(starts, counts)

        monkeypatch.setattr(hamiltonians, "_expand", counted)
        for _ in range(4):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.total_weight + 1):
                assert verify_family(spec, m) == reference_report(spec, m)
        calls.clear()
        batches.clear()
        spec = bench_ladder((3,) * 7, 555)
        report = verify_family(spec, 3)
        assert report == reference_report(spec, 3) and report.all_ok
        (items,) = calls
        counts = {len(_moduli(bound)) for bound in _bounds(items)}
        assert len(counts) > 1 and max(counts) >= 3
        assert len(batches) > 3 * 100  # _vanishing expands three times per batch (once more per call)
        # a fault of 2^64 in the last row of D_5 H_5 makes every check of it a multiple of 2^64: only the
        # first prime of each group it reaches, in a late batch, finds it
        original = hamiltonians._integer_gathers

        def faulty(spec, m):
            src, coef = original(spec, m)
            if m == 3:
                hop = int(np.flatnonzero(src[1:, 5, -1] != src.shape[2])[0]) + 1
                coef[hop, 5, -1] += 2**64
            return src, coef

        monkeypatch.setattr(hamiltonians, "_integer_gathers", faulty)
        reports = [verify_family(spec, m) for m in (2, 3, 4)]
        assert reports == [reference_report(spec, m) for m in (2, 3, 4)]
        assert reports[1] == VerifyReport(False, False, False)
        assert not reports[0].symmetry_commute and not reports[2].symmetry_commute

    def test_no_sparse_operator_is_built(self, monkeypatch, tmp_path, capsys):
        # the checks build their integer families and generators directly, never by a public builder
        import gaudin
        from gaudin import build_eigenbasis
        from gaudin.cli import main

        def refuse(*args):
            raise AssertionError("public exact operator builder called")

        for module in (gaudin, gaudin.sl2, gaudin.hamiltonians, gaudin.singular, gaudin.eigenbasis, gaudin.bethe,
                       gaudin.cli):
            for name in ("build_site_operator", "build_total_generator", "build_hamiltonian"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        spec = ladder_spec((2, 3, 3, 4))
        assert all(verify_family(spec, m).all_ok for m in range(spec.total_weight + 1))
        path = tmp_path / "model.json"
        path.write_text(spec.to_json())
        assert main(["verify", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_ok"] is True
        assert len(build_eigenbasis(spec, 2).levels) == 3

    def test_bound_covers_every_entry(self, rng, monkeypatch):
        # the proven bound is at least the largest |entry| of each group's sum, in Python ints, and of
        # each item alone (the sums of verify_family's groups vanish); the prime residue sums stay in
        # int64: at most (products per entry) * 2^31 < 2^63; and the products of a target row are at most
        # the bound the batches are cut by: the entries of that row of A_a times the widest row of B_b,
        # over the group's items
        calls = capture_items(monkeypatch)
        for _ in range(12):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.total_weight + 1):
                verify_family(spec, m)
        for _ in range(20):  # random operators, whose sums do not vanish
            space = enumerate_weight_space((2, 2, 1), 2)
            a, b = (SparseOperator(*random_gathers(rng, 2, space.dim, space.dim, 4, big), space.dim)
                    for big in (False, True))
            calls.append([(1, a, 0, b, 1, 0), (-7, b, 1, a, 0, 0), (3, a, 1, a, 0, 1)])
        assert len(calls) > 20
        for items in calls:
            bounds = _bounds(items)
            sums, row_products, row_bound = {}, {}, {}
            for c, x, a, y, b, g in items:
                product = c * (x.to_array(object, a) @ y.to_array(object, b))
                assert max((abs(v) for v in np.ravel(product)), default=0) <= _bounds([(c, x, a, y, b, 0)])[0]
                sums[g] = sums.get(g, 0) + product
                widest = max(np.diff(x.start).max(initial=0), 1) * max(np.diff(y.start).max(initial=0), 1)
                assert len(items) * widest * 2**31 < 2**63
                # the products of row t: one per entry of B_b row s, for each entry s of A_a row t
                first = x.start[a * x.rows : (a + 1) * x.rows + 1]
                per_entry = np.diff(y.start)[b * y.rows + x.cols[first[0] : first[-1]]]
                row_products[g] = row_products.get(g, 0) + np.array(
                    [per_entry[lo - first[0] : hi - first[0]].sum() for lo, hi in zip(first[:-1], first[1:])])
                row_bound[g] = row_bound.get(g, 0) + np.diff(first) * y.widths[b]
            for g, total in sums.items():
                assert max((abs(v) for v in np.ravel(total)), default=0) <= bounds[g]
                assert np.all(row_products[g] <= row_bound[g])


class TestVanishingBoundaries:
    """_vanishing at the edges of its moduli and shapes, against the Python-int reference."""

    # one row [x, y] times a column of ones: group 0's bound is |c| (|x| + |y|), its one entry c (x + y);
    # group 1 sums (1 + c) (x + y)
    @pytest.mark.parametrize("c, x, y, primes", [
        (1, 2**62, 2**62 - 1, 0),  # bound 2^63 - 1: 2^64 alone
        (1, 2**62, -(2**62 - 1), 0),  # bound 2^63 - 1, entry 1
        (1, 2**62, 2**62, 1),  # bound 2^63: 2^64 and a prime; the entry 2^63 is not 0 modulo 2^64
        (1, -(2**62), -(2**62), 1),  # the entry -2^63, 2^63 modulo 2^64
        (1, -(2**62), 2**62, 1),  # a sum of 0 at bound 2^63
        (1, -(2**61), 2**61, 0),  # the uint64 sum wraps past 2^64 to 0
        (1, -3, -4, 0),  # a negative sum: 2^64 - 7 as uint64
        (-1, -(2**61), 2**61 - 5, 0),
        (2**64 - 1, 3, -2, 1),  # c = -1 modulo 2^64: group 1, 2^64, vanishes modulo 2^64, and a prime finds it
    ])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_bounds_around_two_to_the_63(self, monkeypatch, c, x, y, primes, dtype):
        requested = spy_residues(monkeypatch)
        a = row_operator([[(0, x), (1, y)]], 2, dtype)
        ones = row_operator([[(0, 1)], [(0, 1)]], 1)
        assert a.values.dtype == dtype
        items = [(c, a, 0, ones, 0, 0), (1, a, 0, ones, 0, 1), (c, a, 0, ones, 0, 1)]
        bounds = _bounds(items)
        assert bounds[0] == abs(c) * (abs(x) + abs(y))
        assert len(_moduli(bounds[0])) == 1 + primes
        assert list(_vanishing(items)) == reference_vanishing(items)
        assert _vanishing(items[:1]).tolist() == [x + y == 0]
        assert (id(a) in requested) is (len(_moduli(max(bounds))) > 1)

    def test_several_items_hit_one_target_entry(self):
        # each item adds several products at the entry (0, 0), and the items of a group cancel there
        # only together; the others beside them stay unchanged
        a = row_operator([[(0, 2**62), (1, -7), (0, 5)], [(1, 1)]], 2)
        b = row_operator([[(0, 3), (0, -(2**60))], [(0, 2), (1, 4)]], 2)
        a_sum = row_operator([[(0, 2**62 + 5), (1, -7)], [(1, 1)]], 2, object)
        b_sum = row_operator([[(0, 3 - 2**60)], [(0, 2), (1, 4)]], 2, object)
        for c in (1, 2**40, 2**64 + 3):
            items = [(c, a, 0, b, 0, 0), (-c, a_sum, 0, b_sum, 0, 0),
                     (c, a, 0, b, 0, 1), (c, a, 0, b, 0, 1), (-2 * c, a_sum, 0, b_sum, 0, 1),
                     (c, a, 0, b, 0, 2), (c, a_sum, 0, b, 0, 2), (-c, a, 0, b_sum, 0, 2),
                     (c, a, 0, b, 0, 3), (-c - 1, a_sum, 0, b_sum, 0, 3)]
            assert list(_vanishing(items)) == reference_vanishing(items) == [True, True, False, False]
            assert list(_vanishing(items[:5])) == [True, True]

    @pytest.mark.parametrize("batch", [None, 1])
    def test_operands_with_zero_rows(self, monkeypatch, batch):
        # E on V_0 and F on the top level map to the zero space: their groups vanish with no rows to
        # check, beside groups that do not
        if batch is not None:
            monkeypatch.setattr(hamiltonians, "_BATCH", batch)
        spec = ladder_spec((1, 2, 2))
        top = spec.total_weight
        e, f = hamiltonians._generator("E", spec.weights, 0), hamiltonians._generator("F", spec.weights, top)
        assert e.rows == f.rows == 0
        low, high = _exact_family(spec, 0), _exact_family(spec, top)
        faulty = with_entries(_exact_family(spec, 1), 0, [0], [0], [1])
        here = _exact_family(spec, 1)
        for items in ([(1, e, 0, low, 1, 0)], [(1, e, 0, low, 1, 0), (-3, f, 0, high, 2, 1)],
                      [(1, e, 0, low, 0, 0), (1, faulty, 0, here, 1, 1), (-1, here, 1, faulty, 0, 1),
                       (1, f, 0, high, 2, 2), (2**70, e, 0, low, 2, 3), (1, here, 0, here, 1, 4),
                       (-1, here, 1, here, 0, 4)]):
            assert list(_vanishing(items)) == reference_vanishing(items)
        assert list(_vanishing(items)) == [True, False, True, True, True]

    @pytest.mark.parametrize("span", [1, 40])
    def test_span_caps_the_batches(self, rng, monkeypatch, span):
        # with _SPAN at one target entry every batch holds one target row, and at 40 as many rows of
        # dim V_m columns as fit: the batches are cut by the span of their target entries
        monkeypatch.setattr(hamiltonians, "_SPAN", span)
        batches = []
        expand = hamiltonians._expand

        def counted(starts, counts):
            batches.append(starts.size)
            return expand(starts, counts)

        monkeypatch.setattr(hamiltonians, "_expand", counted)
        for _ in range(3):
            spec = random_spec(rng, n_max=4, lam_max=3)
            n = spec.n_sites
            for m in range(spec.total_weight + 1):
                batches.clear()
                assert verify_family(spec, m) == dense_report(spec, m)
                dim = [enumerate_weight_space(spec, k).dim if 0 <= k <= spec.total_weight else 0
                       for k in (m - 1, m, m + 1)]
                # the target rows: dim V_m per commutator and for the sum, dim V_m-1 and dim V_m+1 per site
                rows = (n * (n - 1) // 2 + 1) * dim[1] + n * (dim[0] + dim[2])
                # one _expand for the load, then three per batch
                assert (len(batches) - 1) % 3 == 0
                assert (len(batches) - 1) // 3 >= rows / max(1, span // dim[1])
                if span == 1:
                    assert len(batches) == 1 + 3 * rows
