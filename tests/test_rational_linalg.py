from fractions import Fraction

import numpy as np

from gaudin import ModelSpec, rational_linalg, singular_basis_gordan, singular_basis_kernel
from gaudin.rational_linalg import rank


def F(x):
    return Fraction(x)


class TestRank:
    def test_matches_numpy_on_random_integers(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            mat = rng.integers(-4, 5, size=(n, c))
            exact = rank([[F(int(x)) for x in row] for row in mat])
            assert exact == np.linalg.matrix_rank(mat.astype(float))

    def test_rank_plus_nullity(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            mat = [[F(int(x)) for x in row] for row in rng.integers(-4, 5, size=(n, c))]
            assert rank(mat) + len(reference_kernel(mat, c)) == c


def reference_rref(rows):
    """Gauss-Jordan in Fractions: the oracle for rank's pivots and for exact kernels."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(n_rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def reference_kernel(rows, n_cols):
    """Canonical right-kernel basis from reference_rref: 1 at one free column, 0 at the others."""
    reduced, pivots = reference_rref(rows)
    basis = []
    for c in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[c] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][c]
        basis.append(vec)
    return basis


def random_rational_matrix(rng, n_rows, n_cols, dens=(1, 2, 3, 5), density=0.6):
    mat = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            if rng.random() < density:
                row.append(Fraction(int(rng.integers(-9, 10)), int(rng.choice(dens))))
            else:
                row.append(Fraction(0))
        mat.append(row)
    return mat


def mixed_types(mat):
    """Integral entries as int, the others as Fraction."""
    return [[int(x) if x.denominator == 1 else x for x in row] for row in mat]


class TestReferenceRref:
    """The forward pass of rank against the pivots of reference_rref."""

    def test_random_shapes(self, rng):
        for _ in range(60):
            n_rows = int(rng.integers(1, 9))
            n_cols = int(rng.integers(1, 9))
            density = float(rng.choice((0.2, 0.6, 1.0)))
            assert_rank_consistent(random_rational_matrix(rng, n_rows, n_cols, density=density))

    def test_large_prime_denominators(self, rng):
        primes = (7919, 104729, 1299709, 2147483647)
        for _ in range(15):
            n_rows = int(rng.integers(2, 7))
            n_cols = int(rng.integers(2, 7))
            assert_rank_consistent(random_rational_matrix(rng, n_rows, n_cols, dens=primes))

    def test_zero_rows_and_zero_matrix(self, rng):
        for n_rows, n_cols in ((1, 1), (3, 4), (5, 2)):
            assert_rank_consistent([[0] * n_cols for _ in range(n_rows)])
        for _ in range(10):
            mat = random_rational_matrix(rng, 5, 4)
            for i in rng.choice(5, size=2, replace=False):
                mat[int(i)] = [Fraction(0)] * 4
            assert_rank_consistent(mat)

    def test_row_and_column_vectors_and_tall_matrices(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            assert_rank_consistent(random_rational_matrix(rng, 1, n))
            assert_rank_consistent(random_rational_matrix(rng, n, 1))
            assert_rank_consistent(random_rational_matrix(rng, n + 3, max(1, n - 1)))

    def test_duplicate_rows(self, rng):
        for _ in range(10):
            mat = random_rational_matrix(rng, 4, 5)
            mat = mat + [list(mat[1]), [2 * x for x in mat[0]], list(mat[1])]
            assert_rank_consistent(mat)

    def test_int_and_fraction_entries_mixed(self, rng):
        for _ in range(20):
            mat = mixed_types(random_rational_matrix(rng, 5, 6, dens=(1, 1, 1, 4)))
            assert any(type(x) is int for row in mat for x in row)
            assert_rank_consistent(mat)


def rank_deficient_rows(rng, n_cols):
    """A tall matrix with zero rows, repeated rows and integer combinations of its rows."""
    base = random_rational_matrix(rng, int(rng.integers(1, n_cols + 1)), n_cols)
    rows = [list(r) for r in base]
    rows.append([Fraction(0)] * n_cols)
    rows.append(list(base[0]))
    for _ in range(3):
        a, b = (int(x) for x in rng.integers(-3, 4, size=2))
        i, j = (int(x) for x in rng.integers(0, len(base), size=2))
        rows.append([a * x + b * y for x, y in zip(base[i], base[j])])
    rows.append([Fraction(0)] * n_cols)
    order = rng.permutation(len(rows))
    return [rows[int(i)] for i in order]


def assert_rank_consistent(rows):
    r = rank(rows)
    assert r == len(reference_rref(rows)[1])
    assert r == np.linalg.matrix_rank(np.array([[float(x) for x in row] for row in rows]))


class TestRankForwardPass:
    def test_tall_rank_deficient_matrices(self, rng):
        for _ in range(30):
            rows = rank_deficient_rows(rng, int(rng.integers(1, 7)))
            assert len(rows) > len(rows[0])
            assert_rank_consistent(rows)

    def test_all_zero_and_all_repeated(self):
        assert_rank_consistent([[0, 0, 0]] * 5)
        assert_rank_consistent([[Fraction(1, 2), F(-3), F(0), Fraction(7, 5)]] * 6)

    def test_stacked_gordan_and_kernel_rows(self):
        weights = (4,) * 5
        spec = ModelSpec(weights, tuple(Fraction(k * k + 1, k + 2) for k in range(5)))
        stacked = [list(v) for v in singular_basis_gordan(spec, 4).vectors]
        stacked += [list(v) for v in singular_basis_kernel(spec, 4).vectors]
        assert len(stacked) > rank(stacked) == 35
        assert_rank_consistent(stacked)

    def test_stacked_gordan_and_kernel_rows_seven_sites(self):
        # z_k = (k^2+1)/(k+2) shifted by multiples of 1/97, as at benchmark seed 555
        shifts = (-1, 1, -2, -2, -3, -2, 1)
        spec = ModelSpec((3,) * 7, tuple(Fraction(k * k + 1, k + 2) + Fraction(s, 97) for k, s in enumerate(shifts)))
        gordan = [list(v) for v in singular_basis_gordan(spec, 3).vectors]
        stacked = gordan + [list(v) for v in singular_basis_kernel(spec, 3).vectors]
        assert len(stacked) == 112 and len(stacked[0]) == 84
        assert rank(gordan) == rank(stacked) == 56
        assert rank(stacked) == len(reference_rref(stacked)[1])

    def test_empty_and_zero_width(self):
        assert rank([]) == rank([[]]) == rank([[], []]) == 0


def traced_dtypes(monkeypatch):
    """The dtype of every array rank makes primitive, in order."""
    seen = []
    primitive = rational_linalg._primitive

    def spy(a):
        seen.append(a.dtype)
        return primitive(a)

    monkeypatch.setattr(rational_linalg, "_primitive", spy)
    return seen


def combined_rows(rng, base, n_extra):
    """base followed by n_extra small integer combinations of its rows, shuffled."""
    rows = [list(r) for r in base]
    for _ in range(n_extra):
        coeffs = [int(x) for x in rng.integers(-2, 3, size=len(base))]
        rows.append([sum(k * r[j] for k, r in zip(coeffs, base)) for j in range(len(base[0]))])
    return [rows[int(i)] for i in rng.permutation(len(rows))]


class TestRankDtypes:
    """rank on int64 under its bound and on Python ints past it, against reference_rref."""

    def test_entries_past_2_62_from_the_start(self, rng, monkeypatch):
        seen = traced_dtypes(monkeypatch)
        for _ in range(10):
            n_cols = int(rng.integers(2, 7))
            n_rows = int(rng.integers(1, n_cols + 1))
            base = [[int(x) * 2**70 + int(y) for x, y in rng.integers(-5, 6, size=(n_cols, 2))]
                    for _ in range(n_rows)]
            rows = combined_rows(rng, base, 3)
            rows[0] = [Fraction(x, 3) for x in rows[0]]
            assert rank(rows) == len(reference_rref(rows)[1])
        assert seen and all(d == object for d in seen)

    def test_switch_to_python_ints_mid_pass(self, rng, monkeypatch):
        # entries below 2^25 keep the first update below 2^52, and the rows it
        # forms (about 2^50) cross-multiply past 2^62 at the next pivot
        seen = traced_dtypes(monkeypatch)
        for _ in range(10):
            n_cols = int(rng.integers(4, 8))
            base = [[int(x) for x in rng.integers(-2**25, 2**25, size=n_cols)] for _ in range(n_cols - 1)]
            rows = combined_rows(rng, base, 3)
            seen.clear()
            assert rank(rows) == len(reference_rref(rows)[1]) == n_cols - 1
            assert seen[:2] == [np.int64, np.int64] and seen[-1] == object
