from fractions import Fraction

import numpy as np
import pytest

from gaudin.rational_linalg import nullspace, rank, rref


def F(x):
    return Fraction(x)


class TestRref:
    def test_hand_example(self):
        rows = [[F(2), F(4)], [F(1), F(2)]]
        reduced, pivots = rref(rows)
        assert reduced == [[F(1), F(2)], [F(0), F(0)]]
        assert pivots == [0]

    def test_identity_stays(self):
        rows = [[F(1), F(0)], [F(0), F(1)]]
        reduced, pivots = rref(rows)
        assert reduced == rows and pivots == [0, 1]

    def test_input_not_mutated(self):
        rows = [[F(2), F(4)]]
        rref(rows)
        assert rows == [[F(2), F(4)]]


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
            assert rank(mat) + len(nullspace(mat)) == c


class TestNullspace:
    def test_kernel_vectors_annihilated(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = int(rng.integers(1, 6))
            mat = [[F(int(x)) for x in row] for row in rng.integers(-4, 5, size=(n, c))]
            for vec in nullspace(mat):
                assert all(
                    sum(row[j] * vec[j] for j in range(c)) == 0 for row in mat
                )

    def test_canonical_free_column_pattern(self):
        mat = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
        basis = nullspace(mat)
        assert basis == [[F(-1), F(1), F(0)]]

    def test_empty_matrix_is_full_kernel(self):
        basis = nullspace([], n_cols=2)
        assert basis == [[F(1), F(0)], [F(0), F(1)]]

    def test_empty_matrix_requires_n_cols(self):
        with pytest.raises(ValueError):
            nullspace([])

