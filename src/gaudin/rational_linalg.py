"""Exact Gaussian elimination over rational matrices, done on integers.

Matrices are plain lists of row lists of ints or Fractions.  Each row is
cleared of denominators (multiplied by the lcm of its entries' denominators)
and elimination runs fraction-free on Python ints: a row is eliminated by
integer cross-multiplication with the pivot row, and every row is kept
primitive (divided by the gcd of its entries), which keeps the integers
small (Bareiss, Math. Comp. 22, 1968, divides by the previous pivot
instead).  `rank` counts the pivots of a forward pass to echelon form;
`rref` and `nullspace` back-substitute too, and only the final division of
each pivot row by its pivot makes Fractions.  The reduced row echelon form
is unique, so this returns exactly what elimination in Fractions returns.
Desk-scale only: no pivot-size heuristics, no sparsity tricks.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _cleared(row):
    """(L, L * row as ints), L the lcm of the entries' denominators."""
    lcm = math.lcm(*(x.denominator for x in row))
    return lcm, [x.numerator * (lcm // x.denominator) for x in row]


def _primitive(row: list) -> list:
    """The int row divided by the gcd of its entries (a zero row stays zero)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(mat, r: int, c: int, rows) -> None:
    """Clear column c of the rows `rows` against pivot row r, keeping them primitive."""
    p = mat[r][c]
    for i in rows:
        f = mat[i][c]
        if f != 0:
            mat[i] = _primitive([p * a - f * b for a, b in zip(mat[i], mat[r])])


def _echelon(rows):
    """Fraction-free forward pass to echelon form.  Returns (int_rows, pivot_columns)."""
    mat = [_primitive(_cleared(row)[1]) for row in rows]
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
        _eliminate(mat, r, c, range(r + 1, n_rows))
        pivots.append(c)
        r += 1
    return mat, pivots


def _integer_rref(rows):
    """(int_rows, pivot_columns) after the forward pass and back-substitution: every
    row is primitive or zero, and pivot row k is the reduced row k times its pivot."""
    mat, pivots = _echelon(rows)
    for r in range(len(pivots) - 1, 0, -1):
        _eliminate(mat, r, pivots[r], range(r))
    return mat, pivots


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns).

    The rows come back as lists of Fractions.
    """
    mat, pivots = _integer_rref(rows)
    reduced = [[Fraction(x, mat[k][c]) for x in mat[k]] for k, c in enumerate(pivots)]
    reduced.extend([Fraction(0)] * len(row) for row in mat[len(pivots) :])
    return reduced, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def nullspace(rows, n_cols=None):
    """Canonical basis of the right kernel, one vector per free column.

    Each basis vector has entry 1 at its free column and 0 at every other
    free column, so the basis is unique.  n_cols must be given when rows is
    empty (no constraints: the kernel is the whole space).
    """
    if rows:
        n_cols = len(rows[0])
    elif n_cols is None:
        raise ValueError("n_cols required for an empty constraint matrix")
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for c in free:
        vec = [Fraction(0)] * n_cols
        vec[c] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][c]
        basis.append(vec)
    return basis
