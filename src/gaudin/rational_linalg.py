"""Exact Gaussian elimination over Fraction matrices.

Matrices are plain lists of row lists.  Desk-scale only: no pivot-size
heuristics, no sparsity tricks.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
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


def rank(rows) -> int:
    return len(rref(rows)[1])


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

