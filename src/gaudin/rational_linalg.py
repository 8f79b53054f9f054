"""Exact rank of rational matrices, by elimination on integers.

Matrices are plain lists of row lists of ints or Fractions.  Each row is
cleared of denominators (multiplied by the lcm of its entries' denominators)
and elimination runs fraction-free on Python ints: a row is eliminated by
integer cross-multiplication with the pivot row, and every row is kept
primitive (divided by the gcd of its entries), which keeps the integers
small (Bareiss, Math. Comp. 22, 1968, divides by the previous pivot
instead).  `rank` counts the pivots of this forward pass to echelon form;
no back-substitution is needed, since no kernel is solved for here (the
singular module reads kernels off the extremal projector).
Desk-scale only: no pivot-size heuristics, no sparsity tricks.
"""

from __future__ import annotations

import math


def _cleared(row):
    """(L, L * row as ints), L the lcm of the entries' denominators."""
    lcm = math.lcm(*(x.denominator for x in row))
    return lcm, [x.numerator * (lcm // x.denominator) for x in row]


def _primitive(row: list) -> list:
    """The int row divided by the gcd of its entries (a zero row stays zero)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
        p = mat[r][c]
        for i in range(r + 1, n_rows):
            f = mat[i][c]
            if f != 0:
                mat[i] = _primitive([p * a - f * b for a, b in zip(mat[i], mat[r])])
        pivots.append(c)
        r += 1
    return mat, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1])
