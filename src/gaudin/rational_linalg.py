"""Exact rank of rational matrices, by elimination on integers.

Matrices are plain lists of row lists of ints or Fractions.  Each row is
cleared of denominators (multiplied by the lcm of its entries' denominators)
and elimination runs fraction-free on one NumPy array: all rows below the
pivot with a nonzero in its column are eliminated at once by integer
cross-multiplication with the pivot row, and every row is kept primitive
(divided by the gcd of its entries), which keeps the integers small
(Bareiss, Math. Comp. 22, 1968, divides by the previous pivot instead).
The array is int64 while a Python-int bound keeps every entry formed below
2^62 (checked at the start and before each update), and dtype object
(Python ints) from the first update it does not cover on.  `rank` counts
the pivots of this forward pass to echelon form; no kernel is solved for
here (the singular module reads kernels off the extremal projector).
"""

from __future__ import annotations

import math

import numpy as np

from .sl2 import _exact_dtype


def _cleared(row):
    """(L, L * row as ints), L the lcm of the entries' denominators."""
    lcm = math.lcm(*(x.denominator for x in row))
    return lcm, [x.numerator * (lcm // x.denominator) for x in row]


def _primitive(a: np.ndarray) -> np.ndarray:
    """The int rows of a divided by the gcd of their entries (a zero row stays zero)."""
    return a // np.maximum(np.gcd.reduce(a, axis=1, keepdims=True), 1)


def rank(rows) -> int:
    ints = [_cleared(row)[1] for row in rows]
    if not ints or not ints[0]:
        return 0
    try:
        a = np.array(ints, dtype=np.int64)
        a = a.astype(_exact_dtype(max(int(a.max()), -int(a.min()))), copy=False)
    except OverflowError:  # an entry past int64
        a = np.array(ints, dtype=object)
    a = _primitive(a)
    n_rows, r = len(ints), 0
    while r < n_rows:
        # the columns left of the last pivot are zero from row r down, so the
        # next pivot column is the first with a nonzero there, found in one step
        mag = np.abs(a[r:])
        peak = mag.max(axis=0)
        c = (peak != 0).argmax()
        hit = mag[:, c].nonzero()[0] + r
        if not hit.size:
            break
        if hit[0] != r:
            a[[r, hit[0]]] = a[[hit[0], r]]
        below = hit[1:]  # the old row r is zero in column c and needs no update
        if below.size:
            sub, pivot = a[below], a[r]
            p, f = pivot[c], sub[:, c]
            # a new entry is at most |p| max|sub| + max|f| max|pivot| <= 2 max|a[r:]|^2
            if a.dtype != object and 2 * int(peak.max()) ** 2 >= 2**62 and (
                    abs(int(p)) * int(np.abs(sub).max()) + int(np.abs(f).max()) * int(np.abs(pivot).max()) >= 2**62):
                a, sub, pivot = a.astype(object), sub.astype(object), pivot.astype(object)
                p, f = pivot[c], sub[:, c]
            a[below] = _primitive(sub * p - np.multiply.outer(f, pivot))
        r += 1
    return r
