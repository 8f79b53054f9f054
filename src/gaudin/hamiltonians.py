"""The N commuting Gaudin Hamiltonians on each weight subspace.

    H_i = sum_{j != i} Omega_ij / (z_i - z_j),
    Omega_ij = H^(i) H^(j) / 2 + E^(i) F^(j) + F^(i) E^(j) = Omega_ji,

where Omega_ij does not depend on z and preserves each V_m.  Each column of
Omega_ij has at most three entries: a diagonal and two hops, which move one
unit of spin deviation between sites i and j.  _pair_map reads them off the
sl2 index maps once per (weights, m), as read-only gather maps, and both
builders read it.

With D = 2 lcm over i != j of numerator(z_i - z_j), every D / (z_i - z_j) is
an even integer, so _integer_family, the exact builder, makes the integer
matrices D H_i in one walk over the pairs i < j.  build_hamiltonian divides
by D only at the end (exact Fraction entries).  The identities
[H_i, H_j] = 0, sum_i H_i = 0 and the intertwinings with the total E and F
are homogeneous in the H_i, so verify_family checks every one of them on
the integer matrices D H_i, with zero tolerance.  The total H is the scalar
sum(weights) - 2m on V_m, so it needs no check.

For float or complex z, _gather_forms writes every H_i as 2N - 1 gathers
(the diagonal and two hops per j != i) with entries (k / 2) / (z_i - z_j),
given the differences z_i - z_j: the eigenbasis layer passes the correctly
rounded exact ones, the Bethe layer its float ones, and neither layer builds
a dense Hamiltonian.  hamiltonian_array scatters one H_i into a dense matrix
by sl2._scatter.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational_linalg import rank
from .sl2 import (
    ModelSpec,
    SparseOperator,
    build_total_generator,
    enumerate_weight_space,
    _lowering_map,
    _raising_gathers,
    _scatter,
    _weights_of,
)


@functools.lru_cache(maxsize=None)
def _pair_map(weights: tuple[int, ...], m: int):
    """Read-only gather maps (src, k) of every Omega_ij on V_m by site, cached; they do not depend on z.

    k[r, i] holds the integers k of the entries k / 2 of Omega_ij = Omega_ji,
    j = r + (r >= i) the r-th other site of i, with a < b the pair sorted:
    the diagonal H^(a) H^(b), then the hops E^(a) F^(b) and E^(b) F^(a) from
    columns src[2r + 1, i] and src[2r + 2, i].  src[0, i] is the identity.
    A hop E^(a) F^(b) takes row t to t - e_b by sl2._lowering_map, then
    raises site a by sl2._raising_gathers, with k twice that E coefficient.
    A hop that misses row t reads the sentinel dim V_m, with k = 0.
    """
    space = enumerate_weight_space(weights, m)
    n, dim = len(weights), space.dim
    up, coef = _raising_gathers(weights, m)  # from V_{m-1}, with a column appended for its sentinel
    up = np.concatenate([up, np.full((n, 1), dim)], axis=1)
    twice_e = np.concatenate([2 * coef[..., 0], np.zeros((n, 1), dtype=np.int64)], axis=1)
    below = _lowering_map(weights, m - 1).T  # below[b, t]: the V_{m-1} index of t - e_b
    hop_src, hop_k = up[:, below], twice_e[:, below]  # [a, b, t]: the hop E^(a) F^(b) at row t
    h = np.array(weights, dtype=np.int64)[:, None] - 2 * np.array(space.states, dtype=np.int64).T  # H^(s) at row t
    i, r = np.arange(n), np.arange(n - 1)[:, None]
    j = r + (r >= i)  # the r-th other site of i
    a, b = np.minimum(i, j), np.maximum(i, j)
    k = np.stack([h[i] * h[j], hop_k[a, b], hop_k[b, a]], axis=2)
    hops = np.stack([hop_src[a, b], hop_src[b, a]], axis=1).reshape(2 * n - 2, n, dim)
    src = np.concatenate([np.broadcast_to(np.arange(dim), (1, n, dim)), hops])
    src.flags.writeable = k.flags.writeable = False
    return src, k


def _scale(z) -> int:
    """D = 2 lcm over i != j of numerator(z_i - z_j): each D / (z_i - z_j) is an even integer."""
    return 2 * math.lcm(*((zi - zj).numerator for a, zi in enumerate(z) for zj in z[a + 1 :]))


def _integer_family(spec: ModelSpec, m: int) -> list:
    """The integer matrices D H_i on V_m, i = 0..N-1, with D = _scale(spec.z).

    Each pair i < j of _pair_map is read once: an Omega_ij entry k / 2 adds
    k h to D H_i and -k h to D H_j, with h = D / (2 (z_i - z_j)), an integer.
    """
    half = _scale(spec.z) // 2
    space = enumerate_weight_space(spec, m)
    src, k = _pair_map(spec.weights, m)
    family = [SparseOperator.zero(space, space) for _ in range(spec.n_sites)]
    for i, j in itertools.combinations(range(spec.n_sites), 2):
        diff = spec.z[i] - spec.z[j]
        h = half * diff.denominator // diff.numerator
        diag, *hops = k[j - 1, i].tolist()  # j is the (j - 1)-th other site of i
        for row, value in enumerate(diag):
            family[i].add_term(row, row, value * h)
            family[j].add_term(row, row, -value * h)
        for cols, values in zip(src[2 * j - 1 : 2 * j + 1, i].tolist(), hops):
            for row, (col, value) in enumerate(zip(cols, values)):
                if value:
                    family[i].add_term(row, col, value * h)
                    family[j].add_term(row, col, -value * h)
    return family


def build_hamiltonian(spec: ModelSpec, i: int, m: int) -> SparseOperator:
    """Exact matrix of H_i on V_m (site index i is 0-based), Fraction entries."""
    return _integer_family(spec, m)[i].scaled(Fraction(1, _scale(spec.z)))


def _gather_forms(weights, diffs: np.ndarray, m: int):
    """(src, coef) of the family: H_i psi = sl2._gather_sum(sl2._pad(psi), src, coef)[i], src from _pair_map.

    diffs[i, j] = z_i - z_j, float or complex, sets the dtype of coef, which
    has a trailing axis of length 1.  The diagonal of H_i is summed over
    j != i in ascending order; every k / 2 becomes (k / 2) / diffs[i, j].
    """
    src, k = _pair_map(weights, m)
    n, dim = src.shape[1:]
    r = np.arange(n - 1)[:, None]
    terms = k / 2 / diffs[np.arange(n), r + (r >= np.arange(n))][:, :, None, None]
    diag = np.zeros((n, dim), dtype=diffs.dtype)
    for row in terms[:, :, 0]:
        diag = diag + row
    hops = terms[:, :, 1:].transpose(0, 2, 1, 3).reshape(-1, n, dim)
    return src, np.concatenate([diag[None], hops])[..., None]


def hamiltonian_array(weights, z, i: int, m: int) -> np.ndarray:
    """Dense complex matrix of H_i on V_m for arbitrary complex site points z.

    The entries of _gather_forms are added into a zero matrix: off the
    diagonal each position comes from one hop of one pair, so every entry,
    the sign of a zero part included, is the one a sum over the pairs in
    ascending order gives.
    """
    z = np.asarray(z, dtype=complex)
    src, coef = _gather_forms(_weights_of(weights), z[:, None] - z, m)
    return _scatter(src[:, i], coef[:, i], src.shape[2], complex)


def vacuum_eigenvalue(spec: ModelSpec, i: int) -> Fraction:
    """Exact eigenvalue of H_i on the vacuum vector."""
    return _vacuum_eigenvalue(spec.weights, spec.z, i)


def _vacuum_eigenvalue(weights, z, i: int):
    """sum_{j != i} lam_i lam_j / (2 (z_i - z_j)), in the number type of z (Fraction or complex)."""
    return sum(
        weights[i] * weights[j] / (2 * (z[i] - z[j])) for j in range(len(weights)) if j != i
    )


@dataclass
class VerifyReport:
    commuting: bool
    sum_zero: bool
    symmetry_commute: bool

    @property
    def all_ok(self) -> bool:
        return self.commuting and self.sum_zero and self.symmetry_commute


def _products_equal(a: SparseOperator, b: SparseOperator, c: SparseOperator, d: SparseOperator) -> bool:
    """a @ b == c @ d exactly, without building either product.

    Column k of a @ b - c @ d is summed in one dict of ints; the first
    column with a nonzero entry decides False.
    """
    if (a.domain, c.domain, a.codomain, b.domain) != (b.codomain, d.codomain, c.codomain, d.domain):
        raise ValueError("operator composition shapes do not match")
    for bcol, dcol in zip(b.cols, d.cols):
        acc = {}
        get = acc.get
        for mid, v in bcol.items():
            for row, w in a.cols[mid].items():
                acc[row] = get(row, 0) + w * v
        for mid, v in dcol.items():
            for row, w in c.cols[mid].items():
                acc[row] = get(row, 0) - w * v
        if any(acc.values()):
            return False
    return True


def _level_report(spec: ModelSpec, m: int, below, here, above) -> VerifyReport:
    """verify_family's checks on V_m, given the integer families at m-1, m and m+1.

    The three families share one scale D.  below is None at m = 0 and above is
    None at the top level, where E (resp. F) maps to the zero space.
    """
    commuting = all(
        _products_equal(a, b, b, a) for k, a in enumerate(here) for b in here[k + 1 :]
    )
    sum_zero = sum(here[1:], here[0]).is_zero()
    # X_i g == g H_i for the total generator g, with X_i = below_i (E), above_i (F);
    # the total H is the scalar sum(weights) - 2m on V_m: every X_i commutes with it
    symmetry = True
    for family, gen in ((below, "E"), (above, "F")):
        if family is not None:
            g = build_total_generator(gen, spec, m)
            symmetry = symmetry and all(_products_equal(x, g, g, h) for x, h in zip(family, here))
    return VerifyReport(commuting, sum_zero, symmetry)


def verify_family(spec: ModelSpec, m: int) -> VerifyReport:
    """Exact checks of the Hamiltonian family on V_m.  Never raises on failure.

    commuting:        [H_i, H_j] = 0 for all pairs.
    sum_zero:         sum_i H_i = 0.
    symmetry_commute: H_i intertwines with E (V_m -> V_{m-1}) and F
                      (V_m -> V_{m+1}), using the Hamiltonians built on each
                      relevant degree.  The total H is the scalar
                      sum(weights) - 2m on V_m, so it is not checked.

    Every identity is checked on the integer matrices D H_i, with
    D = _scale(spec.z).
    """
    below = _integer_family(spec, m - 1) if m >= 1 else None
    above = _integer_family(spec, m + 1) if m < spec.total_weight else None
    return _level_report(spec, m, below, _integer_family(spec, m), above)


def independent_count(spec: ModelSpec, m: int) -> int:
    """Rational rank of the vectorized Hamiltonians on V_m (N-1 for generic specs).

    The rank of the integer matrices D H_i is the same.
    """
    mats = _integer_family(spec, m)
    vectorized = [[x for row in op.rows() for x in row] for op in mats]
    return rank(vectorized)
