"""Singular vectors of the tensor module: vectors annihilated by the total E.

Two independent routes are provided.  The Gordan-type construction builds,
for each composition (k_1..k_{N-1}) of m, an explicit vector by repeatedly
adjoining one site with the bilinear covariant-style operator

    P_k(u (x) v_lam) = sum_j (-1)^j C(k,j) (k-j-lam)_j / (-mu)_j  F_tot^j u (x) F^{k-j} v_lam,

where mu is the SL(2) weight of the left factor u and (x)_j is the rising
factorial.  Compositions sharing a prefix share its vector: the prefix tree
is walked one depth at a time, the nodes of one depth and degree forming one
block of primitive int columns, whose lowering chain F_tot^t u is formed
once by sl2._apply on the present entries of F (sl2._form) and combined
with each child's coefficients cleared by their lcm.  The kernel route, the
independent cross-check, applies the sl2 extremal projector
prod_k (1 - F E / c_k) (Asherova, Smirnov and Tolstoy, Theor. Math. Phys.
8, 1971) to the ballot states of V_m, the highest-weight states of the
crystal (Kashiwara's signature rule), by the same applier and forms.  It
is valid for every m, the truncated regime m > min(weights) included, and
its block gives the eigenbasis layer its frame.  Both routes run on NumPy
int64 blocks while a bound on every entry they form stays below 2^62, and
on Python ints above it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational_linalg import _cleared
from .sl2 import (_appended, _apply, _bounded_compositions, _exact_dtype, _form, _level, _space,
                  enumerate_weight_space, _weights_of)


class GordanSingularityError(ValueError):
    """Coefficient denominators vanish: the left weight is smaller than the step count."""


class UnsupportedRegimeError(ValueError):
    """Gordan construction requested for m > min(weights)."""


def pochhammer(x, k: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+k-1), with empty product 1."""
    out = Fraction(1)
    x = Fraction(x)
    for i in range(k):
        out *= x + i
    return out


def singular_dimension_formula(n_sites: int, m: int) -> int:
    """Untruncated dimension C(m+N-2, m) of the singular subspace of V_m."""
    return math.comb(m + n_sites - 2, m)


def singular_dimension(spec_or_weights, m: int) -> int:
    """Exact dimension dim V_m - dim V_{m-1} of the singular subspace of V_m.

    Zero when 2m > sum(weights): the total raising operator is then injective
    on V_m.  Equals singular_dimension_formula while m <= min(weights).
    """
    weights, m = _weights_of(spec_or_weights), _level(m)
    if m < 0 or 2 * m > sum(weights):
        return 0
    below = enumerate_weight_space(weights, m - 1).dim if m >= 1 else 0
    return enumerate_weight_space(weights, m).dim - below


@dataclass(frozen=True)
class GordanCoefficients:
    m: int
    lambda1: Fraction
    lambda2: Fraction
    coeffs: tuple


def gordan_coefficients(m: int, lambda1, lambda2) -> GordanCoefficients:
    """Coefficients c_k = (-1)^k C(m,k) (m-k-lambda2)_k / (-lambda1)_k, k = 0..m.

    Defined only for lambda1 >= m; otherwise a denominator factor vanishes and
    the construction leaves its unique-solution regime.  ValueError for a float m.
    """
    return _gordan_coefficients(_level(m), lambda1, lambda2)


@functools.lru_cache(maxsize=None)
def _gordan_coefficients(m: int, lambda1, lambda2) -> GordanCoefficients:
    """gordan_coefficients for an int m, cached per (m, lambda1, lambda2)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    l1 = Fraction(lambda1)
    l2 = Fraction(lambda2)
    if l1 < m:
        raise GordanSingularityError(
            f"left weight {l1} smaller than m={m}: coefficient denominators vanish"
        )
    coeffs = []
    for k in range(m + 1):
        # each factor -l1 + t of (-l1)_k has t < k <= m <= l1, so none vanishes
        num = pochhammer(m - k - l2, k)
        coeffs.append(Fraction((-1) ** k * math.comb(m, k)) * num / pochhammer(-l1, k))
    return GordanCoefficients(m, l1, l2, tuple(coeffs))


def _adjoin(weights: tuple, degree: int, block: np.ndarray, ks) -> list:
    """P_k of every column of block, nonzero int columns over V_degree(weights[:-1]), for each k in ks (ascending).

    Returns one (k, w, lcm) per k: w = lcm P_k block over V_{degree+k}(weights), lcm that of the
    coefficients' denominators.  Every k shares the lowering chain F_tot^t block.  No entry formed
    exceeds max |block| times the largest cleared coefficient times the row sums of each F_tot
    on the chain: a row into V_{d+1} has a 1 for each of its at most min(N, d + 1) occupied sites.
    """
    prefix, lam = weights[:-1], weights[-1]
    cleared = [_cleared(gordan_coefficients(k, sum(prefix) - 2 * degree, lam).coeffs) for k in ks]
    growth = math.prod(min(len(prefix), degree + t + 1) for t in range(ks[-1]))
    dtype = _exact_dtype(int(np.abs(block).max()) * growth * max(abs(c) for _, cs in cleared for c in cs))
    chain = [block.astype(dtype)]
    out = []
    for k, (lcm, coeffs) in zip(ks, cleared):
        while len(chain) <= k:
            chain.append(_apply(_form("F", prefix, degree + len(chain) - 1), chain[-1]))
        w = np.zeros((_space(weights, degree + k).dim, block.shape[1]), dtype=dtype)
        for j in range(max(0, k - lam), k + 1):
            w[_appended(weights, degree + k, k - j)] = coeffs[j] * chain[j]
        out.append((k, w, lcm))
    return out


def _scaled(block: np.ndarray, mults: list, den: int) -> tuple:
    """Column c of the int block times mults[c] / den, as Fractions built once per distinct value."""
    fraction = functools.lru_cache(maxsize=None)(functools.partial(Fraction, denominator=den))
    return tuple(tuple(map(fraction, col)) for col in (block * np.array(mults, dtype=object)).T.tolist())


def apply_P(spec_or_weights, k: int, u, m: int):
    """Adjoin the last site to a weight vector of the first N-1 sites.

    u is an exact coordinate vector over the degree-(m-k) weight space of
    weights[:-1]; the result is the coordinate vector of

        sum_j c_j (F_tot^j u) (x) F^{k-j} v_{lam_N}

    in the full degree-m space, with Gordan coefficients at (k, mu, lam_N)
    where mu = sum(weights[:-1]) - 2(m-k) is the SL(2) weight of u.
    """
    weights = _weights_of(spec_or_weights)
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    u = [Fraction(x) for x in u]
    if len(u) != enumerate_weight_space(weights[:-1], m - k).dim:
        raise ValueError("u does not match the prefix weight space dimension")
    if all(x == 0 for x in u):
        raise ValueError("u must be nonzero")
    lcm, ints = _cleared(u)
    ((_, w, den),) = _adjoin(weights, m - k, np.array(ints, dtype=object)[:, None], (k,))
    return list(_scaled(w, [1], den * lcm)[0])


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, lex order."""
    return _bounded_compositions((total,) * parts, total)


@dataclass(frozen=True)
class SingularBasis:
    """Exact basis vectors of the singular subspace of V_m.

    labels holds one composition (k_1..k_{N-1}) per vector for the Gordan
    route and is None for the kernel route.  Coordinates are ordered by the
    weight space enumeration.
    """

    m: int
    labels: tuple | None
    vectors: tuple

    @property
    def count(self) -> int:
        return len(self.vectors)


def singular_basis_gordan(spec_or_weights, m: int) -> SingularBasis:
    """One singular vector per composition of m into N-1 parts, in lex order.

    The composition entry k_1 is used when adjoining site 2, k_2 when
    adjoining site 3, and so on.  The adjoin step runs once per (depth,
    degree) of the prefix tree.  Only valid for m <= min(weights); the
    kernel route covers the truncated regime.
    """
    weights, m = _weights_of(spec_or_weights), _level(m)
    if m > min(weights):
        raise UnsupportedRegimeError(
            f"Gordan construction requires m <= min(weights) = {min(weights)}, got m={m}"
        )
    n = len(weights)
    groups = {0: ([()], np.ones((1, 1), dtype=np.int64))}  # degree -> labels and primitive int columns
    for j in range(2, n + 1):
        grown = {}
        for degree, (labels, block) in groups.items():
            for k, w, _ in _adjoin(weights[:j], degree, block, (m - degree,) if j == n else range(m - degree + 1)):
                labels_k, blocks = grown.setdefault(degree + k, ([], []))
                labels_k.extend(label + (k,) for label in labels)
                blocks.append(w // np.gcd.reduce(w, axis=0))
        groups = {d: (labels, np.concatenate(blocks, axis=1)) for d, (labels, blocks) in grown.items()}
    labels, block = groups[m]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    # c_0 = 1 at every step, so each vector is 1 at its ballot state (0,) + label
    index = _space(weights, m).index
    pivots = block[[index[(0,) + labels[i]] for i in order], order].tolist()
    den = math.lcm(*pivots)
    vectors = _scaled(block[:, order], [den // p for p in pivots], den)
    return SingularBasis(m, tuple(labels[i] for i in order), vectors)


def _projected(weights: tuple, m: int) -> np.ndarray:
    """The extremal projector times an integer on each ballot state of V_m: an exact basis of ker E.

    The ballot states n, n_k <= sum_{j<k} (lam_j - 2 n_j) at every site k, are the highest-weight states of
    the crystal and complement F V_{m-1}, the kernel of prod_k (1 - F E / c_k) over the k with Sing V_{m-k}
    nonzero, c_k = k (sum(weights) - 2m + k + 1), applied as v <- c_k v - F E v.  An int64 or object block.
    """
    space = enumerate_weight_space(weights, m)
    states = np.array(space.states).reshape(space.dim, len(weights))
    step = np.array(weights) - 2 * states
    ballot = np.flatnonzero((states <= np.cumsum(step, axis=1) - step).all(axis=1))
    scales = [k * (sum(weights) - 2 * m + k + 1) for k in range(1, m + 1)
              if len(ballot) and singular_dimension(weights, m - k)]
    raising, lowering = _form("E", weights, m), _form("F", weights, m - 1)
    # a step multiplies the largest entry by at most c_k plus the row sums of E (its present
    # coefficients added per row) times those of F (at most min(N, m) ones)
    rows, _, coef, _, height = raising
    sums = np.zeros(height, dtype=np.int64)
    np.add.at(sums, rows, coef)
    gain = int(sums.max(initial=0)) * min(len(weights), m)
    dtype = _exact_dtype(math.prod(c + gain for c in scales))
    vecs = np.zeros((space.dim, len(ballot)), dtype=dtype)
    vecs[ballot, np.arange(len(ballot))] = 1
    for c in scales:
        vecs = c * vecs - _apply(lowering, _apply(raising, vecs))
    return vecs


def singular_basis_kernel(spec_or_weights, m: int) -> SingularBasis:
    """The columns of _projected over their gcds: primitive int vectors, in the order of their states.

    For m <= min(weights) the ballot states are the Gordan labels with 0 prepended, and the Gordan basis is
    unitriangular on them.  The projector is Shapovalov-orthogonal, so each vector is positive at its own state.
    """
    vecs = _projected(_weights_of(spec_or_weights), m)
    vecs //= np.gcd.reduce(vecs, axis=0)
    return SingularBasis(m, None, tuple(map(tuple, vecs.T.tolist())))
