"""Singular vectors of the tensor module: vectors annihilated by the total E.

Two independent routes are provided.  The Gordan-type construction builds,
for each composition (k_1..k_{N-1}) of m, an explicit vector by repeatedly
adjoining one site with the bilinear covariant-style operator

    P_k(u (x) v_lam) = sum_j (-1)^j C(k,j) (k-j-lam)_j / (-mu)_j  F_tot^j u (x) F^{k-j} v_lam,

where mu is the SL(2) weight of the left factor u and (x)_j is the rising
factorial.  Compositions sharing a prefix share its vector: a depth-first walk
over the prefix tree, in Python ints, holds each node's u as a primitive int
vector times one Fraction, gathers its lowering chain F_tot^t u once through
the cached index map of sl2, and combines it with each child's coefficients
cleared by their lcm.  The kernel route, the independent cross-check, applies
the sl2 extremal projector prod_k (1 - F E / c_k) (Asherova, Smirnov and
Tolstoy, Theor. Math. Phys. 8, 1971) to the ballot states of V_m, the
highest-weight states of the crystal (Kashiwara's signature rule), through
the same index maps in Python ints.  It is valid for every m, including the
truncated regime m > min(weights) where the Gordan route is not offered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational_linalg import _cleared, _primitive
from .sl2 import (
    _bounded_compositions,
    _gather_sum,
    _lower,
    _lowering_map,
    _pad,
    _raising_gathers,
    _space,
    enumerate_weight_space,
    _weights_of,
)


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
    weights = _weights_of(spec_or_weights)
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


@functools.lru_cache(maxsize=None)
def gordan_coefficients(m: int, lambda1, lambda2) -> GordanCoefficients:
    """Coefficients c_k = (-1)^k C(m,k) (m-k-lambda2)_k / (-lambda1)_k, k = 0..m.

    Defined only for lambda1 >= m; otherwise a denominator factor vanishes and
    the construction leaves its unique-solution regime.
    """
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


def _adjoin(prefix: tuple, lam_last: int, degree: int, u: list, ks) -> list:
    """P_k u for each k in ks (ascending), u a nonzero int vector over V_degree(prefix).

    The lowering chain F_tot^t u grows to t = k as each k needs it, so every
    k shares it.  Returns one (k, w, factor) per k with P_k u = factor * w and
    w a primitive int vector over V_{degree+k}(prefix + (lam_last,)).
    """
    chain = [u]
    out = []
    for k in ks:
        lcm, coeffs = _cleared(gordan_coefficients(k, sum(prefix) - 2 * degree, lam_last).coeffs)
        while len(chain) <= k:
            padded = chain[-1] + [0]
            src = _lowering_map(prefix, degree + len(chain) - 1).tolist()
            chain.append([sum(map(padded.__getitem__, row)) for row in src])
        index = _space(prefix + (lam_last,), degree + k).index
        w = [0] * len(index)
        for j in range(max(0, k - lam_last), k + 1):
            for state, x in zip(_space(prefix, degree + j).states, chain[j]):
                if x:
                    w[index[state + (k - j,)]] += coeffs[j] * x
        g = math.gcd(*w) or 1
        out.append((k, [x // g for x in w], Fraction(g, lcm)))
    return out


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
    ((_, w, factor),) = _adjoin(weights[:-1], weights[-1], m - k, ints, (k,))
    return [x * factor / lcm for x in w]


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
    adjoining site 3, and so on.  A depth-first walk over the prefix tree,
    children in ascending k, runs the adjoin step once per prefix.  Only
    valid for m <= min(weights); the kernel route covers the truncated regime.
    """
    weights = _weights_of(spec_or_weights)
    if m > min(weights):
        raise UnsupportedRegimeError(
            f"Gordan construction requires m <= min(weights) = {min(weights)}, got m={m}"
        )
    n = len(weights)

    def walk(label, degree, u, factor):
        j = len(label) + 1
        if j == n:
            yield label, tuple(x * factor for x in u)
            return
        ks = (m - degree,) if j == n - 1 else range(m - degree + 1)
        for k, w, step in _adjoin(weights[:j], weights[j], degree, u, ks):
            yield from walk(label + (k,), degree + k, w, factor * step)

    labels, vectors = zip(*walk((), 0, [1], Fraction(1)))
    return SingularBasis(m, labels, vectors)


def singular_basis_kernel(spec_or_weights, m: int) -> SingularBasis:
    """The extremal projector applied to the ballot states of V_m, as primitive int vectors.

    The ballot states n have n_k <= sum_{j<k} (lam_j - 2 n_j) at every site k,
    so n_0 = 0: the highest-weight states of the crystal, singular_dimension
    of them.  They complement F V_{m-1}, the kernel of the projector; for
    m <= min(weights) they are the Gordan labels with 0 prepended, and the
    Gordan basis is unitriangular on them.  The projector prod_k (1 - F E / c_k), c_k = k (sum(weights) - 2m + k + 1),
    over the k with Sing V_{m-k} nonzero, is applied as v <- c_k v - F E v.
    It is orthogonal for the Shapovalov form, so each vector is positive at its
    own state; the vectors follow the enumeration order of their states.
    """
    weights = _weights_of(spec_or_weights)
    space = enumerate_weight_space(weights, m)
    states = np.array(space.states).reshape(space.dim, len(weights))
    step = np.array(weights) - 2 * states
    ballot = np.flatnonzero((states <= np.cumsum(step, axis=1) - step).all(axis=1))
    vecs = np.zeros((space.dim, len(ballot)), dtype=object)
    vecs[ballot, np.arange(len(ballot))] = 1
    unit = np.ones((len(weights), 1), dtype=object)
    for k in range(1, m + 1):
        if len(ballot) and singular_dimension(weights, m - k):
            raised = _gather_sum(_pad(vecs), *_raising_gathers(weights, m))
            lowered = _lower(raised, _lowering_map(weights, m - 1), unit)
            vecs = k * (sum(weights) - 2 * m + k + 1) * vecs - lowered
    return SingularBasis(m, None, tuple(tuple(_primitive(col)) for col in vecs.T.tolist()))
