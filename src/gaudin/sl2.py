"""Finite-dimensional SL(2) highest-weight modules and their tensor products.

A site of integer weight lam carries the (lam+1)-dimensional module spanned by
v_n = F^n v_lam, n = 0..lam, with

    H v_n = (lam - 2n) v_n,
    E v_n = n (lam - n + 1) v_{n-1},
    F v_n = v_{n+1},        F^{lam+1} v_lam = 0.

The tensor product of N sites is graded by the spin deviation m = sum(n_i);
this module enumerates the weight subspaces V_m.  The cached index maps
_lowering_map (F) and _raising_gathers (E) are the one table of the action:
float layers gather through them, and exact or dense operators are scattered
from them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# default RNG seed shared by every randomized routine, for reproducible runs
DEFAULT_SEED = 1729


def _checked_sites(weights, z) -> tuple[int, ...]:
    """The weights as ints, once the rules of a model instance hold; ValueError otherwise.

    The rules: at least two sites, one site point per weight, integer
    weights >= 1 and pairwise-distinct site points.
    """
    if len(weights) < 2:
        raise ValueError("need at least two sites")
    if len(z) != len(weights):
        raise ValueError("weights and z must have the same length")
    ints = tuple(int(w) for w in weights)
    if any(w < 1 or w != given for w, given in zip(ints, weights)):
        raise ValueError("weights must be positive integers")
    if len(set(z)) != len(z):
        raise ValueError("site parameters z must be pairwise distinct")
    return ints


@dataclass(frozen=True)
class ModelSpec:
    """Problem instance: N site weights and pairwise-distinct rational site points."""

    weights: tuple[int, ...]
    z: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(Fraction(x) for x in self.z))
        object.__setattr__(self, "weights", _checked_sites(tuple(self.weights), self.z))

    @property
    def n_sites(self) -> int:
        return len(self.weights)

    @property
    def min_weight(self) -> int:
        return min(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        """Parse {"weights": [...], "z": ["p/q", ...]} with exact rational z."""
        data = json.loads(text)
        return cls(tuple(data["weights"]), tuple(Fraction(s) for s in data["z"]))

    def to_json(self) -> str:
        return json.dumps({"weights": list(self.weights), "z": [str(x) for x in self.z]})


def _weights_of(spec_or_weights) -> tuple[int, ...]:
    if isinstance(spec_or_weights, ModelSpec):
        return spec_or_weights.weights
    return tuple(int(w) for w in spec_or_weights)


@dataclass(frozen=True, eq=False)
class WeightSpace:
    """All occupation vectors (n_1..n_N) with sum m and n_i <= lam_i, in lex order."""

    weights: tuple[int, ...]
    m: int
    states: tuple[tuple[int, ...], ...]
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def __eq__(self, other):
        return (
            isinstance(other, WeightSpace)
            and self.weights == other.weights
            and self.m == other.m
        )


@functools.lru_cache(maxsize=None)
def _space(weights: tuple[int, ...], m: int) -> WeightSpace:
    """The one weight-space builder, cached per (weights, m).

    Outside 0..sum(weights) it returns the empty space, the codomain of E on
    V_0 and of F on the top subspace.
    """
    states = tuple(_bounded_compositions(weights, m))
    return WeightSpace(weights, m, states, {s: i for i, s in enumerate(states)})


@functools.lru_cache(maxsize=None)
def _appended(weights: tuple[int, ...], m: int, n: int) -> np.ndarray:
    """Read-only index in V_m of the state s + (n,), for each state s of V_{m-n}(weights[:-1]), cached."""
    index = _space(weights, m).index
    out = np.array([index[s + (n,)] for s in _space(weights[:-1], m - n).states], dtype=np.intp)
    out.flags.writeable = False
    return out


def _bounded_compositions(weights, m):
    """Tuples (n_1..n_N) with sum m and 0 <= n_i <= weights[i], in lex order."""
    if not weights:
        if m == 0:
            yield ()
        return
    rest = sum(weights[1:])
    for first in range(max(0, m - rest), min(weights[0], m) + 1):
        for tail in _bounded_compositions(weights[1:], m - first):
            yield (first,) + tail


def enumerate_weight_space(spec_or_weights, m: int) -> WeightSpace:
    """Weight subspace of spin deviation m, states sorted lexicographically.

    The count equals C(N+m-1, m) while m <= min(weights); beyond that the
    occupation bound n_i <= lam_i truncates the enumeration.  Repeated calls
    return the same cached object.
    """
    weights = _weights_of(spec_or_weights)
    if not 0 <= m <= sum(weights):
        raise ValueError(f"spin deviation m={m} outside 0..{sum(weights)}")
    return _space(weights, m)


@functools.lru_cache(maxsize=None)
def _lowering_map(weights: tuple[int, ...], m: int) -> np.ndarray:
    """Read-only index map of the site lowering operators from V_m to V_{m+1}, cached.

    F^(k) sends the basis vector F^n v to F^(n + e_k) v with coefficient 1,
    so row t of F^(k) holds 1 in column src[t, k], the V_m index of t - e_k,
    for every site k with n_k(t) > 0.  Where n_k(t) = 0, src[t, k] = dim V_m,
    a sentinel that points at an appended zero.  V_{-1} is the zero space.
    """
    domain = _space(weights, m)
    codomain = _space(weights, m + 1)
    src = np.full((codomain.dim, len(weights)), domain.dim, dtype=np.intp)
    for t, state in enumerate(codomain.states):
        for k, n in enumerate(state):
            if n:
                src[t, k] = domain.index[state[:k] + (n - 1,) + state[k + 1 :]]
    src.flags.writeable = False
    return src


@functools.lru_cache(maxsize=None)
def _raising_gathers(weights: tuple[int, ...], m: int):
    """Read-only (src, coef) of the total E from V_m to V_{m-1}, cached: E psi = _gather_sum(_pad(psi), src, coef).

    _lowering_map(weights, m - 1) read backwards: F^(k) sends the state r of
    V_{m-1} to r + e_k, and E^(k) sends it back with n (lam_k - n + 1),
    n = r_k + 1.  src has shape (N, dim V_{m-1}), and the int64 coef the same
    with a trailing axis of length 1; the sentinel dim V_m marks r_k = lam_k.
    """
    lower = _lowering_map(weights, m - 1)
    dim, n = lower.shape
    below = _space(weights, m - 1)
    src = np.full((n, below.dim + 1), dim, dtype=np.intp)
    src[np.arange(n), lower] = np.arange(dim)[:, None]  # the sentinel column below.dim is dropped
    src = src[:, :-1].copy()
    occupied = np.array(below.states, dtype=np.int64).reshape(below.dim, n).T
    coef = ((occupied + 1) * (np.array(weights, dtype=np.int64)[:, None] - occupied))[:, :, None]
    src.flags.writeable = coef.flags.writeable = False
    return src, coef


def _pad(psi: np.ndarray) -> np.ndarray:
    """A block of column vectors psi, shape (dim, S), with a zero row appended at index dim."""
    return np.concatenate([psi, np.zeros((1, psi.shape[1]), dtype=psi.dtype)])


def _gather_sum(padded: np.ndarray, src: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_h padded[src[h]] * coef[h] for a block of columns padded by _pad, shape (dim + 1, S).

    A sentinel dim in src reads the zero row; src[h] may hold a family of
    operators (hamiltonians._gather_forms).  The terms are added in the order
    of h, elementwise only: a column is the same alone as in a batch.
    """
    out = padded[src[0]] * coef[0]
    for s, c in zip(src[1:], coef[1:]):
        out += padded[s] * c
    return out


def _scatter(src: np.ndarray, coef: np.ndarray, dim: int, dtype) -> np.ndarray:
    """The dense matrix M with M psi = _gather_sum(_pad(psi), src, coef), for src of shape (terms, rows).

    The terms are added into a zero matrix in order; the sentinel column dim is dropped.
    """
    rows = np.arange(src.shape[1])
    arr = np.zeros((src.shape[1], dim + 1), dtype=dtype)
    for cols, values in zip(src, coef):
        arr[rows, cols] += values[:, 0]
    return arr[:, :dim].copy()


def _lower(psi: np.ndarray, src: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] F^(k) psi for a block psi of shape (dim V_m, S), coeffs (N, S) or (N, 1).

    src is _lowering_map(weights, m).
    """
    return _gather_sum(_pad(psi), src.T, coeffs[:, None])


def _shapovalov_norms(weights: tuple[int, ...], m: int) -> list[int]:
    """S(F^n v, F^n v) = prod_j n_j! lam_j! / (lam_j - n_j)! for each state n of V_m.

    The tensor Shapovalov form is diagonal on this basis, and for it the
    total E is the adjoint of the total F: S_{m-1}[r] E[r, c] = S_m[c] F[c, r].
    Outside 0..sum(weights) the list is empty.
    """
    return [
        math.prod(math.factorial(n) * math.perm(lam, n) for n, lam in zip(state, weights))
        for state in _space(weights, m).states
    ]


def weight_space_dimension_formula(n_sites: int, m: int) -> int:
    """Untruncated dimension C(N+m-1, m) of the degree-m subspace."""
    return math.comb(n_sites + m - 1, m)


def apply_site_generator(gen: str, site: int, state: tuple[int, ...], weights):
    """Act with E, F or H on one tensor factor of a basis state.

    Returns (coefficient, new_state) with an int coefficient, or None when
    the image vanishes (E on n=0, or F past the top of the
    finite-dimensional module).
    """
    n = state[site]
    lam = _weights_of(weights)[site]
    if gen == "H":
        return lam - 2 * n, state
    if gen == "E":
        if n == 0:
            return None
        return n * (lam - n + 1), state[:site] + (n - 1,) + state[site + 1 :]
    if gen == "F":
        if n == lam:
            return None
        return 1, state[:site] + (n + 1,) + state[site + 1 :]
    raise ValueError(f"unknown generator {gen!r}")


class SparseOperator:
    """Exact sparse linear map between weight spaces, stored column-wise.

    Entries are ints or Fractions (the generators are integer matrices;
    rational coefficients such as 1/(z_i - z_j) make Fractions); zero entries
    are never stored.  Supports the small algebra needed here: +, -, scalar
    multiple, composition (@), application to coordinate vectors, and dense
    conversions.
    """

    __slots__ = ("domain", "codomain", "cols")

    def __init__(self, domain: WeightSpace, codomain: WeightSpace, cols=None):
        self.domain = domain
        self.codomain = codomain
        self.cols = [dict() for _ in range(domain.dim)] if cols is None else cols

    @classmethod
    def zero(cls, domain: WeightSpace, codomain: WeightSpace) -> "SparseOperator":
        return cls(domain, codomain)

    def add_term(self, row: int, col: int, value) -> None:
        if value == 0:
            return
        colmap = self.cols[col]
        new = colmap.get(row, 0) + value
        if new == 0:
            colmap.pop(row, None)
        else:
            colmap[row] = new

    def _check_same_shape(self, other: "SparseOperator") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("operator shapes do not match")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._check_same_shape(other)
        cols = []
        for mine, theirs in zip(self.cols, other.cols):
            acc = dict(mine)
            for row, val in theirs.items():
                acc[row] = acc.get(row, 0) + val
            cols.append(_nonzero(acc))
        return SparseOperator(self.domain, self.codomain, cols)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + other.scaled(-1)

    def __neg__(self) -> "SparseOperator":
        return self.scaled(-1)

    def scaled(self, factor) -> "SparseOperator":
        if not isinstance(factor, int):
            factor = Fraction(factor)
        out = SparseOperator(self.domain, self.codomain)
        if factor == 0:
            return out
        out.cols = [{r: factor * v for r, v in colmap.items()} for colmap in self.cols]
        return out

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if self.domain != other.codomain:
            raise ValueError("operator composition shapes do not match")
        cols = []
        for colmap in other.cols:
            acc = {}
            for mid, v1 in colmap.items():
                for row, v2 in self.cols[mid].items():
                    acc[row] = acc.get(row, 0) + v2 * v1
            cols.append(_nonzero(acc))
        return SparseOperator(other.domain, self.codomain, cols)

    def is_zero(self) -> bool:
        return all(not colmap for colmap in self.cols)

    @property
    def nnz(self) -> int:
        return sum(len(colmap) for colmap in self.cols)

    def apply(self, vec):
        """Apply to a coordinate vector (ints, Fractions, floats or complex).

        Rows the vector does not reach are int 0.
        """
        if len(vec) != self.domain.dim:
            raise ValueError("vector length does not match operator domain")
        out = [0] * self.codomain.dim
        for col, x in enumerate(vec):
            if x == 0:
                continue
            for row, val in self.cols[col].items():
                out[row] = out[row] + val * x
        return out

    def entries(self):
        """Yield (row, col, value) sorted by (row, col)."""
        items = []
        for col, colmap in enumerate(self.cols):
            for row, val in colmap.items():
                items.append((row, col, val))
        items.sort(key=lambda t: (t[0], t[1]))
        return items

    def rows(self):
        """Dense matrix as a list of row lists, int 0 where no entry is stored."""
        mat = [[0] * self.domain.dim for _ in range(self.codomain.dim)]
        for col, colmap in enumerate(self.cols):
            for row, val in colmap.items():
                mat[row][col] = val
        return mat

    def to_array(self, dtype=float) -> np.ndarray:
        arr = np.zeros((self.codomain.dim, self.domain.dim), dtype=dtype)
        for col, colmap in enumerate(self.cols):
            for row, val in colmap.items():
                arr[row, col] = float(val)
        return arr


def _nonzero(colmap: dict) -> dict:
    """colmap without its zero entries."""
    return {row: val for row, val in colmap.items() if val != 0}


def _exact_operator(domain: WeightSpace, step: int, src: np.ndarray, coef) -> SparseOperator:
    """The exact operator from domain V_m to V_{m+step}: row r adds coef[h][r] times column src[h, r].

    src has shape (terms, rows) and coef one sequence of Python ints (from
    .tolist()) or Fractions per term; the sentinel column domain.dim is skipped.
    """
    op = SparseOperator.zero(domain, _space(domain.weights, domain.m + step))
    for cols, values in zip(src.tolist(), coef):
        for row, (col, value) in enumerate(zip(cols, values)):
            if col != domain.dim:
                op.add_term(row, col, value)
    return op


def _generator_on_sites(gen: str, sites, weights: tuple[int, ...], m: int) -> SparseOperator:
    """Matrix of sum_{i in sites} X^(i) from V_m to the adjacent degree; sites is a list or a slice."""
    space = enumerate_weight_space(weights, m)
    if gen == "F":
        src = _lowering_map(weights, m).T[sites]
        return _exact_operator(space, 1, src, [[1] * src.shape[1]] * len(src))
    if gen == "E":
        src, coef = _raising_gathers(weights, m)
        return _exact_operator(space, -1, src[sites], coef[sites, :, 0].tolist())
    if gen == "H":
        diag = np.sum(np.array(weights)[sites] - 2 * np.array(space.states)[:, sites], axis=1)
        return _exact_operator(space, 0, np.arange(space.dim)[None], [diag.tolist()])
    raise ValueError(f"unknown generator {gen!r}")


def build_site_operator(gen: str, site: int, spec_or_weights, m: int) -> SparseOperator:
    """Matrix of the single-site generator X^(site) restricted to V_m."""
    return _generator_on_sites(gen, [site], _weights_of(spec_or_weights), m)


def build_total_generator(gen: str, spec_or_weights, m: int) -> SparseOperator:
    """Matrix of sum_i X^(i) on V_m.

    E maps V_m -> V_{m-1}, F maps V_m -> V_{m+1}, H is diagonal with constant
    entry sum(weights) - 2m.  At the boundary degrees (E on V_0, F on the top
    subspace) the codomain is the zero space and the map is the zero map.
    """
    return _generator_on_sites(gen, slice(None), _weights_of(spec_or_weights), m)
