"""Finite-dimensional SL(2) highest-weight modules and their tensor products.

A site of integer weight lam carries the (lam+1)-dimensional module spanned by
v_n = F^n v_lam, n = 0..lam, with

    H v_n = (lam - 2n) v_n,
    E v_n = n (lam - n + 1) v_{n-1},
    F v_n = v_{n+1},        F^{lam+1} v_lam = 0.

The tensor product of N sites is graded by the spin deviation m = sum(n_i);
this module enumerates the weight subspaces V_m.  The cached index maps
_lowering_map (F) and _raising_gathers (E) are the one table of the action,
and _raising_gathers the only place the coefficient n (lam - n + 1) is
written: float layers gather through them, and dense operators are
scattered from them.  SparseOperator, the one exact operator type, keeps
such a gather form with a denominator in sparse integer rows; the
generator builders, the Hamiltonians and the exact identity checks of
hamiltonians all use it.
"""

from __future__ import annotations

import functools
import json
import math
import operator
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
    ints = _weights_of(weights)
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
        """Parse {"weights": [ints], "z": ["p/q" or int, ...]} with exact rational z; ValueError on any other shape."""
        data = json.loads(text)
        try:  # TypeError or KeyError: not an object of two lists, or an entry of another JSON type
            if not isinstance(data["weights"], list) or not isinstance(data["z"], list):
                raise TypeError('"weights" and "z" must be lists')
            if any(type(w) is not int for w in data["weights"]) or any(type(x) not in (int, str) for x in data["z"]):
                raise TypeError('weights must be JSON integers and z JSON integers or "p/q" strings, no float or bool')
            return cls(tuple(data["weights"]), tuple(Fraction(x) for x in data["z"]))
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed spec: {exc}") from None

    def to_json(self) -> str:
        return json.dumps({"weights": list(self.weights), "z": [str(x) for x in self.z]})


def _weights_of(spec_or_weights) -> tuple[int, ...]:
    """The weights of a ModelSpec, or the given weights as ints once each is an integer >= 1; ValueError otherwise."""
    if isinstance(spec_or_weights, ModelSpec):
        return spec_or_weights.weights
    ints = tuple(int(w) for w in spec_or_weights)
    if any(w < 1 or w != given for w, given in zip(ints, spec_or_weights)):
        raise ValueError("weights must be positive integers")
    return ints


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
    weights, m = _weights_of(spec_or_weights), _level(m)
    if not 0 <= m <= sum(weights):
        raise ValueError(f"spin deviation m={m} outside 0..{sum(weights)}")
    return _space(weights, m)


def _level(m) -> int:
    """m by operator.index, before a cache keys it (1.0 == 1); ValueError for a float or other non-integer."""
    try:
        return operator.index(m)
    except TypeError:
        raise ValueError(f"spin deviation m={m!r} is not an integer") from None


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


def _exact_dtype(bound: int):
    """np.int64 for exact arrays whose entries and partial sums a Python-int bound keeps below 2^62, else object."""
    return np.int64 if bound < 2**62 else object


def _pad(psi: np.ndarray) -> np.ndarray:
    """A block of column vectors psi, shape (dim, S), with a zero row appended at index dim."""
    return np.concatenate([psi, np.zeros((1, psi.shape[1]), dtype=psi.dtype)])


def _gather_sum(padded: np.ndarray, src: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_h padded[src[h]] * coef[h] for a block of columns padded by _pad, shape (dim + 1, S).

    A sentinel dim in src reads the zero row.  The terms are added in the
    order of h, elementwise only: a column is the same alone as in a batch.
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


class SparseOperator:
    """Exact operators X_0, ..., X_{n-1} from a space of dimension dim, in sparse rows.

    The one exact operator type.  Built from a gather form (src, coef) of shape (terms, n, rows), which it
    keeps read-only: row t of denominator X_b holds coef[h, b, t] in column
    src[h, b, t], and a term in the sentinel column dim is absent.  coef
    holds Python ints (dtype object) or int64, and the positive int
    denominator is 1 for integer operators.  Row t of denominator X_b has
    the entries start[b * rows + t] up to start[b * rows + t + 1] of cols
    and values; widths[b], the most entries a row of X_b has, bounds its
    row lengths, and rowsums[b], the largest sum of |coef| over a row, its
    row sums.  The exact checks of hamiltonians._vanishing read these
    integer parts only, and the values modulo each of their moduli by
    residue(q), reduced once per q.
    """

    def __init__(self, src: np.ndarray, coef: np.ndarray, dim: int, denominator: int = 1):
        present = src != dim
        lengths = present.sum(axis=0)
        self.src, self.coef, self.dim, self.rows, self.denominator = src, coef, dim, src.shape[2], denominator
        self.cols = src.transpose(1, 2, 0)[present.transpose(1, 2, 0)]
        self.values = coef.transpose(1, 2, 0)[present.transpose(1, 2, 0)]
        self.start = np.concatenate([[0], np.cumsum(lengths)])
        self.widths = lengths.max(axis=1, initial=0).tolist()
        terms = np.where(present, coef, 0)
        if coef.dtype != object and coef.size and src.shape[0] * max(int(coef.max()), -int(coef.min())) >= 2**63:
            terms = terms.astype(object)  # int64 row sums could wrap
        sums = np.sum(np.abs(terms), axis=0)
        self.rowsums = [int(x) for x in np.max(sums, axis=1, initial=0)]
        self._residues = {}
        for array in (src, coef, self.cols, self.values, self.start):
            array.flags.writeable = False

    def _over(self, out: np.ndarray) -> np.ndarray:
        """out divided by the denominator, exactly for Python numbers (dtype object)."""
        if self.denominator == 1:
            return out
        return out * Fraction(1, self.denominator) if out.dtype == object else out / self.denominator

    def summed(self, b: int = 0) -> tuple:
        """Arrays (rows, cols, values) of X_b sorted by (row, col), entries at one position summed and zero sums dropped.

        The values are the numerators over the denominator, of the dtype of coef.
        """
        lo, hi = self.start[b * self.rows], self.start[(b + 1) * self.rows]
        lengths = np.diff(self.start[b * self.rows : (b + 1) * self.rows + 1])
        keys = np.repeat(np.arange(self.rows) * self.dim, lengths) + self.cols[lo:hi]
        if not keys.size:
            return keys, keys, self.values[:0]
        order = np.argsort(keys)
        keys = keys[order]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = np.add.reduceat(self.values[lo:hi][order], first)
        keep = sums != 0
        return (*divmod(keys[first][keep], self.dim), sums[keep])

    def entries(self, b: int = 0) -> list:
        """(row, col, value) of summed(b) as Python numbers: ints, or Fractions over the denominator."""
        rows, cols, values = self.summed(b)
        values = values.tolist()
        if self.denominator != 1:
            values = [Fraction(v, self.denominator) for v in values]
        return list(zip(rows.tolist(), cols.tolist(), values))

    def apply(self, vec, b: int = 0) -> np.ndarray:
        """X_b vec for a coordinate vector, exact in Python ints and Fractions unless vec is a float or complex ndarray."""
        if len(vec) != self.dim:
            raise ValueError("vector length does not match operator domain")
        if not (isinstance(vec, np.ndarray) and vec.dtype.kind in "fc"):
            vec = np.array(vec, dtype=object)
        return self._over(_gather_sum(_pad(vec[:, None]), self.src[:, b], self.coef[:, b, :, None])[:, 0])

    def to_array(self, dtype=float, b: int = 0) -> np.ndarray:
        """Dense X_b, shape (rows, dim); dtype=object gives exact ints, or Fractions over the denominator."""
        arr = self._over(_scatter(self.src[:, b], self.coef[:, b, :, None], self.dim, object))
        return arr if dtype is object else arr.astype(dtype)

    def residue(self, q: int) -> np.ndarray:
        """The values modulo q, reduced once: uint64 for q = 2^64 (a view of int64 values), int32 for a prime."""
        if q not in self._residues:
            if q == 2**64 and self.values.dtype != object:
                self._residues[q] = self.values.view(np.uint64)
            else:
                self._residues[q] = (self.values % q).astype(np.uint64 if q == 2**64 else np.int32)
        return self._residues[q]


@functools.lru_cache(maxsize=None)
def _generator(gen: str, weights: tuple[int, ...], m: int, sites=None) -> SparseOperator:
    """sum_{k in sites} X^(k) (every site for None) from V_m to the adjacent degree, cached.

    The one builder of the generators: E and F take one gather term per site
    from _raising_gathers and _lowering_map, and H one diagonal term.
    """
    picked = slice(None) if sites is None else list(sites)
    dim = enumerate_weight_space(weights, m).dim
    if gen == "F":
        src = _lowering_map(weights, m).T[picked]
        coef = np.ones_like(src)
    elif gen == "E":
        src, coef = _raising_gathers(weights, m)
        src, coef = src[picked], coef[picked, :, 0]
    elif gen == "H":
        coef = np.sum(np.array(weights)[picked] - 2 * np.array(_space(weights, m).states)[:, picked], axis=1)[None]
        src = np.arange(dim)[None]
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return SparseOperator(src[:, None], coef[:, None], dim)


def build_site_operator(gen: str, site: int, spec_or_weights, m: int) -> SparseOperator:
    """The single-site generator X^(site) on V_m, X one of E, F and H."""
    return _generator(gen, _weights_of(spec_or_weights), _level(m), (site,))


def build_total_generator(gen: str, spec_or_weights, m: int) -> SparseOperator:
    """sum_i X^(i) on V_m.

    E maps V_m -> V_{m-1}, F maps V_m -> V_{m+1}, H is diagonal with constant
    entry sum(weights) - 2m.  At the boundary degrees (E on V_0, F on the top
    subspace) the codomain is the zero space: the matrix has no rows.
    """
    return _generator(gen, _weights_of(spec_or_weights), _level(m))
