"""Complete common eigenbasis of the Gaudin family, level by level.

On each V_m the basis splits into singular eigenvectors (obtained by exact
restriction of the Hamiltonians to the kernel of the total raising operator,
then numerical joint diagonalization) and nonsingular ones (images under the
total lowering operator of the previous level's eigenvectors, which inherit
their eigenvalue tuples unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hamiltonians import _float_array, _integer_family, _scale, vacuum_eigenvalue
from .rational_linalg import _cleared
from .singular import _kernel_vectors
from .sl2 import DEFAULT_SEED, ModelSpec, build_total_generator, enumerate_weight_space

DEFAULT_TOL = 1e-9
DEFAULT_TOL_RANK = 1e-8


class DiagonalizationError(RuntimeError):
    """Joint diagonalization failed to reach the residual tolerance."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(message)
        self.worst_residual = worst_residual


class CompletenessError(RuntimeError):
    """The assembled level does not span its weight subspace."""


@dataclass
class EigenVector:
    """One common eigenvector, in coordinates over the weight space basis.

    origin is "singular" or "lowered:k" (k applications of the total lowering
    operator to a singular ancestor).  exact_eigenvalues keeps the rational
    eigenvalue tuple when it is known exactly (vacuum chain, or a
    one-dimensional singular subspace).  preimage is the index of the parent
    in the previous level; lowering_norm the norm of F(parent) before
    renormalization.
    """

    m: int
    coords: np.ndarray
    eigenvalues: np.ndarray
    origin: str
    residual: float
    exact_eigenvalues: tuple | None = None
    preimage: int | None = None
    lowering_norm: float | None = None

    @property
    def times_lowered(self) -> int:
        return 0 if self.origin == "singular" else int(self.origin.split(":")[1])


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    return v / phase


def _family_values(mats, vecs):
    """Rayleigh eigenvalues and worst residual of candidate joint eigenvectors."""
    n_vec = vecs.shape[1]
    eigs = np.zeros((len(mats), n_vec), dtype=complex)
    worst = 0.0
    for j in range(n_vec):
        v = vecs[:, j]
        v = v / np.linalg.norm(v)
        vecs[:, j] = v
        eigs[:, j] = [np.vdot(v, mat @ v) for mat in mats]
        worst = max(worst, _residual(mats, v, eigs[:, j]))
    return eigs, worst


def _cluster(values, tol):
    """Group indices of nearly equal complex values (greedy, order-stable)."""
    groups = []
    taken = [False] * len(values)
    for i in range(len(values)):
        if taken[i]:
            continue
        group = [i]
        taken[i] = True
        for j in range(i + 1, len(values)):
            if not taken[j] and abs(values[j] - values[i]) <= tol:
                group.append(j)
                taken[j] = True
        groups.append(group)
    return groups


def _orthonormal(block: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(block)
    return q


def _refine_subspaces(mats, basis, level, ctol):
    """Recursive invariant-subspace splitting by each operator in turn."""
    if level == len(mats) or basis.shape[1] == 1:
        return basis
    compressed = basis.conj().T @ (mats[level] @ basis)
    vals, vecs = np.linalg.eig(compressed)
    blocks = []
    for group in _cluster(list(vals), ctol):
        sub = _orthonormal(basis @ vecs[:, group])
        blocks.append(_refine_subspaces(mats, sub, level + 1, ctol))
    return np.concatenate(blocks, axis=1)


def simultaneous_eigenvectors(mats, tol=DEFAULT_TOL, rng=None):
    """Joint eigenvectors of a family of commuting matrices.

    Diagonalizes a random linear combination, validates every candidate by
    its residual against each family member, and falls back to recursive
    invariant-subspace refinement when the combination fails to separate.
    Degenerate joint eigenspaces are returned in an arbitrary basis; only the
    residual criterion is enforced.

    Returns (vecs, eigs): unit eigenvector columns and the per-operator
    eigenvalue array of shape (len(mats), dim).
    """
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    dim = mats[0].shape[0] if mats else 0
    if dim == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((len(mats), 0), dtype=complex)
    mats = [np.asarray(mat, dtype=complex) for mat in mats]

    worst_seen = np.inf
    for _ in range(4):
        t = rng.standard_normal(len(mats))
        combo = sum(ti * mat for ti, mat in zip(t, mats))
        _, vecs = np.linalg.eig(combo)
        eigs, worst = _family_values(mats, vecs)
        if worst <= tol:
            return vecs, eigs
        worst_seen = min(worst_seen, worst)

    scale = max(np.max(np.abs(mat)) for mat in mats) or 1.0
    ctol = max(1e-12, 1e-8 * scale)
    vecs = _refine_subspaces(mats, np.eye(dim, dtype=complex), 0, ctol)
    eigs, worst = _family_values(mats, vecs)
    if worst <= tol:
        return vecs, eigs
    raise DiagonalizationError(
        f"joint diagonalization residual {min(worst, worst_seen):.3e} exceeds tol {tol:.1e}",
        min(worst, worst_seen),
    )


def _residual(ham_arrays, v, eigenvalues):
    """max_i |H_i v - E_i v| / max |v|: the joint-eigenvector residual."""
    sup = np.max(np.abs(v))
    worst = 0.0
    for mat, s in zip(ham_arrays, eigenvalues):
        worst = max(worst, np.max(np.abs(mat @ v - s * v)) / sup)
    return worst


def _restrict(ops, scale, vectors, raise_e):
    """Exact matrices R with H K = K R, H = op / scale, K the canonical kernel basis of raise_e.

    ops are integer matrices (scale * H) and vectors the columns of K, each
    cleared to integers L_k v_k.  Row k of R is read off the integer image
    op(L_l v_l) / (scale L_l) at the first coordinate where K's row is the
    unit row e_k (the free column of vector k always is one).  That is exact
    only when H preserves ker raise_e, which is checked exactly on the
    integer images: raise_e must annihilate every one.  Raises ValueError
    otherwise.
    """
    unit_at = {}
    for c in range(len(vectors[0])):
        nonzero = [k for k, vec in enumerate(vectors) if vec[c] != 0]
        if len(nonzero) == 1 and vectors[nonzero[0]][c] == 1:
            unit_at.setdefault(nonzero[0], c)
    cleared = [_cleared(vec) for vec in vectors]
    restricted = []
    for op in ops:
        images = [(scale * lcm, op.apply(ints)) for lcm, ints in cleared]
        if any(x != 0 for _, col in images for x in raise_e.apply(col)):
            raise ValueError("operator does not preserve the kernel of the raising operator")
        restricted.append(
            [[Fraction(col[unit_at[k]], den) for den, col in images] for k in range(len(vectors))]
        )
    return restricted


def _level_family(spec: ModelSpec, m: int):
    """(D, the integer matrices D H_i, the float arrays of H_i) on V_m, built once per level."""
    scale = _scale(spec.z)
    ints = _integer_family(spec, m, scale)
    return scale, ints, [_float_array(op, scale) for op in ints]


def diagonalize_singular(spec: ModelSpec, m: int, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Common eigenvectors of all Hamiltonians on the singular subspace of V_m.

    The restriction of each H_i to the exact kernel basis is read off in
    integer arithmetic (the subspace is invariant, which is checked exactly),
    converted to floats and jointly diagonalized.  Eigenvectors are returned
    in V_m coordinates with unit norm and verified residuals.
    """
    return _diagonalize_level(spec, m, None, tol, seed)


def _diagonalize_level(spec: ModelSpec, m: int, family, tol, seed):
    """diagonalize_singular with the level family of _level_family(spec, m), or None to build it."""
    raise_e = build_total_generator("E", spec, m)
    kernel = _kernel_vectors(raise_e)
    count = len(kernel)
    if count == 0:
        return []
    scale, hams, ham_arrays = family or _level_family(spec, m)
    restricted = _restrict(hams, scale, kernel, raise_e)

    restricted_f = [np.array(mat, dtype=float) for mat in restricted]
    basis_f = np.array([[kernel[k][r] for k in range(count)] for r in range(raise_e.domain.dim)], dtype=float)

    rng = np.random.default_rng(seed)
    vecs, _ = simultaneous_eigenvectors(restricted_f, tol, rng)

    exact = None
    if count == 1:
        exact = tuple(mat[0][0] for mat in restricted)

    out = []
    worst = 0.0
    for j in range(count):
        v = basis_f @ vecs[:, j]
        v = _canonical_phase(v / np.linalg.norm(v))
        eigenvalues = np.array([np.vdot(v, mat @ v) for mat in ham_arrays])
        if exact is not None:
            eigenvalues = np.array([complex(float(x), 0.0) for x in exact])
        res = _residual(ham_arrays, v, eigenvalues)
        worst = max(worst, res)
        out.append(
            EigenVector(
                m=m,
                coords=v,
                eigenvalues=eigenvalues,
                origin="singular",
                residual=res,
                exact_eigenvalues=exact,
            )
        )
    if worst > tol:
        raise DiagonalizationError(
            f"singular-subspace eigenvector residual {worst:.3e} exceeds tol {tol:.1e}", worst
        )
    out.sort(key=lambda ev: tuple((s.real, s.imag) for s in ev.eigenvalues))
    return out


@dataclass
class EigenBasis:
    """Common eigenbasis per level, levels[m] holding dim V_m eigenvectors."""

    spec: ModelSpec
    tol: float
    tol_rank: float
    levels: list

    def singular_at(self, m: int):
        return [v for v in self.levels[m] if v.origin == "singular"]

    def nonsingular_at(self, m: int):
        return [v for v in self.levels[m] if v.origin != "singular"]


def build_eigenbasis(
    spec: ModelSpec,
    m_max: int,
    tol=DEFAULT_TOL,
    tol_rank=DEFAULT_TOL_RANK,
    seed=DEFAULT_SEED,
) -> EigenBasis:
    """Recursive construction of the common eigenbasis through level m_max.

    Level 0 is the vacuum with exact eigenvalues.  Each later level is the
    union of the normalized images of the previous level under the total
    lowering operator (eigenvalue tuples copied unchanged) and the singular
    eigenvectors of the level.  Completeness is verified by counting and by
    the smallest singular value of the stacked coordinate matrix.
    """
    if not 0 <= m_max <= spec.min_weight:
        raise ValueError(f"m_max must lie in 0..min(weights) = {spec.min_weight}")

    vacuum = EigenVector(
        m=0,
        coords=np.array([1.0 + 0.0j]),
        eigenvalues=np.array(
            [complex(float(vacuum_eigenvalue(spec, i)), 0.0) for i in range(spec.n_sites)]
        ),
        origin="singular",
        residual=0.0,
        exact_eigenvalues=tuple(vacuum_eigenvalue(spec, i) for i in range(spec.n_sites)),
    )
    levels = [[vacuum]]

    for m in range(1, m_max + 1):
        lower_f = build_total_generator("F", spec, m - 1).to_array(float)
        family = _level_family(spec, m)
        ham_arrays = family[2]
        level = []
        worst = 0.0
        for idx, parent in enumerate(levels[m - 1]):
            image = lower_f @ parent.coords
            norm = float(np.linalg.norm(image))
            if norm == 0.0:
                raise CompletenessError(
                    f"lowering annihilated an eigenvector at level {m}"
                )
            # keep the parent's phase: the colinearity E(Fu) = c u of the
            # lowering chain must survive normalization
            v = image / norm
            eigenvalues = parent.eigenvalues.copy()
            res = _residual(ham_arrays, v, eigenvalues)
            worst = max(worst, res)
            level.append(
                EigenVector(
                    m=m,
                    coords=v,
                    eigenvalues=eigenvalues,
                    origin=f"lowered:{parent.times_lowered + 1}",
                    residual=res,
                    exact_eigenvalues=parent.exact_eigenvalues,
                    preimage=idx,
                    lowering_norm=norm,
                )
            )
        if worst > tol:
            raise DiagonalizationError(
                f"lowered-vector residual {worst:.3e} exceeds tol {tol:.1e}", worst
            )

        level.extend(_diagonalize_level(spec, m, family, tol, seed))

        dim = enumerate_weight_space(spec, m).dim
        if len(level) != dim:
            raise CompletenessError(
                f"level {m} has {len(level)} vectors but dim V_m = {dim}"
            )
        stacked = np.array([v.coords for v in level])
        min_sv = float(np.linalg.svd(stacked, compute_uv=False)[-1])
        if min_sv <= tol_rank:
            raise CompletenessError(
                f"level {m} stacked matrix min singular value {min_sv:.3e} <= {tol_rank:.1e}"
            )
        levels.append(level)

    return EigenBasis(spec, tol, tol_rank, levels)


@dataclass
class NonSingularityCheck:
    index: int
    times_lowered: int
    scalar: int
    relative_error: float


@dataclass
class NonSingularityReport:
    ok: bool
    worst_relative_error: float
    checks: list


def verify_nonsingularity(basis: EigenBasis, m: int, tol=DEFAULT_TOL) -> NonSingularityReport:
    """Check that lowered vectors at level m are nonsingular, with the exact scalar.

    For v = F u with u lowered k times from a singular ancestor,
    E v = (k+1) (sum(weights) - 2(m-1) + k) u holds up to the stored
    normalization, and the integer scalar is strictly positive.
    """
    spec = basis.spec
    raise_e = build_total_generator("E", spec, m).to_array(float)
    checks = []
    ok = True
    worst = 0.0
    for j, vec in enumerate(basis.levels[m]):
        if vec.origin == "singular":
            continue
        parent = basis.levels[m - 1][vec.preimage]
        k = parent.times_lowered
        scalar = (k + 1) * (spec.total_weight - 2 * (m - 1) + k)
        image = raise_e @ vec.coords
        predicted = (scalar / vec.lowering_norm) * parent.coords
        scale = max(np.max(np.abs(image)), 1e-300)
        rel = float(np.max(np.abs(image - predicted)) / scale)
        worst = max(worst, rel)
        if rel > tol or scalar <= 0:
            ok = False
        checks.append(NonSingularityCheck(j, k + 1, scalar, rel))
    return NonSingularityReport(ok, worst, checks)
