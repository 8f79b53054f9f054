"""Bethe vectors and numerical solution of the Bethe equations.

A Bethe vector of spin deviation m is F(w_1)...F(w_m) v_0 with the lowering
field F(w) = sum_k F^(k) / (w - z_k).  It is a singular common eigenvector of
all Hamiltonians exactly when the parameters satisfy

    f_k(w) = sum_j lam_j / (w_k - z_j) + sum_{l != k} 2 / (w_l - w_k) = 0.

At every level m >= 1 the roots come from the singular joint eigenvectors
(Heine-Stieltjes).  With R = prod_j (x - z_j), the cofactors
Q_j = R / (x - z_j), P = sum_j lam_j Q_j and the eigenvalues E_i of one
eigenvector, y(x) = prod_k (x - w_k) solves

    R y'' - P y' + V y = 0,    V = sum_i (E_i^vac - E_i) Q_i,

so P and V are built from one array of cofactors.  V interpolates
V(z_i) = P(z_i) Lambda_i with Lambda_i = sum_k 1/(z_i - w_k), of degree N - 2
as sum_i E_i = sum_i E_i^vac.  At m = 1 this reads V (x - w) = P, so the
roots are those of P.  So y is the null vector of a linear map on
polynomials of degree m, and each of the singular_dimension eigenvectors
gives one root set: no random starts and no duplicates.  The maps of all
eigenvectors share R y'' - P y' and go through one batched SVD.  The
eigenvectors come from the routine of the eigenbasis layer,
eigenbasis._singular_eigen (with S the diagonal Shapovalov norms,
S^1/2 H_i S^-1/2 is real symmetric for real z, complex symmetric
otherwise).  Every root set is polished by one batched Newton on f_k with
its analytic Jacobian and reported only when its residual reaches
DEFAULT_TOL_ROOT.

No exact operator and no dense Hamiltonian is built.  Each solve or
verification builds the family gather form of the H_i once
(hamiltonians._gather_forms) from this layer's float differences z_i - z_j,
real for real z.  The Bethe vectors of all solutions and their residuals
(eigenbasis._residual and _singular_residual) come from gathers through the
sl2 index maps, with elementwise arithmetic only: a root set gets the same
residuals alone as in a batch.  Complex site points are accepted by the
numeric layer; only the exact-algebra layer restricts z to rationals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import DEFAULT_TOL, _residual, _singular_eigen, _singular_residual
from .hamiltonians import _gather_forms, _vacuum_eigenvalue
from .singular import singular_dimension
from .sl2 import (
    DEFAULT_SEED,
    ModelSpec,
    enumerate_weight_space,
    _checked_sites,
    _lower,
    _lowering_map,
    _weights_of,
)

# a polished root set whose residual max_k |f_k| exceeds this is not reported
DEFAULT_TOL_ROOT = 1e-11


@dataclass
class BetheSolution:
    """One solution of the Bethe system, roots canonically sorted.

    multiplicity > 1 marks several singular eigenvectors giving one root set
    (as at a double root of P at m = 1); such a cluster is reported once.
    """

    roots: np.ndarray
    residual_eq: float
    eigenvalues: np.ndarray
    vector_residual: float
    singular_residual: float
    multiplicity: int = 1

    @property
    def multiplicity_flag(self) -> bool:
        return self.multiplicity > 1


def _z_scale(z: np.ndarray) -> float:
    spread = float(np.max(np.abs(z[:, None] - z[None, :]))) if len(z) > 1 else 0.0
    return max(spread, 1.0)


def _check_off_poles(z: np.ndarray, w: np.ndarray) -> None:
    near = np.min(np.abs(w[..., None] - z), axis=-1) < 1e-12 * _z_scale(z)
    if near.any():
        raise ValueError(f"lowering field evaluated at a pole: w={w[near][0]}")


def lowering_field(spec: ModelSpec, w: complex, m: int) -> np.ndarray:
    """Dense complex matrix of F(w) = sum_k F^(k)/(w - z_k) from V_m to V_{m+1}."""
    z = np.array([complex(x) for x in spec.z])
    w = complex(w)
    _check_off_poles(z, np.array(w))
    dim = enumerate_weight_space(spec, m).dim
    return _lower(np.eye(dim, dtype=complex), _lowering_map(spec.weights, m), (1.0 / (w - z))[:, None])


def _bethe_vectors(weights, z: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Bethe vectors F(w_1)...F(w_m) v_0, one column per root set: roots (S, m) -> (dim V_m, S).

    Each F(w) acts by gathers through _lowering_map (sl2._lower), in
    O(N dim S) work per root.  Only elementwise arithmetic is used, so a
    column comes out the same whether it is built alone or in a batch.
    """
    _check_off_poles(z, roots)
    psi = np.ones((1, len(roots)), dtype=complex)
    for degree in range(roots.shape[1]):
        psi = _lower(psi, _lowering_map(tuple(weights), degree), 1.0 / (roots[:, degree] - z[:, None]))
    return psi


def _check_distinct(roots: np.ndarray, z: np.ndarray) -> None:
    scale = _z_scale(z)
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if abs(roots[a] - roots[b]) < 1e-12 * scale:
                raise ValueError("Bethe roots must be pairwise distinct")


def bethe_vector(spec: ModelSpec, roots) -> np.ndarray:
    """psi_m = F(w_1)...F(w_m) v_0 in V_m coordinates (not normalized)."""
    roots = np.asarray(roots, dtype=complex)
    z = np.array([complex(x) for x in spec.z])
    _check_distinct(roots, z)
    return _bethe_vectors(spec.weights, z, roots[None, :])[:, 0]


def _residuals(lam: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """f_k for a batch of root vectors; w has shape (..., m)."""
    site_part = np.sum(lam / (w[..., None] - z), axis=-1)
    diff = w[..., None, :] - w[..., :, None]  # [..., k, l] = w_l - w_k
    np.einsum("...kk->...k", diff)[...] = np.inf
    pair_part = np.sum(2.0 / diff, axis=-1)
    return site_part + pair_part


def bethe_residual(spec: ModelSpec, m: int, roots) -> np.ndarray:
    """The m residuals f_k of the Bethe system at the given roots."""
    roots = np.asarray(roots, dtype=complex)
    if len(roots) != m:
        raise ValueError("number of roots must equal m")
    z = np.array([complex(x) for x in spec.z])
    _check_off_poles(z, roots)
    _check_distinct(roots, z)
    lam = np.array([float(x) for x in _weights_of(spec)])
    return _residuals(lam, z, roots)


def _cofactors(z: np.ndarray) -> np.ndarray:
    """Coefficients (highest first) of Q_j = R / (x - z_j) = prod_{k != j} (x - z_k), one row per site."""
    return np.array([np.poly(np.delete(z, j)) for j in range(len(z))])


def _site_polynomials(lam: np.ndarray, z: np.ndarray):
    """Coefficient arrays (highest first) of P = sum_j lam_j Q_j and R, and the cofactor rows Q_j."""
    cofactors = _cofactors(z)
    p_coeffs = np.zeros(len(z), dtype=complex)
    for lam_j, row in zip(lam, cofactors):
        p_coeffs = p_coeffs + lam_j * row
    return p_coeffs, np.poly(z), cofactors


def _jacobian(lam: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d f_k / d w_l for a batch of root vectors; w has shape (..., m)."""
    diff = w[..., None, :] - w[..., :, None]  # [..., k, l] = w_l - w_k
    np.einsum("...kk->...k", diff)[...] = np.inf
    pair = 2.0 * (1.0 / diff) ** 2  # 0 on the diagonal
    jac = -pair
    np.einsum("...kk->...k", jac)[...] = -np.sum(lam / (w[..., None] - z) ** 2, axis=-1) + np.sum(pair, axis=-1)
    return jac


def _polish(lam: np.ndarray, z: np.ndarray, w: np.ndarray):
    """Newton on f_k for root vectors w of shape (S, m); each row keeps its best iterate.

    Returns the rows and their residuals max_k |f_k|.
    """
    with np.errstate(all="ignore"):
        f = _residuals(lam, z, w)
        res = np.max(np.abs(f), axis=-1)
        for _ in range(20):
            try:
                step = np.linalg.solve(_jacobian(lam, z, w), f[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
            trial = w - step
            trial_f = _residuals(lam, z, trial)
            trial_res = np.max(np.abs(trial_f), axis=-1)
            better = trial_res < res
            if not better.any():
                break
            w[better], f[better], res[better] = trial[better], trial_f[better], trial_res[better]
    return w, res


def _root_keys(roots: np.ndarray) -> np.ndarray:
    # (real part to 9 decimals, imaginary part) per root: a conjugate pair whose real parts
    # differ in the last bits orders by imaginary part; np.round rounds as round() on each part
    return np.stack([np.round(roots.real, 9), roots.imag], axis=-1)


def _canonical_order(rows: np.ndarray) -> np.ndarray:
    """Root sets of shape (S, m), each sorted by _root_keys, the rows then sorted by their key lists.

    Both sorts are stable, as sorted() on the key lists.
    """
    keys = _root_keys(rows)
    order = np.lexsort((keys[..., 1], keys[..., 0]), axis=-1)
    rows = np.take_along_axis(rows, order, axis=-1)
    keys = np.take_along_axis(keys, order[..., None], axis=-2).reshape(len(rows), 2 * rows.shape[-1])
    return rows[np.lexsort(keys.T[::-1])]


def _multiset_gaps(a: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Greedy matching distance from the root multiset a to each row of kept, shape (K, m).

    Each element of a in turn is matched to the nearest still unused root of
    the row (the first one on ties) and the gap is the largest such distance.
    """
    rows = np.arange(len(kept))
    diff = a[None, :, None] - kept[:, None, :]
    # [r, i, j] = |a_i - kept_rj| rounded as the scalar abs() does; np.abs on a
    # complex array may take a vector path that differs in the last bit
    dists = np.hypot(diff.real, diff.imag)
    worst = np.zeros(len(kept))
    for i in range(len(a)):
        j = np.argmin(dists[:, i, :], axis=1)
        worst = np.maximum(worst, dists[rows, i, j])
        dists[rows, :, j] = np.inf
    return worst


def _hamiltonian_gathers(weights, z: np.ndarray, m: int):
    """The family gather form of the H_i on V_m from the float differences z_i - z_j, real for real z."""
    diffs = z[:, None] - z
    return _gather_forms(weights, diffs if np.any(z.imag) else diffs.real, m)


def _vacuum(weights, z: np.ndarray) -> np.ndarray:
    """The vacuum eigenvalues E_i^vac, one per site."""
    return np.array([_vacuum_eigenvalue(weights, z, i) for i in range(len(weights))], dtype=complex)


def _diagnostics(weights, z: np.ndarray, roots: np.ndarray, hams, vacuum):
    """Singular residual, eigenvalue tuple and vector residual of the Bethe vector of each row of roots.

    The eigenvalues are E_i = E_i^vac + sum_k lam_i / (w_k - z_i), one row
    per root set; hams comes from _hamiltonian_gathers and vacuum from
    _vacuum.  A root set gets the same residuals alone as in a batch.
    """
    psi = _bethe_vectors(weights, z, roots)
    lam = np.array([float(x) for x in weights])
    eigenvalues = vacuum + np.sum(lam[:, None] / (roots[:, None, :] - z[:, None]), axis=-1)
    return _singular_residual(weights, roots.shape[1], psi), eigenvalues, _residual(hams, psi, eigenvalues.T)


def _heine_stieltjes_matrices(p_coeffs, r_coeffs, v_coeffs, m: int) -> np.ndarray:
    """Matrices of y -> R y'' - P y' + V y on polynomials of degree <= m, one per column of v_coeffs.

    Column d of each matrix is the image d(d-1) R x^(d-2) - d P x^(d-1) + V x^d
    of x^d, highest coefficient first, written by slicing; the rows are those
    of the polymul route, which pads columns 0 and 1 to len(R).
    tests/test_bethe.py checks the matrices against polymul bit for bit.
    """
    size = max(len(r_coeffs) + max(m - 1, 1) - 1, len(p_coeffs) + max(m, 1) - 1)
    mats = np.zeros((v_coeffs.shape[1], size, m + 1), dtype=complex)
    for d in range(m + 1):
        low = size - d  # one row below x^d
        if d >= 2:
            mats[:, low + 2 - len(r_coeffs) : low + 2, d] = d * (d - 1) * r_coeffs
        if d >= 1:
            mats[:, low + 1 - len(p_coeffs) : low + 1, d] -= d * p_coeffs
        mats[:, low - len(v_coeffs) : low, d] += v_coeffs.T
    return mats


def _heine_stieltjes_roots(p_coeffs, r_coeffs, v_coeffs, m: int) -> list:
    """Roots of the null vector y of each map of _heine_stieltjes_matrices, from one batched SVD."""
    mats = _heine_stieltjes_matrices(p_coeffs, r_coeffs, v_coeffs, m)
    # coefficient of x^d at index d of each null vector
    return [np.roots(y[::-1]) for y in np.linalg.svd(mats)[2][:, -1].conj()]


def _eigenbasis_roots(weights, lam, z, m, count, hams, vacuum, seed) -> np.ndarray:
    """One polished root set per singular joint eigenvector of V_m; shape (<= count, m).

    The eigenvalue tuples come from eigenbasis._singular_eigen, the routine
    of the eigenbasis layer, on the gather forms hams (seeded by seed).  Each
    tuple gives V from the cofactors that also give P.  The tuples only
    start the polish, so no residual gate applies to them.
    """
    energies = _singular_eigen(weights, m, count, hams, seed)[-1]
    p_coeffs, r_coeffs, cofactors = _site_polynomials(lam, z)
    # V = sum_i (E_i^vac - E_i) Q_i; its x^(N-1) coefficient, that sum of differences, is 0
    v_coeffs = (cofactors.T @ (vacuum[:, None] - energies))[1:]
    rows = _heine_stieltjes_roots(p_coeffs, r_coeffs, v_coeffs, m)
    w = np.array([row for row in rows if len(row) == m and np.all(np.isfinite(row))], dtype=complex)
    w, res = _polish(lam, z, w.reshape(-1, m))
    return w[res <= DEFAULT_TOL_ROOT]


def _collapse(lam, z, rows: np.ndarray) -> list:
    """Report root sets closer than 1e-7 times the site-point scale once, with their count.

    A double root of P splits numerically by about sqrt(machine epsilon), so
    the collapse width is 1e-7 times the site-point scale; genuinely distinct
    desk-scale roots sit far above it.  Each group is reported as its
    mean, with multiplicity the group size; a lone root set whose residual
    exceeds DEFAULT_TOL_ROOT is dropped.  Returns (roots, residual, multiplicity) in
    canonical order.
    """
    tol = 1e-7 * _z_scale(z)
    heads = np.empty(rows.shape, dtype=complex)
    means = np.empty(len(rows), dtype=complex)
    groups = []
    for row in _canonical_order(rows):
        # any matching's largest gap is at least the distance of the means,
        # so only heads whose mean is that close are matched
        mean = np.mean(row)
        near = np.flatnonzero(np.abs(means[: len(groups)] - mean) <= 2 * tol)
        if near.size:
            near = near[_multiset_gaps(row, heads[near]) <= tol]
        if near.size:
            groups[near[0]].append(row)
        else:
            heads[len(groups)], means[len(groups)] = row, mean
            groups.append([row])
    if not groups:
        return []
    roots = np.array([np.mean(group, axis=0) for group in groups])
    f = _residuals(lam, z, roots)
    # rounded as the scalar abs() of each f_k
    residuals = np.max(np.hypot(f.real, f.imag), axis=1)
    return [
        (mean, residual, len(group))
        for mean, residual, group in zip(roots, residuals, groups)
        if len(group) > 1 or residual <= DEFAULT_TOL_ROOT
    ]


def solve_bethe_numeric(weights, z, m: int, *, seed=DEFAULT_SEED):
    """Solve the Bethe system for arbitrary complex site points z.

    Returns the solutions found, canonically sorted, each annotated with its
    eigenvalue tuple and the eigen/singularity residuals of the reconstructed
    Bethe vector.  At every m >= 1 each of the singular_dimension(weights, m)
    singular joint eigenvectors gives one candidate; a candidate whose polish
    misses DEFAULT_TOL_ROOT is left out, so callers compare len(result) with
    singular_dimension.  Root sets that agree to the collapse width are
    reported once with their multiplicity.  seed draws the random combination
    of Hamiltonians whose eigenvectors separate the singular subspace.
    weights and z follow the rules of ModelSpec, with finite complex z, and
    m is an integer; ValueError otherwise.
    """
    if m < 1 or m != int(m):
        raise ValueError("m must be an integer of at least 1")
    z = np.asarray(z, dtype=complex)
    weights = _checked_sites(weights, z)
    if not np.all(np.isfinite(z)):
        raise ValueError("site parameters z must be finite")
    lam = np.array([float(x) for x in weights])
    count = singular_dimension(weights, m)
    if count == 0:
        return []
    hams = _hamiltonian_gathers(weights, z, m)
    vacuum = _vacuum(weights, z)
    collapsed = _collapse(lam, z, _eigenbasis_roots(weights, lam, z, m, count, hams, vacuum, seed))
    if not collapsed:
        return []
    roots = np.array([mean for mean, _, _ in collapsed])
    singular_residual, eigenvalues, vector_residual = _diagnostics(weights, z, roots, hams, vacuum)
    return [
        BetheSolution(
            roots=mean,
            residual_eq=float(res),
            eigenvalues=eigenvalues[s],
            vector_residual=float(vector_residual[s]),
            singular_residual=float(singular_residual[s]),
            multiplicity=mult,
        )
        for s, (mean, res, mult) in enumerate(collapsed)
    ]


def solve_bethe(spec: ModelSpec, m: int, *, seed=DEFAULT_SEED):
    """Solve the Bethe system of a model instance (see solve_bethe_numeric)."""
    z = np.array([complex(x) for x in spec.z])
    return solve_bethe_numeric(spec.weights, z, m, seed=seed)


@dataclass
class SolutionReport:
    singular_residual: float
    vector_residual: float
    ok: bool


def verify_solution(spec: ModelSpec, m: int, sol: BetheSolution) -> SolutionReport:
    """Recompute the Bethe vector and its residuals from the spec, reading only sol.roots.

    ok means both residuals are at most DEFAULT_TOL.  sol must hold m roots.
    """
    roots = np.asarray(sol.roots, dtype=complex)
    if len(roots) != m:
        raise ValueError("number of roots must equal m")
    z = np.array([complex(x) for x in spec.z])
    _check_distinct(roots, z)
    hams = _hamiltonian_gathers(spec.weights, z, m)
    singular, _, vector = _diagnostics(spec.weights, z, roots[None, :], hams, _vacuum(spec.weights, z))
    singular_residual, vector_residual = float(singular[0]), float(vector[0])
    return SolutionReport(
        singular_residual=singular_residual,
        vector_residual=vector_residual,
        ok=(singular_residual <= DEFAULT_TOL and vector_residual <= DEFAULT_TOL),
    )
