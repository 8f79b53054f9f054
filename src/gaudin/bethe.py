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
roots are those of P.  The map y -> R y'' - P y' + V y is triangular on the
monomials, so the monic y follows by back-substitution with known positive
pivots, for all eigenvectors at once, and each of the singular_dimension
eigenvectors gives one root set: no random starts and no duplicates.  The
eigenvectors come from eigenbasis._singular_eigen (with S the diagonal
Shapovalov norms, S^1/2 H_i S^-1/2 is real symmetric for real z, complex
symmetric otherwise).  The roots of all y, from one batched eigvals of their
companion matrices, are polished by one batched Newton on f_k, stopped once
a step moves no root by over 1e-12 times the site scale (a row stalled at a
multiple root's rounding floor is frozen), collapsed in one pass over all
row means, and reported only when the residual reaches DEFAULT_TOL_ROOT.

No exact operator and no dense Hamiltonian is built.  Each solve or
verification builds the family form of the H_i once
(hamiltonians._gather_forms, its present entries only) from this layer's
float differences z_i - z_j, real for real z.  The Bethe vectors of all
solutions come from sl2._apply on the present entries of F, each site's
term scaled per root set by 1 / (w - z_k), and their residuals from
eigenbasis._residual and _singular_residual, with elementwise arithmetic
only: a root set gets the same residuals alone as in a batch.
Complex site points are accepted by the numeric layer; only the
exact-algebra layer restricts z to rationals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import DEFAULT_TOL, _residual, _singular_eigen, _singular_residual
from .hamiltonians import _gather_forms, _vacuum_eigenvalue
from .singular import singular_dimension
from .sl2 import DEFAULT_SEED, ModelSpec, enumerate_weight_space, _apply, _checked_sites, _form, _level, _weights_of

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
    return _apply(_form("F", spec.weights, m), np.eye(dim, dtype=complex), scale=(1.0 / (w - z))[:, None])


def _bethe_vectors(weights, z: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Bethe vectors F(w_1)...F(w_m) v_0, one column per root set: roots (S, m) -> (dim V_m, S).

    Each F(w) is sl2._apply on the present entries of F, site k's term
    scaled by 1 / (w - z_k) per column, in O(N dim S) work per root.  Only
    elementwise arithmetic is used, so a column comes out the same whether
    it is built alone or in a batch.
    """
    _check_off_poles(z, roots)
    psi = np.ones((1, len(roots)), dtype=complex)
    for degree in range(roots.shape[1]):
        psi = _apply(_form("F", tuple(weights), degree), psi, scale=1.0 / (roots[:, degree] - z[:, None]))
    return psi


def _check_distinct(roots: np.ndarray, z: np.ndarray) -> None:
    scale = _z_scale(z)
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if abs(roots[a] - roots[b]) < 1e-12 * scale:
                raise ValueError("Bethe roots must be pairwise distinct")


def bethe_vector(spec: ModelSpec, roots) -> np.ndarray:
    """psi_m = F(w_1)...F(w_m) v_0 in V_m coordinates (not normalized); ValueError for more than sum(weights) roots."""
    roots = np.asarray(roots, dtype=complex)
    enumerate_weight_space(spec, len(roots))  # raises for m = len(roots) above sum(weights)
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
    if len(roots) != _level(m):
        raise ValueError("number of roots must equal m")
    z = np.array([complex(x) for x in spec.z])
    _check_off_poles(z, roots)
    _check_distinct(roots, z)
    lam = np.array([float(x) for x in _weights_of(spec)])
    return _residuals(lam, z, roots)


def _cofactors(z: np.ndarray) -> np.ndarray:
    """Coefficients (highest first) of Q_j = R / (x - z_j) = prod_{k != j} (x - z_k), one row per site.

    One recurrence multiplies all rows by x - z_k in np.poly's factor order; real z gives np.poly's bits.
    """
    z = z if np.any(z.imag) else z.real
    q = np.zeros((len(z), len(z)), dtype=z.dtype)
    q[:, 0] = 1
    for k, rows in enumerate(~np.eye(len(z), dtype=bool)):
        q[rows, 1:] -= z[k] * q[rows, :-1]
    return q


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
    """Batched Newton on root vectors w of shape (S, m); returns w and max_k |f_k| per row.

    A singular Jacobian, the 20th step or the first step that moves no unfrozen
    root by more than 1e-12 times the site scale ends it: Newton squares the
    error, so the roots are then at rounding level.  A row whose step is within
    the collapse width 1e-7 times the scale and no smaller than its last is
    taken to be at a multiple root's rounding floor (linear convergence): it is
    frozen, that step untaken, while the other rows go on.  Only step sizes are
    read, so a row whose steps grow is frozen too while they are under the width.
    """
    scale = _z_scale(z)
    moving, last = np.ones(len(w), dtype=bool), np.full(len(w), np.inf)
    with np.errstate(all="ignore"):
        for _ in range(20):
            try:
                step = np.linalg.solve(_jacobian(lam, z, w), _residuals(lam, z, w)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
            size = np.max(np.abs(step), axis=-1)
            moving &= ~((size <= 1e-7 * scale) & (size >= last))
            w = np.where(moving[:, None], w - step, w)
            if not np.any(np.abs(step[moving]) > 1e-12 * scale):
                break
            last = size
        return w, np.max(np.abs(_residuals(lam, z, w)), axis=-1)


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
    """hamiltonians._gather_forms of the H_i on V_m from the float differences z_i - z_j, real for real z."""
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


def _heine_stieltjes_polynomials(p_coeffs, r_coeffs, v_coeffs, m: int) -> np.ndarray:
    """Monic y of degree m with R y'' - P y' + V y = 0, one row per column of v_coeffs, x^d at index d.

    The image of x^e has degree e + N - 2, so the x^(d+N-2) coefficient of the
    map holds y_d..y_m only, y_d with the pivot (m - d)(sum(lam) - m - d + 1),
    positive for d < m <= sum(lam) / 2; sum(lam) leads P.
    """
    n = len(r_coeffs) - 1
    # ascending coefficients behind m + 2 zeros: index k + m + 2 holds x^k, which reads 0 for k < 0
    r, p, v = (np.concatenate([np.zeros((m + 2,) + c.shape[1:]), c[::-1]]) for c in (r_coeffs, p_coeffs, v_coeffs))
    y = np.zeros((v_coeffs.shape[1], m + 1), dtype=complex)
    y[:, m] = 1
    for d in range(m - 1, -1, -1):
        e = np.arange(d + 1, m + 1)
        k = d + n - e + m + 2  # the x^(d+N-e) coefficient of R multiplies y_e
        terms = e * (e - 1) * r[k] - e * p[k - 1] + v[k - 2].T
        y[:, d] = -np.sum(terms * y[:, d + 1 :], axis=1) / ((m - d) * (p_coeffs[0] - m - d + 1))
    return y


def _eigenbasis_roots(weights, lam, z, m, count, hams, vacuum, seed) -> np.ndarray:
    """One polished root set per singular joint eigenvector of V_m; shape (<= count, m).

    The eigenvalue tuples come from eigenbasis._singular_eigen, the routine
    of the eigenbasis layer, on the family form hams (seeded by seed).  Each
    tuple gives V from the cofactors that also give P, and V the monic y whose
    roots, from one batched eigvals of companion matrices built as np.roots
    builds them, start the polish, so no residual gate applies to the tuples.
    """
    energies = _singular_eigen(weights, m, count, hams, seed)[-1]
    p_coeffs, r_coeffs, cofactors = _site_polynomials(lam, z)
    # V = sum_i (E_i^vac - E_i) Q_i; its x^(N-1) coefficient, that sum of differences, is 0
    v_coeffs = (cofactors.T @ (vacuum[:, None] - energies))[1:]
    y = _heine_stieltjes_polynomials(p_coeffs, r_coeffs, v_coeffs, m)
    companion = np.tile(np.eye(m, k=-1, dtype=complex), (len(y), 1, 1))
    companion[:, 0] = -y[:, m - 1 :: -1] / y[:, m:]
    w, res = _polish(lam, z, np.linalg.eigvals(companion))
    return w[res <= DEFAULT_TOL_ROOT]


def _collapse(lam, z, rows: np.ndarray) -> list:
    """Report root sets closer than 1e-7 times the site-point scale once, with their count.

    A double root of P splits numerically by about sqrt(machine epsilon), so
    the collapse width is 1e-7 times the site-point scale; genuinely distinct
    desk-scale roots sit far above it.  In canonical order a row joins the
    first group head within the width (_multiset_gaps), tried only for rows
    with an earlier mean within twice it, or heads a group.  A group is
    reported as its np.mean, with multiplicity its size; a lone root set whose
    residual exceeds DEFAULT_TOL_ROOT is dropped.  Returns (roots, residual,
    multiplicity) in canonical order.
    """
    tol = 1e-7 * _z_scale(z)
    rows = _canonical_order(rows)
    means = np.mean(rows, axis=1)
    # any matching's largest gap is at least the distance of the means
    near = np.tril(np.abs(means[:, None] - means) <= 2 * tol, -1)
    index = np.arange(len(rows))
    head = index.copy()  # the row heading each row's group
    for i in np.flatnonzero(near.any(axis=1)):
        heads = np.flatnonzero(near[i] & (head == index))
        heads = heads[_multiset_gaps(rows[i], rows[heads]) <= tol]
        if heads.size:
            head[i] = heads[0]
    group = (np.cumsum(head == index) - 1)[head]
    sizes = np.bincount(group)
    # np.mean of a one-row group adds the row to +0.0, which turns a -0.0 part into +0.0
    roots = rows[head == index] + 0.0
    for g in np.flatnonzero(sizes > 1):
        roots[g] = np.mean(rows[group == g], axis=0)
    f = _residuals(lam, z, roots)
    # rounded as the scalar abs() of each f_k
    residuals = np.max(np.hypot(f.real, f.imag), axis=1)
    return [
        (mean, residual, size)
        for mean, residual, size in zip(roots, residuals, sizes.tolist())
        if size > 1 or residual <= DEFAULT_TOL_ROOT
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
    m is an integer in 1..sum(weights); ValueError otherwise.
    """
    m = _level(m)
    if m < 1:
        raise ValueError("m must be an integer of at least 1")
    z = np.asarray(z, dtype=complex)
    weights = _checked_sites(weights, z)
    if not np.all(np.isfinite(z)):
        raise ValueError("site parameters z must be finite")
    enumerate_weight_space(weights, m)  # raises for m above sum(weights)
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
    roots, m = np.asarray(sol.roots, dtype=complex), _level(m)
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
