"""Bethe vectors and numerical solution of the Bethe equations.

A Bethe vector of spin deviation m is F(w_1)...F(w_m) v_0 with the lowering
field F(w) = sum_k F^(k) / (w - z_k).  It is a singular common eigenvector of
all Hamiltonians exactly when the parameters satisfy

    f_k(w) = sum_j lam_j / (w_k - z_j) + sum_{l != k} 2 / (w_l - w_k) = 0.

Roots are found on the pole-cleared polynomial system

    g_k = P(w_k) Q_k + 2 R(w_k) S_k,
    P(w) = sum_j lam_j prod_{j' != j} (w - z_{j'}),   R(w) = prod_j (w - z_j),
    Q_k = prod_{l != k} (w_l - w_k),   S_k = sum_{l != k} prod_{l' != k,l} (w_{l'} - w_k),

by multi-start Newton with the analytic Jacobian (m = 1 reduces to the roots
of P, computed from companion-matrix eigenvalues).  Spurious roots introduced
by the clearing (w_k = z_j or w_k = w_l) are rejected by re-evaluating the
original f_k.  Complex site points are accepted by the numeric layer; only
the exact-algebra layer restricts z to rationals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigenbasis import _residual
from .hamiltonians import _vacuum_eigenvalue, hamiltonian_array
from .singular import singular_dimension_formula
from .sl2 import (
    DEFAULT_SEED,
    ModelSpec,
    SparseOperator,
    build_site_operator,
    build_total_generator,
    _weights_of,
)

DEFAULT_TOL_ROOT = 1e-11
DEFAULT_DEDUP_TOL = 1e-8


@dataclass
class BetheSolution:
    """One solution of the Bethe system, roots canonically sorted.

    multiplicity > 1 marks a collapsed cluster of root candidates (a double
    solution of the m = 1 polynomial); such solutions are reported once.
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


@functools.lru_cache(maxsize=None)
def _site_lowering_arrays(weights: tuple[int, ...], m: int) -> tuple[np.ndarray, ...]:
    """Read-only complex arrays of the site lowering operators F^(k) on V_m, cached."""
    arrays = []
    for k in range(len(weights)):
        site = build_site_operator("F", k, weights, m).to_array(complex)
        site.flags.writeable = False
        arrays.append(site)
    return tuple(arrays)


def _lowering_array(weights, z: np.ndarray, w: complex, m: int) -> np.ndarray:
    scale = _z_scale(z)
    if np.min(np.abs(w - z)) < 1e-12 * scale:
        raise ValueError(f"lowering field evaluated at a pole: w={w}")
    arr = None
    for site, zk in zip(_site_lowering_arrays(tuple(weights), m), z):
        term = site / (w - zk)
        arr = term if arr is None else arr + term
    return arr


def lowering_field(spec: ModelSpec, w: complex, m: int) -> np.ndarray:
    """Dense complex matrix of F(w) = sum_k F^(k)/(w - z_k) from V_m to V_{m+1}."""
    z = np.array([complex(x) for x in spec.z])
    return _lowering_array(spec.weights, z, complex(w), m)


def lowering_field_exact(spec: ModelSpec, w, m: int) -> SparseOperator:
    """Exact rational matrix of F(w) for rational w off the poles."""
    w = Fraction(w)
    if any(w == zk for zk in spec.z):
        raise ValueError(f"lowering field evaluated at a pole: w={w}")
    op = None
    for k in range(spec.n_sites):
        term = build_site_operator("F", k, spec, m).scaled(1 / (w - spec.z[k]))
        op = term if op is None else op + term
    return op


def _bethe_vector_numeric(weights, z: np.ndarray, roots: np.ndarray) -> np.ndarray:
    psi = np.array([1.0 + 0.0j])
    for degree, w in enumerate(roots):
        psi = _lowering_array(weights, z, w, degree) @ psi
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
    return _bethe_vector_numeric(spec.weights, z, roots)


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
    scale = _z_scale(z)
    if np.min(np.abs(roots[:, None] - z[None, :])) < 1e-12 * scale:
        raise ValueError("root coincides with a site point")
    _check_distinct(roots, z)
    lam = np.array([float(x) for x in _weights_of(spec)])
    return _residuals(lam, z, roots)


def _site_polynomials(lam: np.ndarray, z: np.ndarray):
    """Coefficient arrays (highest first) of P, P', R, R'."""
    r_coeffs = np.poly(z) if len(z) else np.array([1.0 + 0j])
    p_coeffs = np.zeros(len(z), dtype=complex)
    for j in range(len(z)):
        p_coeffs = p_coeffs + lam[j] * np.poly(np.delete(z, j))
    return p_coeffs, np.polyder(p_coeffs), r_coeffs, np.polyder(r_coeffs)


def _cleared_system(w: np.ndarray, lam: np.ndarray, z: np.ndarray, polys):
    """Value and Jacobian of the cleared system for a batch of root vectors.

    w has shape (S, m); returns g of shape (S, m) and J of shape (S, m, m).
    """
    p_c, dp_c, r_c, dr_c = polys
    n_starts, m = w.shape
    pw = np.polyval(p_c, w)
    dpw = np.polyval(dp_c, w)
    rw = np.polyval(r_c, w)
    drw = np.polyval(dr_c, w)

    diff = w[:, None, :] - w[:, :, None]  # [s, k, l] = w_l - w_k

    def prod_excl(k, excluded):
        out = np.ones(n_starts, dtype=complex)
        for l in range(m):
            if l != k and l not in excluded:
                out = out * diff[:, k, l]
        return out

    g = np.zeros((n_starts, m), dtype=complex)
    jac = np.zeros((n_starts, m, m), dtype=complex)
    for k in range(m):
        q_k = prod_excl(k, ())
        t = {l: prod_excl(k, (l,)) for l in range(m) if l != k}
        s_k = sum(t.values()) if t else np.zeros(n_starts, dtype=complex)
        g[:, k] = pw[:, k] * q_k + 2.0 * rw[:, k] * s_k

        ds_own = np.zeros(n_starts, dtype=complex)
        for l in range(m):
            if l == k:
                continue
            for p in range(m):
                if p != k and p != l:
                    ds_own = ds_own - prod_excl(k, (l, p))
        jac[:, k, k] = dpw[:, k] * q_k - pw[:, k] * s_k + 2.0 * drw[:, k] * s_k + 2.0 * rw[:, k] * ds_own

        for q in range(m):
            if q == k:
                continue
            ds_q = np.zeros(n_starts, dtype=complex)
            for l in range(m):
                if l != k and l != q:
                    ds_q = ds_q + prod_excl(k, (l, q))
            jac[:, k, q] = pw[:, k] * t[q] + 2.0 * rw[:, k] * ds_q
    return g, jac


def _sorted_roots(roots) -> np.ndarray:
    return np.array(sorted(np.asarray(roots, dtype=complex), key=lambda c: (c.real, c.imag)))


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


def _diagnostics(weights, z: np.ndarray, roots: np.ndarray, raise_e, hams):
    """Singular residual, eigenvalue tuple and vector residual of the Bethe vector.

    The eigenvalues are E_i = E_i^vac + sum_k lam_i / (w_k - z_i); raise_e and
    hams are the total E and the Hamiltonians on V_m as arrays.
    """
    psi = _bethe_vector_numeric(weights, z, roots)
    sup = float(np.max(np.abs(psi)))
    singular_residual = float(np.max(np.abs(raise_e @ psi))) / sup if raise_e.size else 0.0
    n_sites = len(weights)
    vacuum = np.array([_vacuum_eigenvalue(weights, z, i) for i in range(n_sites)], dtype=complex)
    eigenvalues = vacuum + np.array(
        [np.sum(float(weights[i]) / (roots - z[i])) for i in range(n_sites)]
    )
    return singular_residual, eigenvalues, float(_residual(hams, psi, eigenvalues))


def _solve_degree_one(lam, z, polys, tol_root, dedup_tol):
    """Roots of P via the companion matrix, polished, clustered for collapses.

    A double root of P splits numerically by about sqrt(machine epsilon), so
    the collapse detection uses a cluster width of at least 1e-7 times the
    site-point scale; genuinely distinct desk-scale roots sit far above it.
    """
    p_c, dp_c, _, _ = polys
    raw = np.roots(p_c)
    polished = []
    for w in raw:
        for _ in range(50):
            fw = np.sum(lam / (w - z))
            if abs(fw) <= 0.1 * tol_root:
                break
            dfw = -np.sum(lam / (w - z) ** 2)
            if dfw == 0:
                break
            step = fw / dfw
            w = w - step
            if abs(step) < 1e-16 * max(1.0, abs(w)):
                break
        polished.append(w)
    cluster_tol = max(dedup_tol, 1e-7 * _z_scale(z))
    clusters = []
    for w in sorted(polished, key=lambda c: (c.real, c.imag)):
        for cluster in clusters:
            if abs(cluster[0] - w) <= cluster_tol:
                cluster.append(w)
                break
        else:
            clusters.append([w])
    out = []
    for cluster in clusters:
        mean = complex(np.mean(cluster))
        residual = abs(np.sum(lam / (mean - z)))
        if len(cluster) == 1 and residual > tol_root:
            continue
        out.append((np.array([mean]), residual, len(cluster)))
    return out


def _newton_starts(lam, z, m, n_starts, rng):
    scale = _z_scale(z)
    barycenter = complex(np.sum(lam * z) / np.sum(lam))
    centroid = complex(np.mean(z))
    n_bary = n_starts // 2
    gauss = rng.standard_normal((n_bary, m)) + 1j * rng.standard_normal((n_bary, m))
    starts_a = barycenter + 0.5 * scale * gauss
    n_disc = n_starts - n_bary
    radius = 2.0 * scale * np.sqrt(rng.uniform(size=(n_disc, m)))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(n_disc, m))
    starts_b = centroid + radius * np.exp(1j * angle)
    return np.concatenate([starts_a, starts_b], axis=0)


def _solve_degree_many(lam, z, m, polys, tol_root, dedup_tol, n_starts, rng):
    w = _newton_starts(lam, z, m, n_starts, rng)
    scale = _z_scale(z)
    active = np.ones(len(w), dtype=bool)
    converged = np.zeros(len(w), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(60):
            if not active.any():
                break
            res = np.max(np.abs(_residuals(lam, z, w[active])), axis=-1)
            newly = res <= tol_root
            idx = np.flatnonzero(active)
            converged[idx[newly]] = True
            active[idx[newly]] = False
            if not active.any():
                break
            g, jac = _cleared_system(w[active], lam, z, polys)
            try:
                step = np.linalg.solve(jac, g[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.einsum("sij,sj->si", np.linalg.pinv(jac), g)
            w[active] -= step
            bad = ~np.all(np.isfinite(w), axis=-1) | (np.max(np.abs(w), axis=-1) > 1e6 * scale)
            active &= ~bad

        rows = w[converged]
        residuals = np.max(np.abs(_residuals(lam, z, rows)), axis=-1)
    candidates = [
        (float(res), _sorted_roots(row))
        for res, row in zip(residuals, rows)
        if np.isfinite(res) and res <= tol_root
    ]
    candidates.sort(key=lambda t: t[0])
    solutions = []
    kept = np.empty((len(candidates), m), dtype=complex)
    for res, roots in candidates:
        if np.any(_multiset_gaps(roots, kept[: len(solutions)]) <= dedup_tol):
            continue
        kept[len(solutions)] = roots
        solutions.append((res, roots))
    solutions.sort(key=lambda t: tuple((c.real, c.imag) for c in t[1]))
    return [(roots, res, 1) for res, roots in solutions]


def solve_bethe_numeric(
    weights,
    z,
    m: int,
    *,
    tol_root=DEFAULT_TOL_ROOT,
    dedup_tol=DEFAULT_DEDUP_TOL,
    n_starts=None,
    seed=DEFAULT_SEED,
):
    """Solve the Bethe system for arbitrary complex site points z.

    Returns the distinct solutions found, canonically sorted, each annotated
    with its eigenvalue tuple and the eigen/singularity residuals of the
    reconstructed Bethe vector.  Completeness of the root set is never
    asserted; callers compare len(result) with singular_dimension_formula.
    """
    weights = _weights_of(weights)
    if m < 1:
        raise ValueError("m must be at least 1")
    z = np.asarray(z, dtype=complex)
    lam = np.array([float(x) for x in weights])
    polys = _site_polynomials(lam, z)

    if m == 1:
        found = _solve_degree_one(lam, z, polys, tol_root, dedup_tol)
    else:
        if n_starts is None:
            n_starts = 200 * singular_dimension_formula(len(weights), m)
        rng = np.random.default_rng(seed)
        found = _solve_degree_many(lam, z, m, polys, tol_root, dedup_tol, n_starts, rng)

    raise_e = build_total_generator("E", weights, m).to_array(float)
    hams = [hamiltonian_array(weights, z, i, m) for i in range(len(weights))]
    solutions = []
    for roots, res, mult in found:
        singular_residual, eigenvalues, vector_residual = _diagnostics(weights, z, roots, raise_e, hams)
        solutions.append(
            BetheSolution(
                roots=roots,
                residual_eq=float(res),
                eigenvalues=eigenvalues,
                vector_residual=vector_residual,
                singular_residual=singular_residual,
                multiplicity=mult,
            )
        )
    return solutions


def solve_bethe(
    spec: ModelSpec,
    m: int,
    *,
    tol_root=DEFAULT_TOL_ROOT,
    dedup_tol=DEFAULT_DEDUP_TOL,
    n_starts=None,
    seed=DEFAULT_SEED,
):
    """Solve the Bethe system of a model instance (see solve_bethe_numeric)."""
    z = np.array([complex(x) for x in spec.z])
    return solve_bethe_numeric(
        spec.weights,
        z,
        m,
        tol_root=tol_root,
        dedup_tol=dedup_tol,
        n_starts=n_starts,
        seed=seed,
    )


@dataclass
class SolutionReport:
    singular_residual: float
    vector_residual: float
    ok: bool


def verify_solution(spec: ModelSpec, m: int, sol: BetheSolution, tol=1e-9) -> SolutionReport:
    """Recompute the Bethe vector and its residuals from the spec, reading only sol.roots."""
    roots = np.asarray(sol.roots, dtype=complex)
    z = np.array([complex(x) for x in spec.z])
    _check_distinct(roots, z)
    raise_e = build_total_generator("E", spec, m).to_array(float)
    hams = [hamiltonian_array(spec.weights, z, i, m) for i in range(spec.n_sites)]
    singular_residual, _, vector_residual = _diagnostics(spec.weights, z, roots, raise_e, hams)
    return SolutionReport(
        singular_residual=singular_residual,
        vector_residual=vector_residual,
        ok=(singular_residual <= tol and vector_residual <= tol),
    )
