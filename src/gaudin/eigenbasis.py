"""Complete common eigenbasis of the Gaudin family, level by level.

On each V_m the basis splits into singular eigenvectors and nonsingular ones
(images under the total lowering operator of the previous level's
eigenvectors, which inherit their eigenvalue tuples unchanged, all lowered
at once by the index-map gathers of sl2._lower).

The singular eigenvectors come from the Shapovalov form S, diagonal on the
basis F^n v with integer norms (sl2._shapovalov_norms).  Every H_i is
symmetric for S (Mukhin, Tarasov and Varchenko, Ann. of Math. 170, 2009), so
for real z the scaled S^1/2 H_i S^-1/2 is real symmetric.  An SVD of the
scaled total raising operator, scattered from sl2._raising_gathers, gives an
orthonormal frame of the scaled singular subspace, and the exact
intertwining E H_i = H_i E makes it invariant; the restricted Hamiltonians
are jointly diagonalized by eigh of one seeded random combination
(_singular_eigen, whose eigenvalues the Bethe layer shares).  Every
eigenvector is verified by its singular and eigenvector residuals in V_m
coordinates.  No dense Hamiltonian is built: the H_i act by the gathers of
hamiltonians._gather_forms, from the correctly rounded floats of the exact
differences z_i - z_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hamiltonians import _exact_family, _gather_forms, _site_scales, _vanishing
from .singular import singular_dimension
from .sl2 import (
    DEFAULT_SEED,
    ModelSpec,
    _gather_sum,
    _generator,
    _lower,
    _lowering_map,
    _pad,
    _raising_gathers,
    _scatter,
    _shapovalov_norms,
    enumerate_weight_space,
)

# fixed gates: an eigenvector residual above DEFAULT_TOL, or a level whose
# stacked coordinates have a singular value at or below DEFAULT_TOL_RANK, fails
DEFAULT_TOL = 1e-9
DEFAULT_TOL_RANK = 1e-8
# eigenvalues of the combination closer than this fraction of its spread form
# a cluster that a fresh combination diagonalizes once more
_CLUSTER_GAP = 1e-6
_BLOCK = 1 << 16  # the entries _images gathers per term, or one site's worth


class DiagonalizationError(RuntimeError):
    """Joint diagonalization failed to reach the residual tolerance."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(message)
        self.worst_residual = worst_residual


class CompletenessError(RuntimeError):
    """The assembled level does not span its weight subspace."""


class InvarianceError(ValueError):
    """An exact check failed: some H_i does not preserve the kernel of E (a verification failure)."""


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


def _shapovalov_root(weights, m: int) -> np.ndarray:
    """The diagonal of S^1/2 on V_m, as floats."""
    return np.sqrt(np.array(_shapovalov_norms(weights, m), dtype=float))


def _singular_frame(weights, m: int, count: int):
    """(root, basis): the diagonal of S_m^1/2 and an orthonormal frame of S_m^1/2 ker E.

    count is the exact singular_dimension.  The dense total E from V_m to
    V_{m-1} is scattered from sl2._raising_gathers, and basis holds the last
    count right singular vectors of S_{m-1}^1/2 E S_m^-1/2 as columns.  The
    squares of that matrix's singular values, the eigenvalues of F E on V_m,
    are k (sum(weights) - 2m + k + 1) with multiplicity
    singular_dimension(m - k), k = 1..m, all at least 2; a relative error
    above DEFAULT_TOL raises DiagonalizationError.
    """
    root = _shapovalov_root(weights, m)
    raise_e = _scatter(*_raising_gathers(weights, m), len(root), float)
    scaled = _shapovalov_root(weights, m - 1)[:, None] * raise_e / root
    _, values, vt = np.linalg.svd(scaled)
    counts = [singular_dimension(weights, m - k) for k in range(1, m + 1)]
    k = np.arange(1, m + 1)  # the squares ascend in k
    expected = np.repeat(k * (sum(weights) - 2 * m + k + 1.0), counts)
    error = np.max(np.abs(np.sort(values**2) - expected) / expected, initial=0.0)
    if error > DEFAULT_TOL:
        raise DiagonalizationError(f"frame singular values off by {error:.3e} relative", error)
    return root, vt[-count:].T


def _eig(mat: np.ndarray, real: bool):
    """Eigenvalues in ascending (for complex, lexicographic) order and their unit eigenvectors."""
    if real:
        return np.linalg.eigh(mat)
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def _combination(mats, rng) -> np.ndarray:
    return sum(t * mat for t, mat in zip(rng.standard_normal(len(mats)), mats))


def _joint_eigen(mats, seed):
    """Joint eigenvectors of commuting symmetric matrices, and their eigenvalues.

    mats are real symmetric (eigh) or, for complex site points, complex
    symmetric (eig, as they are not Hermitian).  The first combination's
    weights are default_rng(seed).standard_normal(len(mats)).  Each run of
    its eigenvalues with consecutive gaps below _CLUSTER_GAP times the spread
    is diagonalized once more, with a fresh combination restricted to an
    orthonormal basis of the run's span; a cluster that combination does not
    separate either (a degenerate joint eigenspace) is returned in the basis
    it gives.  Returns (vecs, eigs): unit eigenvector columns and eigs[i, j],
    the Rayleigh quotient of mats[i] at column j.
    """
    rng = np.random.default_rng(seed)
    real = not any(np.any(np.imag(mat)) for mat in mats)
    if real:
        mats = [np.real(mat) for mat in mats]
    vals, vecs = _eig(_combination(mats, rng), real)
    spread = abs(vals[-1] - vals[0]) if len(vals) else 0.0
    bounds = np.flatnonzero(np.abs(np.diff(vals)) >= _CLUSTER_GAP * spread) + 1
    for cluster in np.split(np.arange(len(vals)), bounds):
        if len(cluster) > 1:
            block = np.linalg.qr(vecs[:, cluster])[0]
            vecs[:, cluster] = block @ _eig(block.conj().T @ _combination(mats, rng) @ block, real)[1]
    eigs = np.array([np.sum(vecs.conj() * (mat @ vecs), axis=0) for mat in mats])
    return vecs, eigs


def _images(hams, vecs: np.ndarray):
    """Yield (sites, H_i vecs for the i in sites), hams a family gather form and vecs (dim, S) padded once."""
    src, coef = hams
    padded = _pad(vecs)
    step = max(1, _BLOCK // padded.size)
    for start in range(0, src.shape[1], step):
        sites = slice(start, start + step)
        yield sites, _gather_sum(padded, src[:, sites], coef[:, sites])


def _singular_eigen(weights, m: int, count: int, hams, seed):
    """(root, basis, vecs, eigs): the joint eigenvectors of the H_i on the singular subspace of V_m.

    hams is the family gather form of the H_i.  Their restrictions
    basis^T S^1/2 H_i S^-1/2 basis to the frame of _singular_frame are
    jointly diagonalized: column j of vecs is an eigenvector in frame
    coordinates, (basis @ vecs) / root[:, None] in V_m coordinates, and
    eigs[i, j] the eigenvalue of H_i on it.
    """
    root, basis = _singular_frame(weights, m, count)
    chunks = _images(hams, basis / root[:, None])  # columns S^-1/2 basis[:, s]
    blocks = (basis.T @ np.multiply(g, root[:, None], out=g) for _, g in chunks)
    return root, basis, *_joint_eigen([mat for block in blocks for mat in block], seed)


def _residual(hams, vecs: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """max_i |H_i v - E_i v| / max |v| for each column v of vecs, shape (dim, S).

    eigenvalues has shape (N, S), column j the tuple of vecs[:, j].  Gathers
    act on each column alone, so it gets the same residual as in a batch.
    """
    gaps = [
        np.max(np.abs(images - eigenvalues[sites, None] * vecs), axis=(0, 1))
        for sites, images in _images(hams, vecs)
    ]
    return np.max(gaps, axis=0) / np.max(np.abs(vecs), axis=0)


def _singular_residual(weights, m: int, vecs: np.ndarray) -> np.ndarray:
    """max |E v| / max |v| for each column v of vecs on V_m, by the gathers of the total E."""
    image = _gather_sum(_pad(vecs), *_raising_gathers(weights, m))
    return np.max(np.abs(image), axis=0, initial=0.0) / np.max(np.abs(vecs), axis=0)


def _gate(residuals, what: str) -> None:
    worst = float(np.max(residuals))
    if worst > DEFAULT_TOL:
        raise DiagonalizationError(f"{what} residual {worst:.3e} exceeds tol {DEFAULT_TOL:.1e}", worst)


def _traces(family) -> list:
    """tr D_i H_i for each site, from the diagonal term 0 of an _exact_family (no hop reaches the diagonal).

    The sum is taken in Python ints: dim entries below 2^62 of an int64 family may exceed int64.
    """
    return [sum(row) for row in family.coef[0].tolist()]


def _level_family(spec: ModelSpec, m: int):
    """_exact_family(spec, m) and the family gather form of the H_i on V_m, built once per level."""
    fractions = [(x.numerator, x.denominator) for x in spec.z]  # int / int rounds correctly
    diffs = np.array([[(p * e - q * d) / (d * e) for q, e in fractions] for p, d in fractions])
    return _exact_family(spec, m), _gather_forms(spec.weights, diffs, m)


def diagonalize_singular(spec: ModelSpec, m: int, seed=DEFAULT_SEED):
    """Common eigenvectors of all Hamiltonians on the singular subspace of V_m.

    The frame of _singular_frame is checked exactly to be invariant under
    every H_i (E D_i H_i = D_i H_i E, decided by hamiltonians._vanishing;
    InvarianceError otherwise); the symmetric restrictions are jointly
    diagonalized (seed draws the combination).
    Eigenvectors are returned in V_m coordinates with unit norm, their
    singular residuals max|E v| / max|v| and eigenvector residuals gated by
    DEFAULT_TOL.  A one-vector subspace gets the exact eigenvalues
    tr H_i|V_m - tr H_i|V_{m-1}: the intertwining makes H_i on V_{m-1} the
    action of H_i on V_m / ker E.
    """
    return _diagonalize_level(spec, m, None, None, seed)


def _diagonalize_level(spec: ModelSpec, m: int, below, family, seed):
    """diagonalize_singular given _exact_family(spec, m - 1) (below) and
    _level_family(spec, m) (family); each None is built here when the level needs it."""
    enumerate_weight_space(spec, m)  # raises for m outside 0..sum(weights)
    count = singular_dimension(spec, m)
    if count == 0:
        return []
    ints, gathers = family or _level_family(spec, m)
    if below is None and m > 0:
        below = _exact_family(spec, m - 1)
    if below is not None:
        # E H_i^(m) = H_i^(m-1) E gives H_i (ker E) in ker E
        raise_e = _generator("E", spec.weights, m)
        items = [(1, raise_e, 0, ints, i, i) for i in range(spec.n_sites)]
        items += [(-1, below, i, raise_e, 0, i) for i in range(spec.n_sites)]
        if not _vanishing(items).all():
            raise InvarianceError("operator does not preserve the kernel of the raising operator")
    root, basis, vecs, eigs = _singular_eigen(spec.weights, m, count, gathers, seed)
    coords = (basis @ vecs) / root[:, None]
    exact = None
    if count == 1:
        lower = _traces(below) if below is not None else [0] * spec.n_sites
        scales = _site_scales(spec.z)
        exact = tuple(Fraction(t - s, d) for t, s, d in zip(_traces(ints), lower, scales))
        eigs = np.array([[float(x)] for x in exact])

    units = np.array([_canonical_phase(col / np.linalg.norm(col)) for col in coords.T]).T
    _gate(_singular_residual(spec.weights, m, units), "singular")
    residuals = _residual(gathers, units, eigs)
    _gate(residuals, "singular-subspace eigenvector")
    out = [
        EigenVector(m=m, coords=v, eigenvalues=values, origin="singular", residual=res, exact_eigenvalues=exact)
        for v, values, res in zip(units.T.astype(complex, order="C"), eigs.T.astype(complex), residuals)
    ]
    out.sort(key=lambda ev: tuple((s.real, s.imag) for s in ev.eigenvalues))
    return out


@dataclass
class EigenBasis:
    """Common eigenbasis per level, levels[m] holding dim V_m eigenvectors."""

    spec: ModelSpec
    levels: list

    def singular_at(self, m: int):
        return [v for v in self.levels[m] if v.origin == "singular"]

    def nonsingular_at(self, m: int):
        return [v for v in self.levels[m] if v.origin != "singular"]


def build_eigenbasis(spec: ModelSpec, m_max: int, seed=DEFAULT_SEED) -> EigenBasis:
    """Recursive construction of the common eigenbasis through level m_max.

    Level 0 is the singular subspace of V_0, the vacuum, with exact
    eigenvalues.  Each later level is the union of the normalized images of
    the previous level under the total lowering operator (eigenvalue tuples
    copied unchanged) and the singular eigenvectors of the level.  Every
    vector's residual is gated by DEFAULT_TOL; completeness is verified by
    counting and by the smallest singular value of the stacked coordinate
    matrix against DEFAULT_TOL_RANK.
    """
    if not 0 <= m_max <= spec.min_weight:
        raise ValueError(f"m_max must lie in 0..min(weights) = {spec.min_weight}")

    family = _level_family(spec, 0)
    levels = [_diagonalize_level(spec, 0, None, family, seed)]

    for m in range(1, m_max + 1):
        below, family = family[0], _level_family(spec, m)
        parents = levels[m - 1]
        unit = np.ones((spec.n_sites, 1))  # the total F: coefficient 1 on every site
        images = _lower(np.array([p.coords for p in parents]).T, _lowering_map(spec.weights, m - 1), unit).T
        norms = [float(np.linalg.norm(image)) for image in images]
        if 0.0 in norms:
            raise CompletenessError(f"lowering annihilated an eigenvector at level {m}")
        # keep the parent's phase: the colinearity E(Fu) = c u of the
        # lowering chain must survive normalization
        units = [image / norm for image, norm in zip(images, norms)]
        eigenvalues = np.array([parent.eigenvalues for parent in parents])
        residuals = _residual(family[1], np.array(units).T, eigenvalues.T)
        _gate(residuals, "lowered-vector")
        level = [
            EigenVector(
                m=m,
                coords=v,
                eigenvalues=values,
                origin=f"lowered:{parent.times_lowered + 1}",
                residual=res,
                exact_eigenvalues=parent.exact_eigenvalues,
                preimage=idx,
                lowering_norm=norm,
            )
            for idx, (parent, v, values, res, norm) in enumerate(
                zip(parents, units, eigenvalues, residuals, norms)
            )
        ]

        level.extend(_diagonalize_level(spec, m, below, family, seed))

        dim = enumerate_weight_space(spec, m).dim
        if len(level) != dim:
            raise CompletenessError(
                f"level {m} has {len(level)} vectors but dim V_m = {dim}"
            )
        stacked = np.array([v.coords for v in level])
        min_sv = float(np.linalg.svd(stacked, compute_uv=False)[-1])
        if min_sv <= DEFAULT_TOL_RANK:
            raise CompletenessError(
                f"level {m} stacked matrix min singular value {min_sv:.3e} <= {DEFAULT_TOL_RANK:.1e}"
            )
        levels.append(level)

    return EigenBasis(spec, levels)


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


def verify_nonsingularity(basis: EigenBasis, m: int) -> NonSingularityReport:
    """Check that lowered vectors at level m are nonsingular, with the exact scalar.

    For v = F u with u lowered k times from a singular ancestor,
    E v = (k+1) (sum(weights) - 2(m-1) + k) u holds up to the stored
    normalization (relative error at most DEFAULT_TOL), and the integer
    scalar is strictly positive.
    """
    spec = basis.spec
    level = basis.levels[m]
    images = _gather_sum(_pad(np.array([v.coords for v in level]).T), *_raising_gathers(spec.weights, m)).T
    checks = []
    ok = True
    worst = 0.0
    for j, (vec, image) in enumerate(zip(level, images)):
        if vec.origin == "singular":
            continue
        parent = basis.levels[m - 1][vec.preimage]
        k = parent.times_lowered
        scalar = (k + 1) * (spec.total_weight - 2 * (m - 1) + k)
        predicted = (scalar / vec.lowering_norm) * parent.coords
        scale = max(np.max(np.abs(image)), 1e-300)
        rel = float(np.max(np.abs(image - predicted)) / scale)
        worst = max(worst, rel)
        if rel > DEFAULT_TOL or scalar <= 0:
            ok = False
        checks.append(NonSingularityCheck(j, k + 1, scalar, rel))
    return NonSingularityReport(ok, worst, checks)
