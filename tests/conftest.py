from fractions import Fraction

import numpy as np
import pytest

from gaudin import ModelSpec, build_site_operator


def random_spec(rng, n_min=2, n_max=5, lam_max=4) -> ModelSpec:
    """A random instance: N sites, weights 1..lam_max, distinct rational z."""
    n = int(rng.integers(n_min, n_max + 1))
    weights = tuple(int(rng.integers(1, lam_max + 1)) for _ in range(n))
    zs = []
    while len(zs) < n:
        cand = Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 7)))
        if cand not in zs:
            zs.append(cand)
    return ModelSpec(weights, tuple(zs))


def lowering_field_exact(spec, w, m):
    """Dense exact F(w) = sum_k F^(k) / (w - z_k) from V_m to V_{m+1}, Fractions, for rational w off the poles."""
    w = Fraction(w)
    return sum(build_site_operator("F", k, spec, m).to_array(object) / (w - zk) for k, zk in enumerate(spec.z))


def sentinel_gather(vecs, src, coef):
    """The reference applier: sum over h of vecs[src[h]] * coef[h], in order, a source dim = len(vecs) reading a
    zero row appended to the block vecs, so that absent entries are gathered too."""
    padded = np.concatenate([vecs, np.zeros((1,) + vecs.shape[1:], dtype=vecs.dtype)])
    out = padded[src[0]] * coef[0]
    for s, c in zip(src[1:], coef[1:]):
        out += padded[s] * c
    return out


def sentinel_scatter(src, coef, dim, dtype):
    """The dense matrix of sentinel_gather(., src, coef[..., None]): each term added into a zero matrix in order."""
    arr = np.zeros((src.shape[1], dim + 1), dtype=dtype)
    for cols, values in zip(src, coef):
        arr[np.arange(src.shape[1]), cols] += values
    return arr[:, :dim]


@pytest.fixture
def rng():
    return np.random.default_rng(20010814)
