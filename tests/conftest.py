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


@pytest.fixture
def rng():
    return np.random.default_rng(20010814)
