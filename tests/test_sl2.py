import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gaudin import (
    ModelSpec,
    SparseOperator,
    apply_site_generator,
    build_site_operator,
    build_total_generator,
    enumerate_weight_space,
    weight_space_dimension_formula,
)
from gaudin.rational_linalg import rank
from gaudin.sl2 import _shapovalov_norms

from conftest import random_spec


def brute_force_states(weights, m):
    return sorted(
        s for s in product(*(range(w + 1) for w in weights)) if sum(s) == m
    )


class TestModelSpec:
    def test_roundtrip(self):
        spec = ModelSpec((2, 2, 2), (Fraction(0), Fraction(1), Fraction(3, 2)))
        again = ModelSpec.from_json(spec.to_json())
        assert again == spec
        assert again.z[2] == Fraction(3, 2)

    def test_parses_pq_strings(self):
        spec = ModelSpec.from_json('{"weights": [1, 1], "z": ["0", "-2/3"]}')
        assert spec.z == (Fraction(0), Fraction(-2, 3))

    def test_rejects_bad_rational(self):
        with pytest.raises(ValueError):
            ModelSpec.from_json('{"weights": [1, 1], "z": ["1//2", "0"]}')

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            ModelSpec((3,), (Fraction(0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            ModelSpec((1, 0), (Fraction(0), Fraction(1)))

    def test_rejects_repeated_z(self):
        with pytest.raises(ValueError):
            ModelSpec((1, 1), (Fraction(1, 2), Fraction(1, 2)))


class TestEnumeration:
    def test_three_site_count(self):
        ws = enumerate_weight_space(ModelSpec((2, 2, 2), (0, 1, 2)), 2)
        assert ws.dim == 6 == math.comb(4, 2)

    def test_two_site_m1(self):
        ws = enumerate_weight_space(ModelSpec((1, 1), (0, 1)), 1)
        assert ws.states == ((0, 1), (1, 0))

    def test_truncation_below_binomial(self):
        ws = enumerate_weight_space(ModelSpec((1, 1), (0, 1)), 2)
        assert ws.states == ((1, 1),)
        assert ws.dim == 1 < math.comb(3, 2)

    def test_out_of_range(self):
        spec = ModelSpec((1, 1), (0, 1))
        with pytest.raises(ValueError):
            enumerate_weight_space(spec, -1)
        with pytest.raises(ValueError):
            enumerate_weight_space(spec, 3)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            m = int(rng.integers(0, spec.total_weight + 1))
            ws = enumerate_weight_space(spec, m)
            assert list(ws.states) == brute_force_states(spec.weights, m)
            assert all(ws.index[s] == i for i, s in enumerate(ws.states))
            if m <= spec.min_weight:
                assert ws.dim == weight_space_dimension_formula(spec.n_sites, m)

    def test_truncated_dimension_is_smaller(self):
        spec = ModelSpec((1, 3), (0, 1))
        ws = enumerate_weight_space(spec, 2)
        assert ws.dim < weight_space_dimension_formula(2, 2)

    def test_repeat_calls_return_the_cached_space(self):
        assert enumerate_weight_space((1, 2, 3), 2) is enumerate_weight_space((1, 2, 3), 2)
        spec = ModelSpec((1, 2, 3), (0, 1, 2))
        assert enumerate_weight_space(spec, 2) is enumerate_weight_space([1, 2, 3], 2)

    def test_every_level_matches_the_filtered_box(self):
        for weights in ((1, 1), (1, 2, 3, 4), (3, 3, 3)):
            for m in range(sum(weights) + 1):
                states = enumerate_weight_space(weights, m).states
                assert list(states) == brute_force_states(weights, m)


class TestSiteGenerator:
    def test_raising_coefficient(self):
        coeff, state = apply_site_generator("E", 0, (1,), (2,))
        assert coeff == 2 and state == (0,)

    def test_lowering_truncates(self):
        assert apply_site_generator("F", 0, (1,), (1,)) is None

    def test_cartan_value(self):
        coeff, state = apply_site_generator("H", 0, (1,), (3,))
        assert coeff == 1 and state == (1,)

    def test_raising_annihilates_top(self):
        assert apply_site_generator("E", 1, (0, 0), (1, 1)) is None

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            apply_site_generator("X", 0, (0,), (1,))


class TestTotalGenerators:
    def test_total_h_is_constant_diagonal(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            m = int(rng.integers(0, spec.total_weight + 1))
            op = build_total_generator("H", spec, m)
            expected = spec.total_weight - 2 * m
            for row, col, val in op.entries():
                assert row == col and val == expected
            dim = enumerate_weight_space(spec, m).dim
            assert op.nnz == (dim if expected != 0 else 0)

    def test_raising_on_vacuum_is_zero_map(self):
        op = build_total_generator("E", ModelSpec((2, 3), (0, 1)), 0)
        assert op.codomain.dim == 0
        assert op.is_zero()

    def test_lowering_at_top_is_zero_map(self):
        spec = ModelSpec((1, 1), (0, 1))
        op = build_total_generator("F", spec, 2)
        assert op.codomain.dim == 0
        assert op.is_zero()

    def test_equal_weight_singular_combination(self):
        # hand application: E (F^(1) - F^(2)) v_0 = (lam_1 - lam_2) v_0 = 0
        spec = ModelSpec((1, 1), (0, 1))
        raise_e = build_total_generator("E", spec, 1)
        space = enumerate_weight_space(spec, 1)
        vec = [Fraction(0)] * space.dim
        vec[space.index[(1, 0)]] = Fraction(1)
        vec[space.index[(0, 1)]] = Fraction(-1)
        assert raise_e.apply(vec) == [Fraction(0)]

    def test_commutation_relation(self, rng):
        # [E, F] = H on every level, exact
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.total_weight + 1):
                h_tot = build_total_generator("H", spec, m)
                f_m = build_total_generator("F", spec, m)
                e_m = build_total_generator("E", spec, m)
                acc = SparseOperator.zero(h_tot.domain, h_tot.codomain)
                if m < spec.total_weight:
                    acc = acc + build_total_generator("E", spec, m + 1) @ f_m
                if m >= 1:
                    acc = acc - build_total_generator("F", spec, m - 1) @ e_m
                assert (acc - h_tot).is_zero()

    def test_lowering_injective_in_regime(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(1, spec.min_weight + 1):
                op = build_total_generator("F", spec, m - 1)
                assert rank(op.rows()) == op.domain.dim


def walked_entries(gen, sites, weights, m):
    """{(row, col): value} of sum_{k in sites} X^(k) on V_m, walked per state with apply_site_generator."""
    step = {"E": -1, "F": 1, "H": 0}[gen]
    out = {}
    for col, state in enumerate(enumerate_weight_space(weights, m).states):
        for site in sites:
            hit = apply_site_generator(gen, site, state, weights)
            if hit is not None:
                key = (enumerate_weight_space(weights, m + step).index[hit[1]], col)
                out[key] = out.get(key, 0) + hit[0]
    return {key: value for key, value in out.items() if value != 0}


class TestBuildersFromIndexMaps:
    def test_every_generator_matches_the_site_action(self, rng):
        # a lam = 1 site truncates every level above 1; E on V_0 and F on the
        # top level are the zero maps into the empty space
        for _ in range(6):
            weights = (1,) + random_spec(rng, n_max=4, lam_max=3).weights
            for m in range(sum(weights) + 1):
                for gen, step in (("E", -1), ("F", 1), ("H", 0)):
                    ops = [(build_total_generator(gen, weights, m), range(len(weights)))]
                    ops += [(build_site_operator(gen, k, weights, m), [k]) for k in range(len(weights))]
                    for op, sites in ops:
                        entries = {(row, col): value for row, col, value in op.entries()}
                        assert entries == walked_entries(gen, sites, weights, m)
                        assert all(type(value) is int for value in entries.values())
                        assert (op.domain.m, op.codomain.m) == (m, m + step)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            build_total_generator("X", (1, 2), 1)
        with pytest.raises(ValueError, match="unknown generator"):
            build_site_operator("X", 0, (1, 2), 1)


class TestShapovalovForm:
    def test_norms_by_hand(self):
        # one site of weight 3: n! 3!/(3-n)! = 1, 3, 12, 36
        assert [_shapovalov_norms((3,), n)[0] for n in range(4)] == [1, 3, 12, 36]
        # states (0,2), (1,1), (2,0) of weights (3, 2): 2*2, 3*2, 12*1
        assert _shapovalov_norms((3, 2), 2) == [4, 6, 12]

    def test_raising_is_adjoint_of_lowering(self, rng):
        # S_{m-1}[r] E[r, c] = S_m[c] F[c, r] on integers, truncated levels included
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(1, spec.total_weight + 1):
                raise_e = build_total_generator("E", spec, m).rows()
                lower_f = build_total_generator("F", spec, m - 1).rows()
                below = _shapovalov_norms(spec.weights, m - 1)
                norms = _shapovalov_norms(spec.weights, m)
                for r, row in enumerate(raise_e):
                    for c, value in enumerate(row):
                        assert value * below[r] == lower_f[c][r] * norms[c]


class TestSparseOperator:
    def test_algebra_matches_dense(self, rng):
        spec = random_spec(rng, n_max=3, lam_max=2)
        m = 1
        e_op = build_total_generator("E", spec, m + 1)
        f_op = build_total_generator("F", spec, m)
        composed = e_op @ f_op
        dense = e_op.to_array() @ f_op.to_array()
        assert np.allclose(composed.to_array(), dense)
        doubled = composed + composed
        assert np.allclose(doubled.to_array(), 2 * dense)
        assert (doubled - composed.scaled(2)).is_zero()
        assert (-composed + composed).is_zero()

    def test_apply_matches_dense(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        f_op = build_total_generator("F", spec, 0)
        image = f_op.apply([Fraction(3, 7)])
        assert np.allclose(
            [float(x) for x in image], f_op.to_array() @ np.array([3 / 7])
        )

    def test_shape_mismatch_raises(self):
        spec = ModelSpec((1, 1), (0, 1))
        f0 = build_total_generator("F", spec, 0)
        f1 = build_total_generator("F", spec, 1)
        with pytest.raises(ValueError):
            f0 @ f1
        with pytest.raises(ValueError):
            f0 + f1
