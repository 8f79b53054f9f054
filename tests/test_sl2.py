import math
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import gaudin
from gaudin import (
    ModelSpec,
    SparseOperator,
    build_site_operator,
    build_total_generator,
    diagonalize_singular,
    enumerate_weight_space,
    weight_space_dimension_formula,
)
from gaudin.rational_linalg import rank
from gaudin.singular import singular_dimension
from gaudin.hamiltonians import _exact_family
from gaudin.sl2 import _apply, _form, _lowering_map, _raising_gathers, _shapovalov_norms, _weights_of

from conftest import random_spec, sentinel_gather, sentinel_scatter


# the public entry points that read a level m, each called at m on a spec with z = (0, 1, 3)
ROOTS = [0.5 + 0.5j, 2.0 + 0.5j]
AT_LEVEL = {
    "verify_family": lambda spec, m: gaudin.verify_family(spec, m),
    "build_hamiltonian": lambda spec, m: gaudin.build_hamiltonian(spec, 0, m),
    "hamiltonian_array": lambda spec, m: gaudin.hamiltonian_array(spec.weights, [0, 1, 3], 0, m),
    "build_site_operator": lambda spec, m: build_site_operator("F", 0, spec, m),
    "build_total_generator": lambda spec, m: build_total_generator("E", spec, m),
    "independent_count": lambda spec, m: gaudin.independent_count(spec, m),
    "verify_solution": lambda spec, m: gaudin.verify_solution(spec, m, SimpleNamespace(roots=np.array(ROOTS))),
    "singular_basis_gordan": lambda spec, m: gaudin.singular_basis_gordan(spec, m),
    "build_eigenbasis": lambda spec, m: gaudin.build_eigenbasis(spec, m),
    "solve_bethe": lambda spec, m: gaudin.solve_bethe(spec, m),
    "solve_bethe_numeric": lambda spec, m: gaudin.solve_bethe_numeric(spec.weights, np.array([0, 1, 3], complex), m),
    "bethe_residual": lambda spec, m: gaudin.bethe_residual(spec, m, ROOTS),
}


def apply_site_generator(gen: str, site: int, state: tuple[int, ...], weights):
    """Act with E, F or H on one tensor factor of a basis state: the walked reference of the builders.

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: singular_dimension((2.5, 3), 1),
            lambda: enumerate_weight_space((1.7, 2), 1),
            lambda: enumerate_weight_space((0, 3), 1),
            lambda: enumerate_weight_space((-1, 2), 1),
            lambda: _weights_of((1, "2")),
        ],
        ids=["fractional-singular-dimension", "fractional-enumerate", "zero-weight", "negative-weight", "string-weight"],
    )
    def test_bare_weights_follow_the_spec_rule(self, call):
        # bare weight tuples are checked as ModelSpec checks its weights, not truncated by int()
        with pytest.raises(ValueError):
            call()

    def test_integral_float_weights_read_as_ints(self):
        assert _weights_of((2.0, 3)) == (2, 3) == ModelSpec((2.0, 3), (0, 1)).weights


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

    def test_a_float_level_is_refused_also_after_its_integer(self):
        # the cache keys (weights, 1.0) and (weights, 1) are equal, so m is read by operator.index first
        space = enumerate_weight_space((1, 2), 1)
        assert enumerate_weight_space((1, 2), np.int64(1)) is space
        with pytest.raises(ValueError):
            enumerate_weight_space((1, 2), 1.0)
        spec = ModelSpec((2, 3, 3, 4), (0, 1, 2, 3))
        assert singular_dimension(spec, 2) == 6
        with pytest.raises(ValueError):
            diagonalize_singular(spec, 2.0)
        with pytest.raises(ValueError):
            singular_dimension(spec, 2.5)

    @pytest.mark.parametrize("name", sorted(AT_LEVEL))
    def test_every_entry_point_refuses_a_float_level(self, name):
        # m = 2.0 is refused before and after the call at m = 2, whose cache entries share its key
        spec = ModelSpec((2, 2, 3), (0, 1, 3))
        with pytest.raises(ValueError):
            AT_LEVEL[name](spec, 2.0)
        AT_LEVEL[name](spec, 2)
        with pytest.raises(ValueError):
            AT_LEVEL[name](spec, 2.0)

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

    def test_spec_and_weight_list_give_the_identical_space(self):
        # a space equals only itself: the cache gives one object per (weights, m)
        spec = ModelSpec((2, 1, 3), (0, 1, 2))
        for m in range(spec.total_weight + 1):
            space = enumerate_weight_space(spec, m)
            assert space is enumerate_weight_space([2, 1, 3], m)
            assert space == enumerate_weight_space((2.0, 1, 3), m)
        assert enumerate_weight_space((2, 1, 3), 1) != enumerate_weight_space((1, 2, 3), 1)

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
            assert len(op.entries()) == (dim if expected != 0 else 0)

    def test_raising_on_vacuum_is_zero_map(self):
        op = build_total_generator("E", ModelSpec((2, 3), (0, 1)), 0)
        assert (op.rows, op.dim) == (0, 1)
        assert op.entries() == []

    def test_lowering_at_top_is_zero_map(self):
        spec = ModelSpec((1, 1), (0, 1))
        op = build_total_generator("F", spec, 2)
        assert (op.rows, op.dim) == (0, 1)
        assert op.entries() == []

    def test_equal_weight_singular_combination(self):
        # hand application: E (F^(1) - F^(2)) v_0 = (lam_1 - lam_2) v_0 = 0
        spec = ModelSpec((1, 1), (0, 1))
        raise_e = build_total_generator("E", spec, 1)
        space = enumerate_weight_space(spec, 1)
        vec = [Fraction(0)] * space.dim
        vec[space.index[(1, 0)]] = Fraction(1)
        vec[space.index[(0, 1)]] = Fraction(-1)
        assert list(raise_e.apply(vec)) == [Fraction(0)]

    def test_commutation_relation(self, rng):
        # [E, F] = H on every level, exact on dense int matrices
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            def total(gen, m):
                return build_total_generator(gen, spec, m).to_array(object)

            for m in range(spec.total_weight + 1):
                acc = -total("H", m)
                if m < spec.total_weight:
                    acc += total("E", m + 1) @ total("F", m)
                if m >= 1:
                    acc -= total("F", m - 1) @ total("E", m)
                assert not acc.any()

    def test_lowering_injective_in_regime(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(1, spec.min_weight + 1):
                op = build_total_generator("F", spec, m - 1)
                assert rank(op.to_array(object).tolist()) == op.dim


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


def walked_array(walked, shape):
    """The dense object matrix of Python ints with the walked entries {(row, col): value}."""
    out = np.zeros(shape, dtype=object)
    for key, value in walked.items():
        out[key] = value
    return out


class TestBuildersFromIndexMaps:
    def test_every_generator_matches_the_site_action(self, rng):
        # a lam = 1 site truncates every level above 1; E on V_0 and F on the
        # top level are the zero maps into the empty space
        for _ in range(6):
            weights = (1,) + random_spec(rng, n_max=4, lam_max=3).weights
            for m in range(sum(weights) + 1):
                dim = enumerate_weight_space(weights, m).dim
                vec = [int(x) for x in rng.integers(-5, 6, size=dim)]
                for gen, step in (("E", -1), ("F", 1), ("H", 0)):
                    rows = enumerate_weight_space(weights, m + step).dim if 0 <= m + step <= sum(weights) else 0
                    ops = [(build_total_generator(gen, weights, m), range(len(weights)))]
                    ops += [(build_site_operator(gen, k, weights, m), [k]) for k in range(len(weights))]
                    for op, sites in ops:
                        walked = walked_entries(gen, sites, weights, m)
                        entries = {(row, col): value for row, col, value in op.entries()}
                        assert entries == walked
                        assert all(type(value) is int for value in entries.values())
                        assert (op.rows, op.dim, op.denominator) == (rows, dim, 1)
                        want = walked_array(walked, (rows, dim))
                        exact = op.to_array(object)
                        assert exact.shape == (rows, dim)
                        assert all(type(value) is int for value in exact.flat)
                        assert np.array_equal(exact, want)
                        for dtype in (float, complex):
                            arr = op.to_array(dtype)
                            assert arr.dtype == dtype and np.array_equal(arr, want.astype(dtype))
                        image = op.apply(vec)
                        assert all(type(value) is int for value in image)
                        assert list(image) == list(want.dot(np.array(vec, dtype=object)))
                        assert np.array_equal(op.apply(np.array(vec, dtype=float)), want.astype(float) @ vec)

    def test_boundary_maps_have_no_rows(self):
        # E on V_0 is (0, 1) and F on the top level (0, dim): empty arrays of the right shape
        weights = (2, 1, 3)
        top = sum(weights)
        for op, shape in ((build_total_generator("E", weights, 0), (0, 1)),
                          (build_site_operator("E", 1, weights, 0), (0, 1)),
                          (build_total_generator("F", weights, top), (0, 1)),
                          (build_total_generator("F", weights, top - 1), (1, 3)),
                          (build_site_operator("F", 0, weights, top - 1), (1, 3))):
            for dtype in (float, complex, object):
                assert op.to_array(dtype).shape == shape
            assert op.apply([1] * shape[1]).shape == (shape[0],)

    def test_builders_are_cached_and_read_only(self):
        op = build_total_generator("E", (2, 1, 3), 2)
        assert op is build_total_generator("E", ModelSpec((2, 1, 3), (0, 1, 2)), 2)
        for array in (op.src, op.coef, op.cols, op.values, op.start):
            assert not array.flags.writeable

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
                raise_e = build_total_generator("E", spec, m).to_array(object).tolist()
                lower_f = build_total_generator("F", spec, m - 1).to_array(object).tolist()
                below = _shapovalov_norms(spec.weights, m - 1)
                norms = _shapovalov_norms(spec.weights, m)
                for r, row in enumerate(raise_e):
                    for c, value in enumerate(row):
                        assert value * below[r] == lower_f[c][r] * norms[c]


class TestSparseOperator:
    def test_apply_matches_dense(self, rng):
        spec = random_spec(rng, n_max=4, lam_max=3)
        f_op = build_total_generator("F", spec, 0)
        image = f_op.apply([Fraction(3, 7)])
        assert np.allclose(
            [float(x) for x in image], f_op.to_array() @ np.array([3 / 7])
        )

    def test_apply_rejects_a_wrong_length(self):
        with pytest.raises(ValueError):
            build_total_generator("F", (1, 1), 0).apply([1, 2])

    def test_denominator_divides_exactly(self):
        # X_0 = [[1, 2], [0, 3]] / 6 and X_1 = [[0, 0], [5, 0]] / 6 from two gather terms
        src = np.array([[[0, 1], [2, 0]], [[1, 2], [2, 2]]])
        coef = np.array([[[1, 3], [0, 5]], [[2, 0], [0, 0]]], dtype=object)
        op = SparseOperator(src, coef, 2, 6)
        assert op.entries() == [(0, 0, Fraction(1, 6)), (0, 1, Fraction(1, 3)), (1, 1, Fraction(1, 2))]
        assert op.entries(1) == [(1, 0, Fraction(5, 6))]
        assert op.to_array(object).tolist() == [[Fraction(1, 6), Fraction(1, 3)], [0, Fraction(1, 2)]]
        assert np.array_equal(op.to_array(float, 1), [[0.0, 0.0], [5 / 6, 0.0]])
        assert list(op.apply([6, -1])) == [Fraction(2, 3), Fraction(-1, 2)]
        assert np.allclose(op.apply(np.array([6.0, -1.0])), [2 / 3, -1 / 2])
        # the checks read the integer parts: row sums and residues ignore the denominator
        assert op.rowsums == [3, 5]
        assert op.residue(7).tolist() == [1, 2, 3, 5] and op.residue(5).tolist() == [1, 2, 3, 0]
        assert op.residue(5).dtype == np.int32 and op.residue(5) is op.residue(5)
        assert op.residue(2**64).tolist() == [1, 2, 3, 5]

    @pytest.mark.parametrize("values, wrapped, dtype", [
        ((2**62, 2**62), (2**62, 2**62), np.int64),
        ((-1, -(2**63)), (2**64 - 1, 2**63), np.int64),
        ((2**70 - 1, -(2**64) - 5), (2**64 - 1, 2**64 - 5), object),
    ])
    def test_wrapped_values_and_row_sums_past_int64(self, values, wrapped, dtype):
        # the values modulo 2^64 are the bits of int64 values read as uint64, or Python ints reduced; a
        # row sum of |values| at 2^63 or more is taken in Python ints, not wrapped
        op = SparseOperator(np.array([[[0]], [[1]]]), np.array(values, dtype=dtype).reshape(2, 1, 1), 2)
        assert op.residue(2**64).dtype == np.uint64 and op.residue(2**64).tolist() == list(wrapped)
        assert op.rowsums == [sum(map(abs, values))]


def blocks(rng, dim, width):
    """A float64, complex128, int64 and object block of shape (dim, width); the floats hold exact zeros of both
    signs, the object block Python ints past int64."""
    real = rng.standard_normal((dim, width))
    real[rng.random((dim, width)) < 0.3] = 0.0
    real[rng.random((dim, width)) < 0.3] = -0.0
    ints = rng.integers(-5, 6, (dim, width))
    return [real, real + 1j * rng.standard_normal((dim, width)), ints, ints.astype(object) * 2**70 + 1]


def assert_same(got, want):
    """Same dtype and shape; equal bits once each float zero is made +0.0, equal values of equal types otherwise."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype.kind in "fc":
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    else:
        assert (got == want).all() and [type(x) for x in got.flat] == [type(x) for x in want.flat]


def assert_columns_alone(form, vecs, got, scale=None):
    """Each column of vecs applied alone gives its column of the batch: bit for bit, or equal objects."""
    for c in range(vecs.shape[1]):
        alone = _apply(form, vecs[:, c : c + 1], scale=None if scale is None else scale[:, c : c + 1])
        column = np.ascontiguousarray(got[:, c : c + 1])
        assert (alone == column).all() if got.dtype == object else alone.tobytes() == column.tobytes()


class TestApply:
    """_apply on the present entries of F and E against the gather of every term, absent ones reading a zero row."""

    def specs(self, rng):
        return [random_spec(rng, n_max=5, lam_max=3) for _ in range(4)] + [ModelSpec((1, 1), (0, 1)),
                                                                         ModelSpec((1, 3, 2), (0, 1, -2))]

    def test_lowering_matches_the_sentinel_gather(self, rng):
        for spec in self.specs(rng):
            n = spec.n_sites
            for m in range(spec.total_weight + 1):
                form, src = _form("F", spec.weights, m), _lowering_map(spec.weights, m).T
                for vecs in blocks(rng, enumerate_weight_space(spec, m).dim, 3):
                    got = _apply(form, vecs)
                    want = sentinel_gather(vecs, src, np.ones((n, 1, 1), dtype=np.int64))
                    assert_same(got, want)
                    assert_columns_alone(form, vecs, got)
                    w = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
                    scale = 1.0 / (w - np.arange(n)[:, None])
                    got = _apply(form, vecs, scale=scale)
                    assert_same(got, sentinel_gather(vecs, src, scale[:, None]))
                    assert_columns_alone(form, vecs, got, scale=scale)

    def test_raising_matches_the_sentinel_gather(self, rng):
        for spec in self.specs(rng):
            for m in range(spec.total_weight + 1):
                form, (src, coef) = _form("E", spec.weights, m), _raising_gathers(spec.weights, m)
                for vecs in blocks(rng, enumerate_weight_space(spec, m).dim, 3):
                    got = _apply(form, vecs)
                    want = sentinel_gather(vecs, src, coef[..., None])
                    assert_same(got, want)
                    assert_columns_alone(form, vecs, got)

    def test_forms_are_cached_and_read_only(self):
        for gen in "FE":
            form = _form(gen, (2, 1, 3), 2)
            assert _form(gen, (2, 1, 3), 2) is form
            for array in form[:4]:
                if array is not None:
                    assert not array.flags.writeable
        assert _form("F", (2, 1, 3), 2)[2] is None and _form("E", (2, 1, 3), 2)[2].dtype == np.int64

    def test_sparse_operators_match_the_sentinel_gather(self, rng):
        # the exact families hold negative entries, build_hamiltonian a denominator, and E absent entries
        for spec in self.specs(rng)[:3]:
            for m in range(spec.total_weight + 1):
                dim = enumerate_weight_space(spec, m).dim
                ops = (_exact_family(spec, m), gaudin.build_hamiltonian(spec, 0, m), build_total_generator("E", spec, m))
                for op in ops:
                    for b in range(op.src.shape[1]):
                        dense = sentinel_scatter(op.src[:, b], op.coef[:, b], dim, object) * Fraction(1, op.denominator)
                        assert op.to_array(object, b).tolist() == dense.tolist()
                        vec = rng.standard_normal(dim)
                        want = sentinel_gather(vec[:, None], op.src[:, b], op.coef[:, b, :, None])[:, 0]
                        want = want / op.denominator
                        assert_same(op.apply(vec, b), want)
                        ints = [int(x) for x in rng.integers(-9, 10, dim)]
                        assert list(op.apply(ints, b)) == list(dense @ np.array(ints, dtype=object))
