import math
from fractions import Fraction

import numpy as np
import pytest

from gaudin import (
    GordanSingularityError,
    ModelSpec,
    UnsupportedRegimeError,
    apply_P,
    build_total_generator,
    compositions,
    enumerate_weight_space,
    gordan_coefficients,
    pochhammer,
    singular_basis_gordan,
    singular_basis_kernel,
    singular_dimension,
    singular_dimension_formula,
)
from gaudin import singular
from gaudin.rational_linalg import rank
from gaudin.sl2 import SparseOperator

from conftest import random_spec
from test_rational_linalg import reference_kernel


def coefficients_by_recurrence(m, lam1, lam2):
    """Independent oracle: solve the two-site singularity conditions

        c_{k+1} (k+1) (k - lam1) + c_k (m-k) (m-k-1-lam2) = 0,  c_0 = 1,

    forward, which is exactly the requirement that sum_k c_k F^k v (x) F^{m-k} v
    be annihilated by the total raising operator.
    """
    coeffs = [Fraction(1)]
    for k in range(m):
        num = Fraction((m - k) * (m - k - 1 - lam2))
        den = Fraction((k + 1) * (k - lam1))
        coeffs.append(-coeffs[k] * num / den)
    return coeffs


def annihilated_exactly(weights, m, vector):
    raise_e = build_total_generator("E", weights, m)
    return not raise_e.apply(vector).any()


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(7, 3), 0) == 1

    def test_rising_factorial(self):
        assert pochhammer(-2, 2) == 2  # (-2)(-1)
        assert pochhammer(3, 3) == 60  # 3*4*5
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


class TestGordanCoefficients:
    def test_m1_equal_weights(self):
        assert gordan_coefficients(1, 1, 1).coeffs == (1, -1)

    def test_m0_is_trivial(self):
        assert gordan_coefficients(0, 5, 3).coeffs == (Fraction(1),)

    def test_m2_matches_recurrence_oracle(self):
        expected = tuple(coefficients_by_recurrence(2, 2, 2))
        assert expected == (1, -1, 1)
        assert gordan_coefficients(2, 2, 2).coeffs == expected

    def test_closed_form_satisfies_recurrence(self, rng):
        for _ in range(20):
            m = int(rng.integers(0, 5))
            lam1 = int(rng.integers(m, m + 5))
            lam2 = int(rng.integers(1, 7))
            coeffs = gordan_coefficients(m, lam1, lam2).coeffs
            assert coeffs[0] == 1
            for k in range(m):
                assert (
                    coeffs[k + 1] * (k + 1) * (k - lam1)
                    + coeffs[k] * (m - k) * (m - k - 1 - lam2)
                    == 0
                )

    def test_small_left_weight_rejected(self):
        with pytest.raises(GordanSingularityError):
            gordan_coefficients(3, 2, 5)


class TestApplyP:
    def test_k0_is_identity_embedding(self):
        spec = ModelSpec((2, 2), (0, 1))
        out = apply_P(spec, 0, [Fraction(1)], 0)
        assert out == [Fraction(1)]

    def test_two_site_derived_example(self):
        # v (x) Fv - Fv (x) v for weights (1, 1); states (0,1), (1,0)
        out = apply_P((1, 1), 1, [Fraction(1)], 1)
        assert out == [Fraction(1), Fraction(-1)]
        assert annihilated_exactly((1, 1), 1, out)

    def test_three_site_derived_example(self):
        # u = v (x) v, k=1, mu=2: v(x)v(x)Fv - (1/2)(Fv(x)v + v(x)Fv)(x)v
        out = apply_P((1, 1, 1), 1, [Fraction(1)], 1)
        space = enumerate_weight_space((1, 1, 1), 1)
        expected = {
            (0, 0, 1): Fraction(1),
            (0, 1, 0): Fraction(-1, 2),
            (1, 0, 0): Fraction(-1, 2),
        }
        assert out == [expected[s] for s in space.states]
        assert annihilated_exactly((1, 1, 1), 1, out)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            apply_P((1, 1), 1, [Fraction(0)], 1)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            apply_P((1, 1), 1, [Fraction(1), Fraction(1)], 1)


class TestCompositions:
    def test_explicit_listing(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_count_is_binomial(self):
        assert len(list(compositions(3, 4))) == math.comb(3 + 3, 3)

    def test_counting_identity(self):
        # sum_k C(m-k+N-2, m-k) = C(m+N-1, m)
        for n in range(2, 6):
            for m in range(0, 5):
                total = sum(math.comb(m - k + n - 2, m - k) for k in range(m + 1))
                assert total == math.comb(m + n - 1, m)


class TestGordanBasis:
    def test_two_site_unique_vector(self):
        for m in (0, 1, 2):
            basis = singular_basis_gordan((2, 2), m)
            assert basis.count == 1

    def test_three_site_count(self):
        for m in (0, 1, 2, 3):
            basis = singular_basis_gordan((3, 3, 3), m)
            assert basis.count == m + 1

    def test_four_site_count(self):
        basis = singular_basis_gordan((2, 2, 2, 2), 2)
        assert basis.count == 6 == singular_dimension_formula(4, 2)

    def test_vectors_annihilated_exactly(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.min_weight + 1):
                basis = singular_basis_gordan(spec, m)
                for vec in basis.vectors:
                    assert annihilated_exactly(spec.weights, m, vec)

    def test_linear_independence(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            m = spec.min_weight
            basis = singular_basis_gordan(spec, m)
            assert rank([list(v) for v in basis.vectors]) == basis.count
            assert basis.count == singular_dimension_formula(spec.n_sites, m)

    def test_span_matches_kernel(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.min_weight + 1):
                gordan = singular_basis_gordan(spec, m)
                kernel = singular_basis_kernel(spec, m)
                stacked = [list(v) for v in gordan.vectors] + [
                    list(v) for v in kernel.vectors
                ]
                expected = singular_dimension_formula(spec.n_sites, m)
                assert kernel.count == expected
                assert rank(stacked) == expected

    def test_three_site_recurrence_conditions(self):
        # trilinear singularity conditions on the coefficient array c_{k1 k2}
        weights = (3, 2, 2)
        m = 2
        space = enumerate_weight_space(weights, m)
        for vec in singular_basis_gordan(weights, m).vectors:
            def c(k1, k2):
                return vec[space.index[(k1, k2, m - k1 - k2)]]

            for k1 in range(m):
                for k2 in range(m - k1):
                    lhs = (
                        c(k1 + 1, k2) * (k1 + 1) * (k1 - weights[0])
                        + c(k1, k2 + 1) * (k2 + 1) * (k2 - weights[1])
                        + c(k1, k2)
                        * (m - k1 - k2)
                        * (m - k1 - k2 - 1 - weights[2])
                    )
                    assert lhs == 0

    def test_unsupported_regime_raises(self):
        with pytest.raises(UnsupportedRegimeError):
            singular_basis_gordan((1, 3), 2)


def fraction_apply_P(weights, k, u, m):
    """Independent oracle: one adjoin step in Fractions through the sparse total F."""
    prefix, lam_last = weights[:-1], weights[-1]
    degree = m - k
    coeffs = gordan_coefficients(k, sum(prefix) - 2 * degree, lam_last).coeffs
    target = enumerate_weight_space(weights, m)
    out = [Fraction(0)] * target.dim
    cur = [Fraction(x) for x in u]
    for j in range(k + 1):
        if k - j <= lam_last:
            states = enumerate_weight_space(prefix, degree + j).states
            for state, val in zip(states, cur):
                out[target.index[state + (k - j,)]] += coeffs[j] * val
        if j < k:
            cur = build_total_generator("F", prefix, degree + j).apply(cur)
    return out


def gordan_by_composition(weights, m):
    """Labels and vectors folded composition by composition, one adjoin step per part."""
    labels, vectors = [], []
    for comp in compositions(m, len(weights) - 1):
        u = [Fraction(1)]
        degree = 0
        for j in range(2, len(weights) + 1):
            degree += comp[j - 2]
            u = fraction_apply_P(weights[:j], comp[j - 2], u, degree)
        labels.append(comp)
        vectors.append(tuple(u))
    return tuple(labels), tuple(vectors)


# N = 2, lambda = 1, m = min(weights) and unequal weights
TREE_SPECS = [
    ((1, 1), 0),
    ((1, 1), 1),
    ((1, 2, 3, 4), 0),
    ((1, 2, 3, 4), 1),
    ((2, 3, 3, 4), 2),
    ((3, 3, 3), 3),
    ((4,) * 5, 4),
    ((3,) * 7, 3),
]


class TestGordanPrefixTree:
    @pytest.mark.parametrize("weights, m", TREE_SPECS)
    def test_equals_composition_by_composition(self, weights, m):
        basis = singular_basis_gordan(weights, m)
        labels, vectors = gordan_by_composition(weights, m)
        assert basis.labels == labels
        assert basis.vectors == vectors
        assert all(type(x) is Fraction for vec in basis.vectors for x in vec)

    @pytest.mark.parametrize("weights, m", TREE_SPECS)
    def test_adjoin_runs_once_per_prefix_node(self, weights, m, monkeypatch):
        """One adjoin per (depth, degree) group, and each prefix node's vector formed once, counted in columns."""
        calls = []
        adjoin = singular._adjoin

        def counted(weights, degree, block, ks):
            out = adjoin(weights, degree, block, ks)
            calls.append((len(weights), degree, block.shape[1], sum(w.shape[1] for _, w, _ in out)))
            return out

        monkeypatch.setattr(singular, "_adjoin", counted)
        singular_basis_gordan(weights, m)
        n = len(weights)
        # depth 1 holds the root at degree 0; each deeper prefix depth holds degrees 0..m
        assert len(calls) == len({call[:2] for call in calls}) == 1 + (n - 2) * (m + 1)
        nodes = math.comb(m + n - 1, m + 1)  # prefix nodes, the root included
        assert sum(call[2] for call in calls) == nodes
        # every node below the root, the C(m + n - 2, m) leaves included, is formed once
        assert sum(call[3] for call in calls) == nodes - 1 + math.comb(m + n - 2, m)
        if (weights, m) == ((3,) * 7, 3):
            # against one adjoin per prefix node, or one per part of each of the C(8, 3) compositions
            assert len(calls) == 21 < nodes == 126 < 336 == (n - 1) * len(list(compositions(m, n - 1)))

    def test_apply_P_matches_the_fraction_step(self, rng):
        for _ in range(40):
            spec = random_spec(rng, n_max=4, lam_max=4)
            m = int(rng.integers(0, spec.min_weight + 1))
            k = int(rng.integers(0, m + 1))
            dim = enumerate_weight_space(spec.weights[:-1], m - k).dim
            u = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 6))) for _ in range(dim)]
            if not any(u):
                u[0] = Fraction(1)
            if sum(spec.weights[:-1]) - 2 * (m - k) < k:
                for step in (apply_P, fraction_apply_P):
                    with pytest.raises(GordanSingularityError):
                        step(spec.weights, k, u, m)
                continue
            assert apply_P(spec, k, u, m) == fraction_apply_P(spec.weights, k, u, m)

    def test_step_past_the_last_weight_vanishes(self):
        # k > lam_N: every coefficient with k - j <= lam_N has a zero numerator
        out = apply_P((3, 1), 2, [Fraction(1)], 2)
        assert out == fraction_apply_P((3, 1), 2, [Fraction(1)], 2) == [0, 0]

    def test_apply_P_rejects_k_outside_0_to_m(self):
        for k in (-1, 2):
            with pytest.raises(ValueError):
                apply_P((2, 2), k, [Fraction(1)], 1)

    def test_coefficients_are_cached(self):
        assert gordan_coefficients(2, 3, 4) is gordan_coefficients(2, 3, 4)


class TestKernelBasis:
    def test_vacuum_level(self):
        basis = singular_basis_kernel((1, 1), 0)
        assert basis.vectors == ((Fraction(1),),)

    def test_two_site_level_one(self):
        basis = singular_basis_kernel((1, 1), 1)
        assert basis.count == 1
        v = basis.vectors[0]
        # spans (1, -1): proportional with opposite-sign entries
        assert v[0] == -v[1] != 0

    def test_truncated_level_is_empty(self):
        basis = singular_basis_kernel((1, 1), 2)
        assert basis.count == 0

    def test_dimension_formula_in_regime(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.min_weight + 1):
                basis = singular_basis_kernel(spec, m)
                assert basis.count == singular_dimension_formula(spec.n_sites, m)

    def test_exact_dimension_counts_the_kernel_at_every_level(self, rng):
        for _ in range(5):
            spec = random_spec(rng, n_max=4, lam_max=3)
            for m in range(spec.total_weight + 1):
                basis = singular_basis_kernel(spec, m)
                assert basis.count == singular_dimension(spec, m) == singular_dimension(spec.weights, m)
                if m <= spec.min_weight:
                    assert basis.count == singular_dimension_formula(spec.n_sites, m)

    def test_exact_dimension_in_the_truncated_regime(self):
        assert singular_dimension((1, 2, 3, 4), 2) == 5 < singular_dimension_formula(4, 2)
        assert singular_dimension((1, 2), 1) == 1
        assert singular_dimension((1, 2), 2) == singular_dimension((1, 2), 3) == 0
        assert singular_dimension((1, 1), 0) == 1

    def test_labels_absent(self):
        assert singular_basis_kernel((2, 2), 1).labels is None


def ballot_states(weights, m):
    """States n of V_m with n_k <= sum_{j<k} (lam_j - 2 n_j) at every site k."""
    return [
        n for n in enumerate_weight_space(weights, m).states
        if all(n[k] <= sum(lam - 2 * x for lam, x in zip(weights[:k], n[:k])) for k in range(len(n)))
    ]


# N = 2, lambda = 1 sites, m > max(weights), the largest weight first or last
EDGE_WEIGHTS = [(1, 1), (1, 3), (4, 1), (1, 1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 3)]


class TestExtremalProjector:
    @pytest.fixture
    def weight_sets(self, rng):
        return EDGE_WEIGHTS + [random_spec(rng, n_max=4, lam_max=3).weights for _ in range(8)]

    def test_every_level_is_an_exact_primitive_kernel_basis(self, weight_sets):
        for weights in weight_sets:
            for m in range(sum(weights) + 1):
                basis = singular_basis_kernel(weights, m)
                assert basis.count == singular_dimension(weights, m)
                assert basis.labels is None
                space = enumerate_weight_space(weights, m)
                raise_e = build_total_generator("E", weights, m)
                states = ballot_states(weights, m)
                assert len(states) == basis.count
                for vec, state in zip(basis.vectors, states):
                    assert all(type(x) is int for x in vec)
                    assert math.gcd(*vec) == 1
                    assert vec[space.index[state]] > 0
                    assert not any(raise_e.apply(list(vec)))
                expected = reference_kernel(raise_e.to_array(object).tolist(), space.dim)
                rows = [list(v) for v in basis.vectors]
                assert rank(rows) == len(expected) == rank(rows + expected)

    def test_ballot_states_are_the_gordan_labels_in_the_regime(self, weight_sets):
        for weights in weight_sets:
            for m in range(min(weights) + 1):
                labels = singular_basis_gordan(weights, m).labels
                assert ballot_states(weights, m) == [(0,) + label for label in labels]

    def test_builds_no_sparse_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sparse operator built by the kernel route")

        monkeypatch.setattr(SparseOperator, "__init__", refuse)
        assert singular_basis_kernel((2, 3, 3, 4), 3).count == singular_dimension((2, 3, 3, 4), 3)
        assert singular_basis_kernel((1,) * 5, 2).count == 5


# the exact-ladder and module-sweep levels of the benchmark
BENCH_LEVELS = [((4,) * 5, range(5)), ((3,) * 7, (3,)), ((2, 3, 3, 4), (2, 3)), ((1, 2, 3, 4), (1, 2))]


@pytest.fixture
def dtypes(monkeypatch):
    """(bound, dtype) of every block the singular routes choose while the test runs."""
    chosen = []
    choose = singular._exact_dtype

    def record(bound):
        chosen.append((bound, choose(bound)))
        return chosen[-1][1]

    monkeypatch.setattr(singular, "_exact_dtype", record)
    return chosen


def exact_types(basis):
    """Kernel entries are Python ints, Gordan entries Fractions of Python ints: no np.int64 anywhere."""
    if basis.labels is None:
        return all(type(x) is int for vec in basis.vectors for x in vec)
    return all(type(x) is Fraction and type(x.numerator) is type(x.denominator) is int
               for vec in basis.vectors for x in vec)


class TestExactBlocks:
    def test_benchmark_levels_run_on_int64(self, dtypes):
        for weights, levels in BENCH_LEVELS:
            for m in levels:
                routes = [singular_basis_kernel] + ([singular_basis_gordan] if m <= min(weights) else [])
                for route in routes:
                    dtypes.clear()
                    assert exact_types(route(weights, m))
                    assert dtypes and all(dtype is np.int64 for _, dtype in dtypes)

    def test_kernel_beyond_62_bits_runs_on_python_ints(self, dtypes):
        weights, m = (20, 20, 20), 20
        basis = singular_basis_kernel(weights, m)
        ((bound, dtype),) = dtypes
        assert dtype is object and bound.bit_length() == 206
        assert exact_types(basis) and basis.count == singular_dimension(weights, m) == 21
        raise_e = build_total_generator("E", weights, m)
        assert all(math.gcd(*vec) == 1 and not any(raise_e.apply(list(vec))) for vec in basis.vectors)
        # independent and annihilated, as many as the exact dimension: the kernel.  reference_kernel
        # takes several seconds at this level, so it checks two smaller levels past 2^62.
        assert rank([list(v) for v in basis.vectors]) == basis.count
        for weights, m in (((20, 20, 20), 8), ((20, 20), 20)):
            dtypes.clear()
            basis = singular_basis_kernel(weights, m)
            assert [dtype for _, dtype in dtypes] == [object] and exact_types(basis)
            expected = reference_kernel(build_total_generator("E", weights, m).to_array(object).tolist(),
                                        enumerate_weight_space(weights, m).dim)
            rows = [list(v) for v in basis.vectors]
            assert rank(rows) == len(expected) == rank(rows + expected)
        gordan = singular_basis_gordan((20, 20, 20), 20)
        assert (gordan.labels, gordan.vectors) == gordan_by_composition((20, 20, 20), 20)

    def test_apply_P_beyond_62_bits_runs_on_python_ints(self, dtypes, rng):
        for _ in range(20):
            spec = random_spec(rng, n_max=4, lam_max=4)
            m = int(rng.integers(0, spec.min_weight + 1))
            k = int(rng.integers(0, m + 1))
            dim = enumerate_weight_space(spec.weights[:-1], m - k).dim
            u = [Fraction(int(rng.integers(1, 5)) * 2**70 + int(rng.integers(-4, 5)), int(rng.integers(1, 6)))
                 for _ in range(dim)]
            dtypes.clear()
            out = apply_P(spec, k, u, m)
            assert [dtype for _, dtype in dtypes] == [object]
            assert out == fraction_apply_P(spec.weights, k, u, m)
            assert all(type(x) is Fraction for x in out)

    def test_python_int_blocks_give_the_same_bases(self, monkeypatch, rng):
        levels = [(w, m) for w in [(3, 3, 3), (2, 3, 3, 4), (1, 1, 1, 1, 1)]
                  + [random_spec(rng, n_max=5, lam_max=3).weights for _ in range(6)]
                  for m in range(min(w) + 1)]
        expected = [(singular_basis_gordan(w, m), singular_basis_kernel(w, m)) for w, m in levels]
        monkeypatch.setattr(singular, "_exact_dtype", lambda bound: object)
        for (w, m), (gordan, kernel) in zip(levels, expected):
            for basis, route in ((gordan, singular_basis_gordan), (kernel, singular_basis_kernel)):
                again = route(w, m)
                assert (again.labels, again.vectors) == (basis.labels, basis.vectors) and exact_types(again)

    def test_bound_covers_every_formed_entry(self, monkeypatch, rng):
        log = []
        monkeypatch.setattr(singular, "_exact_dtype", lambda bound: log.append(("bound", bound)) or object)
        for name in ("_lower", "_gather_sum", "_adjoin"):
            def spy(*args, step=getattr(singular, name)):
                out = step(*args)
                blocks = [w for _, w, _ in out] if isinstance(out, list) else [out]
                log.extend(("entry", int(np.abs(block).max(initial=0))) for block in blocks)
                return out

            monkeypatch.setattr(singular, name, spy)
        # at (2, 2, 4), m = 2 and (4, 4, 5), m = 3 an adjoin without the chain's row sums underestimates
        specs = [(4,) * 5, (1, 2, 3, 4), (20, 20), (2, 2, 4), (4, 4, 5)]
        specs += [random_spec(rng, n_max=5, lam_max=4).weights for _ in range(6)]
        for weights in specs:
            for m in range(min(weights) + 1):
                log.clear()
                kernel = singular_basis_kernel(weights, m)
                singular_basis_gordan(weights, m)
                bound = None
                for kind, value in log:
                    bound = value if kind == "bound" else bound
                    assert value <= bound
                assert all(abs(x) <= log[0][1] for vec in kernel.vectors for x in vec)
