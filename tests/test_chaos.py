import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosdet import _kernels
from chaosdet.chaos import (
    ChaosExpansion,
    GaussianSample,
    _philox,
    eval_arrays,
    eval_integral,
    expectation_of_product,
    hermite,
    product,
    sample,
)
from chaosdet.malliavin import ChaosPair, det_lambda_at
from chaosdet.montecarlo import estimate_edet
from chaosdet.tensors import SymTensor, inner, random_sym_tensor, random_unit_tensor

from dense_reference import dense_eval, sym_to_dense


class TestHermite:
    def test_degree_zero(self):
        for x in (-3.0, 0.0, 2.5):
            assert hermite(0, x) == 1

    def test_low_degrees(self):
        x = 1.7
        assert hermite(2, x) == pytest.approx(x**2 - 1)
        assert hermite(3, x) == pytest.approx(x**3 - 3 * x)

    def test_degree_four_at_two(self):
        assert hermite(4, 2.0) == pytest.approx(2**4 - 6 * 2**2 + 3) == -5

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    def test_derivative_recurrence(self):
        # H_n'(x) = n H_{n-1}(x), by central finite differences
        h = 1e-6
        for n in range(1, 7):
            for x in np.linspace(-2, 2, 9):
                numeric = (hermite(n, x + h) - hermite(n, x - h)) / (2 * h)
                assert numeric == pytest.approx(n * hermite(n - 1, x), abs=1e-4)

    def test_exact_arguments(self):
        assert hermite(3, Fraction(1, 2)) == Fraction(1, 8) - Fraction(3, 2)


class TestEvalIntegral:
    def test_power_tensor_gives_hermite(self):
        for n in range(1, 5):
            f = SymTensor.basis_power(2, 0, n)
            x = 0.83
            s = GaussianSample((x, -1.2))
            assert eval_integral(f, s) == pytest.approx(hermite(n, x))

    def test_symmetrized_pair_gives_product(self):
        f = SymTensor(2, 2, {(1, 1): 0.5})
        s = GaussianSample((1.3, -0.7))
        assert eval_integral(f, s) == pytest.approx(1.3 * -0.7)

    def test_zero_tensor(self):
        z = SymTensor(3, 2)
        assert eval_integral(z, sample(0, 3)) == 0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            eval_integral(SymTensor(3, 2), GaussianSample((0.0, 0.0)))

    def test_matches_dense_oracle(self):
        for seed in range(5):
            f = random_sym_tensor(seed, 2, 3)
            s = sample(seed, 2)
            dense = dense_eval(sym_to_dense(f), s.xi)
            assert eval_integral(f, s) == pytest.approx(dense, rel=1e-10)

    def test_batch_matches_scalar(self):
        f = random_sym_tensor(3, 3, 3)
        xs = np.asarray([sample(s, 3).xi for s in range(20)])
        batch = _kernels.eval_many(*eval_arrays(f), xs)
        for row, x in zip(batch, xs):
            assert row == pytest.approx(eval_integral(f, GaussianSample(tuple(x))))


def constant(dim, value):
    return ChaosExpansion(dim, {0: SymTensor(dim, 0, {(0,) * dim: value})})


def eval_expansion(x, s):
    return sum(eval_integral(t, s) for t in x.terms.values())


class TestProduct:
    def test_first_order_square(self):
        x = ChaosExpansion.of(SymTensor.basis_power(2, 0, 1))
        p = product(x, x)
        # H_1(x)^2 = H_2(x) + 1
        assert p.terms[2].get((2, 0)) == 1
        assert p.terms[0].get((0, 0)) == 1
        assert p.orders() == [0, 2]

    def test_constant_scales(self):
        f = random_sym_tensor(1, 2, 2)
        assert product(constant(2, 2.5), ChaosExpansion.of(f)) == ChaosExpansion.of(f.scale(2.5))

    def test_pointwise_multiplicativity(self):
        for d, n, m in [(2, 2, 2), (3, 2, 3), (2, 1, 3), (3, 3, 3)]:
            x = ChaosExpansion.of(random_sym_tensor(d * 10 + n, d, n))
            y = ChaosExpansion.of(random_sym_tensor(d * 10 + m + 50, d, m))
            p = product(x, y)
            for j in range(100):
                s = sample(j, d)
                lhs = eval_expansion(x, s) * eval_expansion(y, s)
                assert eval_expansion(p, s) == pytest.approx(lhs, rel=1e-9, abs=1e-11)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            product(constant(2, 1.0), constant(3, 1.0))


class TestExpectation:
    def test_pure_integrals_are_centered(self):
        for n in range(1, 4):
            x = ChaosExpansion.of(random_sym_tensor(n, 2, n))
            assert x.expectation() == 0

    def test_isometry(self):
        for d in (2, 3, 4):
            for n in (1, 2, 3, 4):
                f = random_sym_tensor(d * 100 + n, d, n)
                g = random_sym_tensor(d * 100 + n + 7, d, n)
                p = product(ChaosExpansion.of(f), ChaosExpansion.of(g))
                assert p.expectation() == pytest.approx(
                    math.factorial(n) * inner(f, g), rel=1e-10
                )

    def test_cross_order_orthogonality_is_exact(self):
        # distinct orders cannot produce an order-0 term at all
        f = random_sym_tensor(0, 3, 2)
        g = random_sym_tensor(1, 3, 3)
        p = product(ChaosExpansion.of(f), ChaosExpansion.of(g))
        assert 0 not in p.orders()
        assert p.expectation() == 0


@st.composite
def int_expansions(draw, dim):
    """Mixed-order expansions with integer coefficients, orders 0..3."""
    orders = draw(st.sets(st.integers(0, 3), max_size=3))
    return ChaosExpansion(
        dim,
        {k: random_sym_tensor(draw(st.integers(0, 10_000)), dim, k, dist="int") for k in orders},
    )


class TestExpectationOfProduct:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.integers(min_value=1, max_value=3))
    def test_equals_order_zero_of_product(self, data, dim):
        x = data.draw(int_expansions(dim))
        y = data.draw(int_expansions(dim))
        assert expectation_of_product(x, y) == product(x, y).expectation()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            expectation_of_product(constant(2, 1), constant(3, 1))
        with pytest.raises(TypeError):
            expectation_of_product(constant(2, 1), 1)


class TestSampling:
    def test_sample_determinism(self):
        assert sample(7, 3) == sample(7, 3)
        assert sample(7, 3) != sample(8, 3)

    def test_chunks_cover_and_repeat(self):
        # the Monte Carlo chunk loop draws chunk c from the Philox stream
        # keyed by (seed, c), the last chunk holding the remainder
        pair = ChaosPair(random_unit_tensor(0, 2, 2), random_unit_tensor(1, 2, 2))
        est = estimate_edet(pair, 10000, seed=5, chunk_size=4096)
        dets = [
            det_lambda_at(pair, GaussianSample(tuple(x))).gram
            for c, take in enumerate([4096, 4096, 1808])
            for x in _philox(5, c).standard_normal((take, 2))
        ]
        assert est.n_samples == len(dets) == 10000
        assert est.mean == pytest.approx(sum(dets) / len(dets), rel=1e-10)
        assert estimate_edet(pair, 10000, seed=5, chunk_size=4096) == est

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            sample(-1, 2)

    def test_seed_is_one_64_bit_word(self):
        # Philox keys hold the seed in one uint64: the top seed draws,
        # the next one is a ValueError rather than numpy's OverflowError
        assert sample(2**64 - 1, 2) != sample(0, 2)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample(2**64, 2)
