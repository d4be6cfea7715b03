import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosdet import _kernels
from chaosdet.chaos import (
    DEFAULT_CHUNK_SIZE,
    GaussianSample,
    _philox,
    eval_arrays,
    eval_integral,
    hermite,
)
from chaosdet.tensors import random_sym_tensor

from dense_reference import eval_many_loop


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestHermiteTable:
    def test_matches_scalar_recurrence(self):
        x = np.linspace(-3, 3, 11).reshape(-1, 1)
        table = _kernels.hermite_table(6, x)
        for k in range(7):
            for t, xv in enumerate(x[:, 0]):
                assert table[k, t, 0] == pytest.approx(hermite(k, float(xv)))

    def test_order_zero_only(self):
        x = np.ones((4, 2))
        table = _kernels.hermite_table(0, x)
        np.testing.assert_array_equal(table, np.ones((1, 4, 2)))

    @pytest.mark.parametrize("max_order", range(7))
    def test_transposed_input_gives_transposed_bits(self, max_order):
        x = _philox(3, 0).standard_normal((37, 5)) * 3.0
        by_sample = _kernels.hermite_table(max_order, x)
        by_slot = _kernels.hermite_table(max_order, x.T)
        assert by_slot.shape == (max_order + 1, 5, 37)
        np.testing.assert_array_equal(bits(by_slot), bits(by_sample.transpose(0, 2, 1)))


@st.composite
def kernel_inputs(draw):
    """(occ, weights, samples) as one chunk of the Monte Carlo loop sees them."""
    dim = draw(st.integers(1, 7))
    order = draw(st.integers(0, 6))
    n_coeffs = draw(st.integers(1, 10))
    occ = np.array(
        draw(st.lists(st.lists(st.integers(0, order), min_size=dim, max_size=dim),
                      min_size=n_coeffs, max_size=n_coeffs)),
        dtype=np.int64,
    )
    # an all-zero row is the constant coefficient, where every factor is H_0
    if draw(st.booleans()):
        occ[draw(st.integers(0, n_coeffs - 1))] = 0
    weight = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    weights = np.array(draw(st.lists(weight, min_size=n_coeffs, max_size=n_coeffs)))
    # a 1-row chunk, short chunks and a partial chunk of the default size
    take = draw(st.sampled_from([1, 2, 3, 17, DEFAULT_CHUNK_SIZE - 1]) | st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    samples = _philox(seed, draw(st.integers(0, 3))).standard_normal((take, dim))
    return occ, weights, samples * draw(st.sampled_from([1.0, 4.0]))


class TestEvalMany:
    def test_matches_scalar_evaluation(self):
        f = random_sym_tensor(0, 3, 3)
        occ, weights = eval_arrays(f)
        samples = np.random.default_rng(1).standard_normal((50, 3))
        batch = _kernels.eval_many(occ, weights, samples)
        for row, x in zip(batch, samples):
            expected = eval_integral(f, GaussianSample(tuple(x)))
            assert row == pytest.approx(expected, rel=1e-12)

    def test_empty_tensor(self):
        occ = np.zeros((0, 2), dtype=np.int64)
        weights = np.zeros(0)
        samples = np.ones((5, 2))
        np.testing.assert_array_equal(
            _kernels.eval_many(occ, weights, samples), np.zeros(5)
        )

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs())
    def test_bits_match_the_loop_reference(self, inputs):
        occ, weights, samples = inputs
        np.testing.assert_array_equal(
            bits(_kernels.eval_many(occ, weights, samples)),
            bits(eval_many_loop(occ, weights, samples)),
        )
