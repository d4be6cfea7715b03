import numpy as np
import pytest

from chaosdet import _kernels
from chaosdet.chaos import GaussianSample, eval_integral, eval_arrays, hermite
from chaosdet.tensors import random_sym_tensor


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
