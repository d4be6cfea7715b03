"""Sample-evaluation kernel for the Monte Carlo route.

The accumulation order (over coefficients, then slots) is part of the
Monte Carlo reproducibility contract: changing it moves result bits.
"""
from __future__ import annotations

import numpy as np


def hermite_table(max_order: int, x: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite values H_0..H_max_order at every entry of x.

    Returns an array of shape (max_order + 1,) + x.shape.
    """
    x = np.asarray(x, dtype=np.float64)
    table = np.empty((max_order + 1,) + x.shape, dtype=np.float64)
    table[0] = 1.0
    if max_order >= 1:
        table[1] = x
    for k in range(2, max_order + 1):
        table[k] = x * table[k - 1] - (k - 1) * table[k - 2]
    return table


def eval_many(occ: np.ndarray, weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Evaluate sum_j weights[j] * prod_i H_{occ[j, i]}(samples[:, i]).

    occ: (n_coeffs, dim) int64, weights: (n_coeffs,) float64,
    samples: (n_samples, dim) float64.  Returns (n_samples,) float64.
    """
    occ = np.asarray(occ, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    n_samples, dim = samples.shape
    out = np.zeros(n_samples, dtype=np.float64)
    if occ.shape[0] == 0:
        return out
    table = hermite_table(int(occ.max()), samples)  # (K, n_samples, dim)
    for j in range(occ.shape[0]):
        term = np.full(n_samples, weights[j])
        for i in range(dim):
            term *= table[occ[j, i], :, i]
        out += term
    return out
