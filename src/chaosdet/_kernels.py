"""Sample-evaluation kernel for the Monte Carlo route.

The accumulation order is part of the Monte Carlo reproducibility
contract: each coefficient's term is its weight times its Hermite
factors in ascending slot order, and the terms are added to the output
in coefficient order.  Rewrites that keep every result bit:

- skipping the H_0 factors, since H_0 = 1 and x * 1.0 == x exactly;
- the layout of the Hermite table, which holds the same values either way;
- fusing the weight into the first factor, since (w * 1.0) * h == w * h.

Rewrites that move result bits, and so break the contract: applying the
weight after the factors instead of before them, reassociating the
products or the sum over coefficients, and handing the sum to BLAS
(a matrix product accumulates in its own order).
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
    n_samples = samples.shape[0]
    out = np.zeros(n_samples, dtype=np.float64)
    if occ.shape[0] == 0:
        return out
    # (K, dim, n_samples): every row the loop reads is contiguous
    table = hermite_table(int(occ.max()), samples.T)
    term = np.empty(n_samples, dtype=np.float64)
    for row, w in zip(occ.tolist(), weights.tolist()):
        factors = [table[a, i] for i, a in enumerate(row) if a]
        if not factors:
            term.fill(w)
        else:
            np.multiply(w, factors[0], out=term)
            for h in factors[1:]:
                term *= h
        out += term
    return out
