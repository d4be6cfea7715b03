"""Dense ordered-tuple reference implementations.

Everything here expands tensors to full d^k numpy arrays and works on
ordered tuples directly: contraction by tensordot over leading axes,
symmetrization by explicit permutation averaging, evaluation by brute
sums over ordered index tuples.  Deliberately slow and independent of
the canonical-storage code paths it is used to check.

``eval_many_loop`` is the Monte Carlo kernel as a plain loop over
coefficients and slots; it fixes the bits ``_kernels.eval_many`` must
reproduce.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from chaosdet._kernels import hermite_table
from chaosdet.chaos import hermite
from chaosdet.tensors import BiSymTensor, SymTensor


def sym_to_dense(t: SymTensor) -> np.ndarray:
    out = np.zeros((t.dim,) * t.order)
    for occ, v in t.items():
        base = []
        for i, a in enumerate(occ):
            base.extend([i] * a)
        for perm in set(itertools.permutations(base)):
            out[perm] = float(v)
    return out


def bisym_to_dense(t: BiSymTensor) -> np.ndarray:
    out = np.zeros((t.dim,) * (t.left_order + t.right_order))
    for (a, b), v in t.items():
        left = []
        for i, x in enumerate(a):
            left.extend([i] * x)
        right = []
        for i, x in enumerate(b):
            right.extend([i] * x)
        for pl in set(itertools.permutations(left)):
            for pr in set(itertools.permutations(right)):
                out[pl + pr] = float(v)
    return out


def dense_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float((a * b).sum())


def dense_contract(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    if r == 0:
        return np.multiply.outer(a, b)
    return np.tensordot(a, b, axes=(tuple(range(r)), tuple(range(r))))


def dense_symmetrize(a: np.ndarray) -> np.ndarray:
    k = a.ndim
    out = np.zeros_like(a)
    for perm in itertools.permutations(range(k)):
        out += np.transpose(a, perm)
    return out / math.factorial(k)


def dense_eval(a: np.ndarray, xi) -> float:
    """Brute-force chaos evaluation: sum over all ordered index tuples."""
    k = a.ndim
    dim = len(xi)
    total = 0.0
    for idx in itertools.product(range(dim), repeat=k):
        coeff = float(a[idx])
        if coeff == 0.0:
            continue
        counts = [0] * dim
        for j in idx:
            counts[j] += 1
        term = coeff
        for i, c in enumerate(counts):
            if c:
                term *= hermite(c, float(xi[i]))
        total += term
    return total


def eval_many_loop(occ: np.ndarray, weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Reference for _kernels.eval_many: one full-width product per coefficient."""
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
