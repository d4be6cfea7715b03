"""Seeded Monte Carlo estimation of E det L.

The estimator samples the Gram-route determinant of the Malliavin
matrix over i.i.d. Gaussian coordinate vectors.  Sampling is chunked:
chunk c draws from the Philox substream keyed by (seed, c), partial
sums are reduced in chunk order, and the result is therefore
bit-reproducible for a fixed (seed, chunk_size) regardless of the
number of workers.  This is the only route available beyond the
exact-computation guard.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chaos import DEFAULT_CHUNK_SIZE, _philox, eval_arrays


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and 95% confidence interval."""

    mean: float
    stderr: float
    ci95: tuple[float, float]
    n_samples: int
    seed: int


def _det_lambda_block(
    slices_f: list[tuple[np.ndarray, np.ndarray]],
    slices_g: list[tuple[np.ndarray, np.ndarray]],
    block: np.ndarray,
) -> np.ndarray:
    sf = np.stack([_kernels.eval_many(occ, w, block) for occ, w in slices_f])
    sg = np.stack([_kernels.eval_many(occ, w, block) for occ, w in slices_g])
    a = np.einsum("it,it->t", sf, sf)
    b = np.einsum("it,it->t", sg, sg)
    q = np.einsum("it,it->t", sf, sg)
    return a * b - q * q


def _check_sampling_args(workers: int, chunk_size: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def estimate_edet(
    pair,
    n_samples: int,
    seed: int,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> McEstimate:
    """Empirical mean and standard error of det L over seeded samples of a ``ChaosPair``."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    _check_sampling_args(workers, chunk_size)
    slices_f = [eval_arrays(t) for t in pair.slices_f]
    slices_g = [eval_arrays(t) for t in pair.slices_g]
    n_chunks = (n_samples + chunk_size - 1) // chunk_size

    def chunk_stats(chunk_index: int) -> tuple[int, float, float]:
        start = chunk_index * chunk_size
        take = min(chunk_size, n_samples - start)
        block = _philox(seed, chunk_index).standard_normal((take, pair.dim))
        dets = _det_lambda_block(slices_f, slices_g, block)
        return take, float(dets.sum()), float((dets * dets).sum())

    if workers == 1:
        partials = [chunk_stats(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(chunk_stats, range(n_chunks)))

    # ordered reduction over chunk index keeps the float result
    # independent of the worker count
    total = 0.0
    total_sq = 0.0
    count = 0
    for take, s1, s2 in partials:
        count += take
        total += s1
        total_sq += s2
    mean = total / count
    variance = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    stderr = math.sqrt(variance / count)
    ci95 = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    return McEstimate(mean=mean, stderr=stderr, ci95=ci95, n_samples=count, seed=seed)
