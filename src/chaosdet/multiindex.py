"""Occupation-number encoding of symmetric tensor multi-indices.

An ordered multi-index (j_1, ..., j_k) over a basis of dimension d is,
up to permutation, fully described by how many times each basis index
occurs.  We store that count vector a = (a_1, ..., a_d) with sum(a) = k.
The number of ordered tuples collapsing to a given occupation is the
multinomial coefficient k! / (a_1! ... a_d!); it is the weight that
turns sums over ordered tuples into sums over occupations.

The combinatorics the tensor operations need are pure functions of
integer keys, memoized here in bounded LRU caches: :func:`multiplicity`
(bound 4096), :func:`splits` (4096) and :func:`merge` (16384).  One
``report`` at n=m=4 fills 336, 490 and 1476 entries at d=5, and 2211,
2130 and 15761 at d=8.  Cached values are exact integers and keys, so
no result bit depends on a cache.  Basis indices are 0-based throughout.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence


def multiplicity(occ: Sequence[int]) -> int:
    """Number of ordered index tuples with occupation vector ``occ``."""
    return _multiplicity(tuple(occ))


@functools.lru_cache(maxsize=1 << 12)
def _multiplicity(occ: tuple[int, ...]) -> int:
    m = math.factorial(sum(occ))
    for a in occ:
        m //= math.factorial(a)
    return m


def occupations(dim: int, order: int) -> Iterator[tuple[int, ...]]:
    """Yield all occupation vectors in ascending lexicographic order."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim == 1:
        yield (order,)
        return
    for first in range(order + 1):
        for rest in occupations(dim - 1, order - first):
            yield (first,) + rest


@functools.lru_cache(maxsize=1 << 12)
def splits(occ: tuple[int, ...], r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every (a, occ - a) with a <= occ componentwise and sum(a) = r.

    The sub-occupations a come in ascending lexicographic order; there
    are none when r > sum(occ).
    """
    return tuple(
        (a, tuple(x - y for x, y in zip(occ, a)))
        for a in itertools.product(*(range(x + 1) for x in occ))
        if sum(a) == r
    )


@functools.lru_cache(maxsize=1 << 14)
def merge(key: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[tuple[int, ...], int]:
    """The occupation a + b of a block key (a, b) and its weight prod_i C(a_i + b_i, a_i)."""
    a, b = key
    w = 1
    for x, y in zip(a, b):
        w *= math.comb(x + y, x)
    return tuple(x + y for x, y in zip(a, b)), w
