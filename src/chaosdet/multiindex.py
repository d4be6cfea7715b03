"""Occupation-number encoding of symmetric tensor multi-indices.

An ordered multi-index (j_1, ..., j_k) over a basis of dimension d is,
up to permutation, fully described by how many times each basis index
occurs.  We store that count vector a = (a_1, ..., a_d) with sum(a) = k.
The number of ordered tuples collapsing to a given occupation is the
multinomial coefficient k! / (a_1! ... a_d!); it is the weight that
turns sums over ordered tuples into sums over occupations.

Basis indices are 0-based throughout.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence


def multiplicity(occ: Sequence[int]) -> int:
    """Number of ordered index tuples with occupation vector ``occ``."""
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


def sub_occupations(occ: Sequence[int], order: int) -> Iterator[tuple[int, ...]]:
    """Yield all occupation vectors a <= occ componentwise with sum(a) = order."""
    d = len(occ)
    # suffix[i] = occ[i] + ... + occ[d-1], used to prune infeasible branches
    suffix = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix[i] = suffix[i + 1] + occ[i]
    if not 0 <= order <= suffix[0]:
        return

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == d:
            yield ()
            return
        lo = max(0, remaining - suffix[i + 1])
        hi = min(occ[i], remaining)
        for a in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - a):
                yield (a,) + rest

    yield from rec(0, order)
