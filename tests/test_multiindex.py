import itertools
import math

import pytest
from hypothesis import given, strategies as st

from chaosdet.multiindex import _multiplicity, merge, multiplicity, occupations, splits


def test_multiplicity_values():
    assert multiplicity((2, 0)) == 1
    assert multiplicity((1, 1)) == 2
    assert multiplicity((2, 1)) == 3
    assert multiplicity((1, 1, 1)) == 6
    assert multiplicity((0, 0)) == 1
    assert multiplicity((3, 2, 1)) == math.factorial(6) // (6 * 2 * 1) == 60
    assert multiplicity([2, 1]) == 3


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4))
def test_multiplicity_counts_ordered_tuples(occ):
    # total order capped at 8 so the permutation enumeration stays small
    base = []
    for i, a in enumerate(occ):
        base.extend([i] * a)
    assert multiplicity(occ) == len(set(itertools.permutations(base)))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
def test_occupations_count_and_validity(dim, order):
    occs = list(occupations(dim, order))
    assert len(occs) == math.comb(dim + order - 1, order)  # stars and bars
    assert len(set(occs)) == len(occs)
    assert occs == sorted(occs)
    for occ in occs:
        assert len(occ) == dim
        assert sum(occ) == order
        assert all(a >= 0 for a in occ)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=13),
)
def test_splits_match_brute_force(occ, r):
    """Every sub-occupation of order r with its complement, in ascending
    lexicographic order; none once r passes the order of occ."""
    got = splits(tuple(occ), r)
    expected = [
        (a, tuple(x - y for x, y in zip(occ, a)))
        for a in sorted(itertools.product(*(range(x + 1) for x in occ)))
        if sum(a) == r
    ]
    assert list(got) == expected


@pytest.mark.parametrize(
    "cache, bound", [(_multiplicity, 4096), (splits, 4096), (merge, 16384)]
)
def test_key_caches_have_their_documented_bound(cache, bound):
    assert cache.cache_info().maxsize == bound
