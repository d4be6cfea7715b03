import itertools
import math

from hypothesis import given, strategies as st

from chaosdet.multiindex import (
    multiplicity,
    occupations,
    sub_occupations,
)


def test_multiplicity_values():
    assert multiplicity((2, 0)) == 1
    assert multiplicity((1, 1)) == 2
    assert multiplicity((2, 1)) == 3
    assert multiplicity((1, 1, 1)) == 6
    assert multiplicity((0, 0)) == 1
    assert multiplicity((3, 2, 1)) == math.factorial(6) // (6 * 2 * 1) == 60


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
    st.integers(min_value=0, max_value=6),
)
def test_sub_occupations_match_brute_force(occ, r):
    got = sorted(sub_occupations(occ, r))
    expected = sorted(
        a
        for a in itertools.product(*(range(x + 1) for x in occ))
        if sum(a) == r
    )
    assert got == expected

