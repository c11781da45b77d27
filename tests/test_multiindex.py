from collections import Counter
from itertools import product

import pytest

from starq.multiindex import (all_indices, format_index, merge, mi, multiplicities,
                              parse_index, splits)


def test_mi_sorts_and_validates():
    assert mi(3, 1, 2) == (1, 2, 3)
    assert mi() == ()
    with pytest.raises(ValueError):
        mi(0)
    with pytest.raises(ValueError):
        mi(4)
    for label in (True, 1.0):  # equal to 1, but not an int
        with pytest.raises(ValueError):
            mi(label)


def test_merge_is_sorted_union_with_repeats():
    assert merge((1, 2), (2, 3)) == (1, 2, 2, 3)
    assert merge((), (1,)) == (1,)


def test_multiplicities():
    assert multiplicities((1, 1, 3)) == (2, 0, 1)
    assert multiplicities(()) == (0, 0, 0)


def test_format_parse_roundtrip():
    for index in (i for n in range(4) for i in all_indices(n)):
        assert parse_index(format_index(index)) == index


def test_binary_splits_counts_by_multinomial():
    # Leibniz: d_{112} over two factors splits with multiplicity products
    pieces = splits((1, 1, 2), 2)
    assert sum(c for _, c in pieces) == 2 ** 3
    as_map = {(a, b): c for (a, b), c in pieces}
    assert as_map[((1, 1), (2,))] == 1
    assert as_map[((1,), (1, 2))] == 2


def test_memoized_binary_splits_match_a_fresh_enumeration():
    """Every subset of the individual derivatives goes left once."""
    for index in (i for n in range(7) for i in all_indices(n)):
        fresh = Counter()
        for picks in product((False, True), repeat=len(index)):
            left = tuple(a for a, pick in zip(index, picks) if pick)
            right = tuple(a for a, pick in zip(index, picks) if not pick)
            fresh[left, right] += 1
        splits_of = splits(index, 2)
        assert isinstance(splits_of, tuple)
        assert splits(index, 2) is splits_of
        assert len(splits_of) == len(fresh)
        assert {(a, b): c for (a, b), c in splits_of} == fresh


def test_splits_three_ways_sum():
    pieces = list(splits((1, 2), 3))
    assert sum(c for _, c in pieces) == 3 ** 2
    assert (((), (1,), (2,)), 1) in pieces
