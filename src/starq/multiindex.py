"""Sorted multi-indices over the coordinate directions 1, 2, 3.

A multi-index is a tuple of coordinate labels, kept sorted ascending so that
the symmetry of mixed partial derivatives is structural: two derivative
orders that agree as multisets are the same tuple.  The empty tuple stands
for "no derivative": a piece of a split that takes nothing, or the slot of
an argument that is only multiplied, as in the bare multiplication.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb
from typing import Iterator

MultiIndex = tuple[int, ...]

DIRECTIONS = (1, 2, 3)

EMPTY: MultiIndex = ()


def mi(*indices: int) -> MultiIndex:
    """Build a multi-index, validating entries and sorting them; a label is
    an int, so True and 1.0 are rejected although they equal 1."""
    for a in indices:
        if type(a) is not int or a not in DIRECTIONS:
            raise ValueError(f"coordinate label out of range: {a!r}")
    return tuple(sorted(indices))


def merge(left: MultiIndex, right: MultiIndex) -> MultiIndex:
    """Multiset union of two multi-indices."""
    return tuple(sorted(left + right))


def multiplicities(index: MultiIndex) -> tuple[int, int, int]:
    return (index.count(1), index.count(2), index.count(3))


def format_index(index: MultiIndex) -> str:
    """Digit string, e.g. (1, 1, 2) -> "112"; empty index -> ""."""
    return "".join(str(a) for a in index)


def parse_index(text: str) -> MultiIndex:
    if not text:
        return EMPTY
    if not text.isdigit():
        raise ValueError(f"malformed multi-index {text!r}")
    return mi(*(int(ch) for ch in text))


@cache
def splits(index: MultiIndex, parts: int) -> tuple[tuple[tuple[MultiIndex, ...], int], ...]:
    """Ordered multiset splits of ``index`` into ``parts`` pieces.

    Returns (pieces, count) pairs with the multinomial multiplicity, i.e. the
    number of assignments of the individual derivatives realizing those
    pieces.  With two parts this is the Leibniz expansion of a repeated
    derivative applied to a product of two factors.  The result is a pure
    function of the sorted index and is memoized.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    mults = multiplicities(index)
    per_direction = [list(_compositions(m, parts)) for m in mults]
    out = []
    for combo in itertools.product(*per_direction):
        count = 1
        pieces: list[list[int]] = [[] for _ in range(parts)]
        for d, m, (composition, ways) in zip(DIRECTIONS, mults, combo):
            count *= ways
            for p, c in enumerate(composition):
                pieces[p].extend([d] * c)
        out.append((tuple(tuple(p) for p in pieces), count))
    return tuple(out)


def _compositions(total: int, parts: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Compositions of ``total`` into ``parts`` non-negative summands.

    Each composition comes with the multinomial count total!/(c_1!...c_k!).
    """
    if parts == 1:
        yield (total,), 1
        return
    for first in range(total + 1):
        ways_first = comb(total, first)
        for rest, ways_rest in _compositions(total - first, parts - 1):
            yield (first,) + rest, ways_first * ways_rest


def all_indices(length: int) -> list[MultiIndex]:
    """All sorted multi-indices of the given length."""
    return [tuple(c) for c in itertools.combinations_with_replacement(DIRECTIONS, length)]
