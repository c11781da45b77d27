"""Incremental exact linear solving over the rationals.

Columns are added one at a time as sparse vectors over arbitrary orderable
row keys.  The reducer keeps a column echelon form with unit leading
entries and, for every pivot, the combination of original columns that
produced it.  Solving expresses a right-hand side in the added columns
using pivot columns only, so columns that arrived linearly dependent never
appear in a solution: their coefficients stay zero.  Pivots, combinations
and the vectors being reduced are ``RatVec``s, integer numerators over one
denominator, reduced by their gcd after every elimination step, and
``solve`` returns its combination as one, so integers go in and come out.
Columns and right-hand sides are ``RatVec``s too, reduced in place rather
than copied.
Results are exact and independence decisions are never approximate.
"""

from __future__ import annotations

from typing import Hashable

from .polynomials import RatVec


class ColumnReducer:
    """Column echelon with combination tracking over exact rationals."""

    def __init__(self):
        # lead row key -> (the unit-lead pivot without its lead entry, its
        # combination over column keys)
        self.pivots: dict[Hashable, tuple[RatVec, RatVec]] = {}

    def _reduce(self, vec: RatVec, combo: RatVec) -> None:
        """Eliminate vec against pivots, in place.

        Invariant: vec + columns.combo is unchanged, where columns.combo is
        the combination of original columns with the coefficients in combo.
        """
        terms = vec.terms
        while terms:
            lead = min(terms)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            rest, pivot_combo = hit
            coeff, den = terms.pop(lead), vec.den  # the multiple coeff/den of the pivot
            vec.add(rest.terms, rest.den * den, -coeff)
            combo.add(pivot_combo.terms, pivot_combo.den * den, coeff)
            vec.reduce()
            combo.reduce()

    def add_column(self, key: Hashable, vec: RatVec) -> bool:
        """Insert a column; returns False when it is dependent on earlier ones.
        The vector is consumed (reduced in place)."""
        # start from vec + columns.{key: -1} == 0 so the invariant gives the
        # reduced vector as a combination of original columns at the end
        combo = RatVec({key: -1})
        self._reduce(vec, combo)
        if not vec.terms:
            return False
        lead = min(vec.terms)
        v = vec.terms.pop(lead)
        sign = 1 if v > 0 else -1
        # dividing by the lead entry v/den gives the pivot vec/v, lead 1, and
        # its combination -combo * den/v
        rest = RatVec({k: c * sign for k, c in vec.terms.items()}, v * sign)
        factor = -vec.den * sign
        pivot_combo = RatVec({k: c * factor for k, c in combo.terms.items()},
                             combo.den * v * sign)
        self.pivots[lead] = (rest.reduce(), pivot_combo.reduce())
        return True

    def solve(self, rhs: RatVec) -> RatVec | None:
        """Reduced coefficients over column keys reproducing rhs, or None if
        outside the span.  Dependent columns are never used.  The vector is
        consumed (reduced in place)."""
        combo = RatVec()
        self._reduce(rhs, combo)
        if rhs.terms:
            return None
        return combo
