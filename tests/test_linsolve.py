from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from starq.linsolve import ColumnReducer
from starq.polynomials import RatVec

from helpers import FractionReducer, ratvec


def test_solves_small_system_exactly():
    r = ColumnReducer()
    r.add_column("a", ratvec({0: Fraction(2), 1: Fraction(1)}))
    r.add_column("b", ratvec({0: Fraction(1), 2: Fraction(3)}))
    combo = r.solve(ratvec({0: Fraction(4), 1: Fraction(1), 2: Fraction(6)})).fractions()
    assert combo == {"a": Fraction(1), "b": Fraction(2)}


def test_dependent_columns_are_never_used():
    r = ColumnReducer()
    assert r.add_column("a", ratvec({0: 1, 1: 1}))
    assert not r.add_column("copy", ratvec({0: 2, 1: 2}))
    combo = r.solve(ratvec({0: Fraction(3), 1: Fraction(3)})).fractions()
    assert combo == {"a": Fraction(3)}


def test_infeasible_returns_none_and_residual_reports_gap():
    # a right-hand side with a residual outside the span has no solution
    r = ColumnReducer()
    r.add_column("a", ratvec({0: 1}))
    assert r.solve(ratvec({1: Fraction(1)})) is None
    assert r.solve(ratvec({0: Fraction(2), 1: Fraction(5)})) is None


def test_ratvecs_are_consumed():
    r = ColumnReducer()
    r.add_column("a", ratvec({0: Fraction(2), 1: Fraction(1)}))
    # a RatVec is reduced in place, with no copy
    vec = RatVec({0: 6, 1: 3}, 1)
    assert r.solve(vec).fractions() == {"a": Fraction(3)}
    assert vec.terms == {}


def test_zero_rhs_solves_empty():
    r = ColumnReducer()
    r.add_column("a", ratvec({0: 1}))
    assert r.solve(ratvec({})).fractions() == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_combinations_are_recovered(seed):
    rng = Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 5)
    matrix = {c: {r: Fraction(rng.randint(-4, 4))
                  for r in range(rows) if rng.random() < 0.7}
              for c in range(cols)}
    reducer = ColumnReducer()
    for c in range(cols):
        reducer.add_column(c, ratvec(matrix[c]))
    weights = {c: Fraction(rng.randint(-3, 3)) for c in range(cols)}
    rhs: dict = {}
    for c, w in weights.items():
        for r, v in matrix[c].items():
            rhs[r] = rhs.get(r, Fraction(0)) + w * v
    rhs = {r: v for r, v in rhs.items() if v}
    combo = reducer.solve(ratvec(rhs))
    assert combo is not None
    # the returned combination reproduces the right-hand side exactly
    rebuilt: dict = {}
    for c, w in combo.fractions().items():
        for r, v in matrix[c].items():
            rebuilt[r] = rebuilt.get(r, Fraction(0)) + w * v
    rebuilt = {r: v for r, v in rebuilt.items() if v}
    assert rebuilt == rhs


def _random_column(rng: Random, rows: int) -> dict:
    return {r: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 6)))
            for r in range(rows) if rng.random() < 0.6}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reducer_matches_the_fraction_reference(seed):
    """Random rational columns, with zero columns and combinations of earlier
    columns among them: the same rank, pivot leads, solutions and residuals."""
    rng = Random(seed)
    rows = rng.randint(1, 7)
    reducer, reference = ColumnReducer(), FractionReducer()
    columns: list[dict] = []
    for c in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.15 or not columns:
            col = {} if kind < 0.1 else _random_column(rng, rows)
        elif kind < 0.4:
            col = {}
            for other in rng.sample(columns, min(2, len(columns))):
                w = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7)))
                for r, v in other.items():
                    col[r] = col.get(r, Fraction(0)) + w * v
        else:
            col = _random_column(rng, rows)
        columns.append(col)
        assert reducer.add_column(c, ratvec(col)) == reference.add_column(c, col)
    assert len(reducer.pivots) == len(reference.pivots)
    assert sorted(reducer.pivots) == sorted(reference.pivots)
    for _ in range(3):
        rhs = _random_column(rng, rows)
        if rng.random() < 0.5:  # inside the span
            rhs = {}
            for col in columns:
                w = Fraction(rng.randint(-2, 2), rng.choice((1, 3)))
                for r, v in col.items():
                    rhs[r] = rhs.get(r, Fraction(0)) + w * v
        combo = reducer.solve(ratvec(rhs))
        assert (None if combo is None else combo.fractions()) == reference.solve(rhs)
