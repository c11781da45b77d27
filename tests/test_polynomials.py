from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starq.polynomials import MAX_PARSE_DEGREE, XPoly, monomials_up_to, parse_poly


def small_polys():
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    exponent = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exponent, coeff, max_size=4).map(
        lambda d: XPoly({e: c for e, c in d.items() if c}))


def test_parse_examples():
    p = parse_poly("x1*x2*x3")
    assert p == XPoly.var(1) * XPoly.var(2) * XPoly.var(3)
    q = parse_poly("1/2*(x1^2 + x2^2 + x3^2)")
    assert q.x_derivative(1) == XPoly.var(1)
    assert parse_poly("2 - 3*x2") == XPoly.const(2) - XPoly.var(2).scale(3)


def test_prefix_sign_binds_looser_than_power():
    assert parse_poly("-x1^2") == -parse_poly("x1^2")
    assert parse_poly("-(x1+x2)^2") == -parse_poly("(x1+x2)^2")
    assert parse_poly("2*-x1^2") == parse_poly("-2*x1^2") == XPoly.from_monomial((2, 0, 0), -2)
    assert parse_poly("x2 - x1^2") == XPoly.var(2) - XPoly.from_monomial((2, 0, 0))
    assert parse_poly("-x1*x2") == XPoly.from_monomial((1, 1, 0), -1)


def test_parse_rejects_garbage():
    for bad in ("x4", "x1/x2", "1 +", "(x1", "x1 x2 ***"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_str_parse_roundtrip():
    p = parse_poly("1/2*x3^2 - 7*x1*x2 + 4")
    assert parse_poly(str(p)) == p
    assert str(XPoly.zero()) == "0"


def test_monomials_up_to_counts():
    # binomial(d+3, 3) monomials of total degree <= d in three variables
    assert len(monomials_up_to(0)) == 1
    assert len(monomials_up_to(2)) == 10
    assert len(monomials_up_to(4)) == 35


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_derivative_is_leibniz(a, b):
    d = (a * b).x_derivative(2)
    assert d == a.x_derivative(2) * b + a * b.x_derivative(2)


def test_iterated_derivative_matches_singles():
    p = parse_poly("x1^2*x2 + x3^3")
    assert p.derivative((1, 1, 2)) == p.x_derivative(1).x_derivative(1).x_derivative(2)
    assert p.derivative(()) == p


def test_json_roundtrip():
    p = parse_poly("1/3*x1*x3 - 2*x2^4")
    assert XPoly.from_json(p.to_json()) == p


def test_from_json_sums_duplicates_and_drops_zeros():
    data = [{"coeff": "1/2", "factors": ["x1"]}, {"coeff": "3/2", "factors": ["x1"]},
            {"coeff": "2", "factors": ["x2"]}, {"coeff": "-2", "factors": ["x2"]},
            {"coeff": "0", "factors": ["x3"]}]
    assert XPoly.from_json(data).terms == {(1, 0, 0): Fraction(2)}
    with pytest.raises(ValueError):
        XPoly.from_json([{"coeff": 0.5, "factors": []}])


def test_parser_rejects_degrees_beyond_the_cap():
    # only the rejection is exercised: it happens before any expansion
    assert parse_poly(f"x1^{MAX_PARSE_DEGREE}").total_degree() == MAX_PARSE_DEGREE
    for text in ("(x1+x2+x3)^500", f"x1^{MAX_PARSE_DEGREE + 1}", "2^100000000",
                 "(x1^8)^9", f"x1^{MAX_PARSE_DEGREE} * x2", f"x1^{MAX_PARSE_DEGREE}(x2+1)"):
        with pytest.raises(ValueError):
            parse_poly(text)
