import re
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from starq.jets import JetPolynomial, monomial_key, phi_jet, psi_jet
from starq.polynomials import MAX_PARSE_DEGREE, XPoly, parse_poly

from helpers import (fraction_add, fraction_mul, fraction_scale, fraction_x_derivative,
                     monomials_up_to, poly, random_index)


def small_polys():
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    exponent = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exponent, coeff, max_size=4).map(
        lambda d: poly(XPoly, d))


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
    assert parse_poly("2*+x1") == parse_poly("2*x1")


def test_surrounding_whitespace_is_ignored():
    for text in ("x1 ", "x1\n", " x1\t \n", "\tx1"):
        assert parse_poly(text) == XPoly.var(1)


def test_parse_rejects_garbage():
    for bad in ("x4", "x1/x2", "1 +", "1 + \n", " ", "(x1", "x1 x2 ***", "x1)", "(x1^2^3)"):
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
    # the associator scan visits argument triples in this order
    assert [str(m) for m in monomials_up_to(2)] == [
        "1", "x3", "x3^2", "x2", "x2*x3", "x2^2", "x1", "x1*x3", "x1*x2", "x1^2"]
    with pytest.raises(ValueError, match="coordinate label out of range: 4"):
        XPoly.var(4)


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
    for mono in monomials_up_to(4):  # every factor list the coordinate table reads
        assert XPoly.from_json(mono.to_json()) == mono


def test_from_json_sums_duplicates_and_drops_zeros():
    data = [{"coeff": "1/2", "factors": ["x1"]}, {"coeff": "3/2", "factors": ["x1"]},
            {"coeff": "2", "factors": ["x2"]}, {"coeff": "-2", "factors": ["x2"]},
            {"coeff": "0", "factors": ["x3"]}]
    assert XPoly.from_json(data).terms == {(1, 0, 0): Fraction(2)}
    with pytest.raises(ValueError):
        XPoly.from_json([{"coeff": 0.5, "factors": []}])


@pytest.mark.parametrize("text", ["2/4", "-6/3", "-0", "0/5", "007/014", "-12", "1/0",
                                  "-3/0", "0/0"])
def test_stored_coefficient_reads_as_fraction_reads_it(text):
    try:
        expected = XPoly.const(Fraction(text))
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError, match=re.escape(str(exc))):
            XPoly.from_json([{"coeff": text, "factors": []}])
    else:
        assert XPoly.from_json([{"coeff": text, "factors": []}]) == expected


def test_parser_rejects_degrees_beyond_the_cap():
    # only the rejection is exercised: it happens before any expansion
    assert parse_poly(f"x1^{MAX_PARSE_DEGREE}").total_degree() == MAX_PARSE_DEGREE
    for text in ("(x1+x2+x3)^500", f"x1^{MAX_PARSE_DEGREE + 1}", "2^100000000",
                 "(x1^8)^9", f"x1^{MAX_PARSE_DEGREE} * x2", f"x1^{MAX_PARSE_DEGREE}(x2+1)"):
        with pytest.raises(ValueError):
            parse_poly(text)


# -- the integer-numerator core against Fraction arithmetic ------------------------------

_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12)  # many pairs that do not divide each other


def _random_mono(rng: Random, ring):
    if ring is XPoly:
        return tuple(rng.randint(0, 2) for _ in range(3))
    factors = [phi_jet(*random_index(rng, 2, min_len=1)) if rng.random() < 0.6
               else psi_jet(*random_index(rng, 2)) for _ in range(rng.randint(0, 2))]
    return monomial_key(factors)


def _random_terms(rng: Random, ring) -> dict:
    """Fraction coefficients; empty in about one draw out of six."""
    out = {}
    for _ in range(rng.choice((0, 1, 2, 3, 4, 5))):
        q = Fraction(rng.randint(-9, 9), rng.choice(_DENOMINATORS))
        if q:
            out[_random_mono(rng, ring)] = q
    return out


def assert_canonical(p) -> None:
    """Nonzero int numerators over den > 0, gcd 1 overall; zero has den 1."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1


def _fractions(p) -> dict:
    return dict(p.monomials())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((XPoly, JetPolynomial)))
def test_integer_core_matches_fraction_arithmetic(seed, ring):
    rng = Random(seed)
    a, b = _random_terms(rng, ring), _random_terms(rng, ring)
    pa, pb = poly(ring, a), poly(ring, b)
    q = Fraction(rng.randint(-5, 5), rng.choice(_DENOMINATORS))
    direction = rng.choice((1, 2, 3))
    index = random_index(rng, 3)
    expected_derivative = a
    for d in index:
        expected_derivative = fraction_x_derivative(expected_derivative, d, ring)
    cases = [
        (pa, a),
        (pa + pb, fraction_add(a, b)),
        (pa - pb, fraction_add(a, b, -1)),
        (-pa, fraction_scale(a, Fraction(-1))),
        (pa * pb, fraction_mul(a, b, ring._mono_mul)),
        (pa.scale(q), fraction_scale(a, q)),
        (pa.x_derivative(direction), fraction_x_derivative(a, direction, ring)),
        (pa.derivative(index), expected_derivative),
        (pa - pa, {}),
    ]
    for result, expected in cases:
        assert type(result) is ring
        assert_canonical(result)
        assert _fractions(result) == expected
        assert result == poly(ring, expected)
        assert hash(result) == hash(poly(ring, expected))
        assert_json_text(result)
    for mono, c in a.items():
        assert pa.coefficient(mono) == c


def _product_cases(ring) -> tuple:
    """Pinned operand pairs for the unreduced product: a one-term factor, and
    (u + v)(u - v), whose u*v terms cancel."""
    if ring is XPoly:
        one, u, v = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    else:
        one, u, v = monomial_key([]), monomial_key([phi_jet(1)]), monomial_key([psi_jet(2)])
    return (({u: Fraction(1, 2)}, {v: Fraction(3, 4), one: 2}),
            ({u: 1, v: 1}, {u: 1, v: -1}))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((XPoly, JetPolynomial)),
       st.sampled_from((None, "left", "right", "pinned")))
def test_unreduced_product_matches_the_product(seed, ring, case):
    rng = Random(seed)
    a, b = _random_terms(rng, ring), _random_terms(rng, ring)
    if case == "left":
        a = dict(list(a.items())[:1])
    elif case == "right":
        b = dict(list(b.items())[:1])
    elif case == "pinned":
        a, b = rng.choice(_product_cases(ring))
    pa, pb = poly(ring, a), poly(ring, b)
    terms = pa.product_terms(pb)
    assert all(type(c) is int and c for c in terms.values())
    den = pa.den * pb.den
    assert {m: Fraction(c, den) for m, c in terms.items()} == fraction_mul(a, b, ring._mono_mul)
    assert ring.from_numerators(terms, den) == pa * pb == pb * pa


def assert_json_text(p) -> None:
    """Each JSON coefficient is the text of its Fraction, and the JSON reads back."""
    data = p.to_json()
    assert [item["coeff"] for item in data] == [str(p.coefficient(m)) for m, _ in p.monomials()]
    assert type(p).from_json(data) == p


@pytest.mark.parametrize("ring", (XPoly, JetPolynomial))
@pytest.mark.parametrize("numerators, den, texts", [
    ((3, 2), 6, ["1/2", "1/3"]),  # one shared denominator, each reduced alone
    ((-3, 2), 6, ["-1/2", "1/3"]),
    ((-9, 4), 6, ["-3/2", "2/3"]),
    ((-4, 12), 4, ["-1", "3"]),
    ((5, -7), 1, ["5", "-7"]),
    ((6, 3), 9, ["2/3", "1/3"]),
])
def test_coefficient_text_reduces_each_coefficient(ring, numerators, den, texts):
    monos = sorted({_random_mono(Random(seed), ring) for seed in range(40)},
                   key=ring._term_key)[:2]
    p = ring.from_numerators(dict(zip(monos, numerators)), den)
    assert [item["coeff"] for item in p.to_json()] == texts
    assert_json_text(p)


def test_canonical_form_of_zero_and_cancellation():
    half = XPoly.from_monomial((1, 0, 0), Fraction(1, 2))
    assert (half - half).den == 1 and (half - half).terms == {}
    assert (half + half).den == 1 and (half + half).terms == {(1, 0, 0): 1}
    assert XPoly.const(Fraction(0, 7)) == XPoly.zero()
    assert half.scale(Fraction(2, 3)) == XPoly.from_monomial((1, 0, 0), Fraction(1, 3))
