from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from starq.cli import MAX_ORDER
from starq.jets import (NABLA_PHI, PHI, PSI, PSI_NABLA_PHI, JetPolynomial, code, decode,
                        factor_codes, format_var, grading, intern, is_psi, jet_var, lift,
                        monomial_key, name_code, parse_var, phi_jet, psi_jet, substitute_factor,
                        var)
from starq.cochains import JET_RING
from starq.latex import _SYMBOLS, _frac_latex, _join, ring_latex
from starq.multiindex import all_indices, merge
from starq.polynomials import XPoly, parse_poly

from helpers import (max_jet_order, random_codes, tuple_factors, tuple_grading, tuple_leibniz,
                     tuple_mono_mul, tuple_term_key)


def test_jet_var_validation():
    assert phi_jet(3, 1) == ("phi", (1, 3))
    assert psi_jet() == ("psi", ())
    with pytest.raises(ValueError):
        phi_jet()  # underived potential never appears in gradient mode
    with pytest.raises(ValueError):
        phi_jet(5)
    with pytest.raises(ValueError):
        jet_var("chi", (1,))


def test_substitute_factor_is_cross_product_structure():
    # gradient mode: component (i, j) of the bivector is eps_{ijk} phi_k
    p12 = substitute_factor((), 1, 2, NABLA_PHI)
    assert p12 == JetPolynomial.variable(phi_jet(3))
    p21 = substitute_factor((), 2, 1, NABLA_PHI)
    assert p21 == -p12
    assert substitute_factor((), 1, 1, NABLA_PHI).is_zero
    # an x-derivative prolongs the potential jet
    d3_p12 = substitute_factor((3,), 1, 2, NABLA_PHI)
    assert d3_p12 == JetPolynomial.variable(phi_jet(3, 3))


def test_substitute_factor_conformal_mode_has_psi_leibniz():
    p12 = substitute_factor((), 1, 2, PSI_NABLA_PHI)
    assert p12 == (JetPolynomial.variable(psi_jet())
                   * JetPolynomial.variable(phi_jet(3)))
    d1 = substitute_factor((1,), 1, 2, PSI_NABLA_PHI)
    expected = (JetPolynomial.variable(psi_jet(1)) * JetPolynomial.variable(phi_jet(3))
                + JetPolynomial.variable(psi_jet()) * JetPolynomial.variable(phi_jet(1, 3)))
    assert d1 == expected


def test_x_derivative_prolongation_leibniz():
    p = (JetPolynomial.variable(phi_jet(1)) * JetPolynomial.variable(phi_jet(2))).scale(3)
    d = p.x_derivative(2)
    expected = (JetPolynomial.variable(phi_jet(1, 2)) * JetPolynomial.variable(phi_jet(2))
                + JetPolynomial.variable(phi_jet(1)) * JetPolynomial.variable(phi_jet(2, 2))
                ).scale(3)
    assert d == expected


def test_eval_jets_specializes_to_explicit_polynomials():
    phi = parse_poly("x1*x2*x3")
    p = JetPolynomial.variable(phi_jet(1)) * JetPolynomial.variable(phi_jet(2, 3))
    # d1 phi = x2 x3 and d23 phi = x1
    assert p.eval_jets(phi, None) == parse_poly("x1*x2*x3")
    psi = parse_poly("x1")
    q = JetPolynomial.variable(psi_jet()) * JetPolynomial.variable(phi_jet(3))
    assert q.eval_jets(phi, psi) == parse_poly("x1^2*x2")


def test_factor_counts_and_jet_order():
    mono = (phi_jet(1), phi_jet(2, 3), psi_jet())
    p = JetPolynomial.from_monomial(monomial_key(mono), Fraction(1))
    assert max_jet_order(p) == 2


def test_json_roundtrip():
    p = (JetPolynomial.variable(phi_jet(1, 1)).scale(Fraction(2, 3))
         - JetPolynomial.variable(psi_jet(2)))
    assert JetPolynomial.from_json(p.to_json()) == p


def test_from_json_sums_duplicates_and_drops_zeros():
    data = [{"coeff": "1/2", "factors": ["phi_3"]}, {"coeff": "1/2", "factors": ["phi_3"]},
            {"coeff": "1", "factors": ["psi_"]}, {"coeff": "-1", "factors": ["psi_"]},
            {"coeff": "0", "factors": ["phi_1"]}]
    assert JetPolynomial.from_json(data) == JetPolynomial.variable(phi_jet(3))
    with pytest.raises(ValueError):
        JetPolynomial.from_json([{"coeff": 1, "factors": []}])


def test_rings_are_distinct_under_equality():
    # both zeros have an empty term dict; equality still tells the rings apart
    assert XPoly.zero() != JetPolynomial.zero()
    assert JetPolynomial.zero() != XPoly.zero()
    assert XPoly.zero() == XPoly.zero() and JetPolynomial.zero() == JetPolynomial.zero()


# -- int codes of jet variables ------------------------------------------------------

def _var_key(v):
    """The order in which a monomial lists its factors when printed."""
    tag, index = v
    return (tag, len(index), index)


def _all_vars(max_len: int) -> list:
    return [(tag, index) for tag in (PHI, PSI) for n in range(max_len + 1)
            for index in all_indices(n)]


def test_codes_decode_and_order_like_var_key():
    variables = _all_vars(2 * MAX_ORDER)
    assert len({code(v) for v in variables}) == len(variables)
    for v in variables:
        assert var(code(v)) == v
        assert is_psi(code(v)) == (v[0] == PSI)
        assert grading(intern((code(v),))) == (int(v[0] == PHI), int(v[0] == PSI), len(v[1]))
        for a in (1, 2, 3):
            assert var(lift(code(v), a)) == (v[0], merge(v[1], (a,)))
    for tag in (PHI, PSI):
        same_tag = [v for v in variables if v[0] == tag]
        assert sorted(same_tag, key=code) == sorted(same_tag, key=_var_key)


_INDICES = st.lists(st.sampled_from((1, 2, 3)), max_size=2 * MAX_ORDER).map(sorted)
_VARS = st.one_of(_INDICES.filter(bool).map(lambda i: phi_jet(*i)),
                  _INDICES.map(lambda i: psi_jet(*i)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_VARS, max_size=4).map(monomial_key), min_size=2, max_size=12))
def test_term_key_orders_monomials_as_decode_does(monos):
    # indices share prefixes often enough that a key by length first would fail
    assert (sorted(monos, key=JetPolynomial._term_key)
            == sorted(monos, key=lambda m: (len(factor_codes(m)), decode(m))))


def test_term_order_is_by_tag_and_index_not_by_code():
    # a term is ordered by its factors' (tag, index), so phi_11 precedes phi_2,
    # while the codes sort phi_2 first (a shorter index has fewer digits)
    phi_2, phi_11, psi = map(JetPolynomial.variable, (phi_jet(2), phi_jet(1, 1), psi_jet()))
    assert code(phi_jet(2)) == 12 < code(phi_jet(1, 1)) == 42
    p = phi_2 + phi_11
    assert [item["factors"] for item in p.to_json()] == [["phi_11"], ["phi_2"]]
    assert str(p) == "phi_11 + phi_2"
    q = phi_2 * psi + phi_11 * psi + JetPolynomial.variable(psi_jet(3))
    assert [item["factors"] for item in q.to_json()] == [
        ["psi_3"], ["phi_11", "psi_"], ["phi_2", "psi_"]]
    assert str(q) == "psi_3 + phi_11*psi_ + phi_2*psi_"


def test_jets_past_the_longest_stored_index_print_in_decode_order():
    # x-derivatives of a jet with the longest index a stored name may carry go
    # past it, as the residuals of a product loaded with such a jet do
    longest = JetPolynomial.variable(phi_jet(*[1] * (2 * MAX_ORDER)))
    p = (longest * JetPolynomial.variable(psi_jet(2))
         + JetPolynomial.variable(phi_jet(2))).x_derivative(1)
    n = 2 * MAX_ORDER  # psi_2 and psi_12 have the smaller codes, phi is listed first
    names = [["phi_12"], ["phi_" + "1" * n, "psi_12"], ["phi_" + "1" * (n + 1), "psi_2"]]
    assert p.to_json() == [{"coeff": "1", "factors": factors} for factors in names]
    assert str(p) == " + ".join("*".join(factors) for factors in names)


def test_cached_name_maps_agree_with_format_and_parse():
    variables = [v for v in _all_vars(4) if v[0] == PSI or v[1]]
    assert len(variables) == 34 + 35  # phi of order 1..4, psi of order 0..4
    for v in variables:
        name = format_var(v)
        assert JetPolynomial._factors(intern((code(v),))) == [name]
        assert name_code(name) == code(parse_var(name)) == code(v)
    longest = phi_jet(*[3] * (2 * MAX_ORDER))  # the longest index a stored name may carry
    assert name_code(format_var(longest)) == code(longest)
    mono = monomial_key(variables[:6] + variables[-6:])
    names = [format_var(v) for v in sorted(map(var, factor_codes(mono)), key=_var_key)]
    assert JetPolynomial._factors(mono) == names
    assert JetPolynomial._parse_factors(names) == mono


# -- the monomial table against the tuple-merge reference ------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_grading_matches_a_recount(seed):
    rng = Random(seed)
    for codes in (random_codes(rng) for _ in range(6)):
        mono = intern(codes)
        for _ in range(2):  # worked out, then kept
            assert grading(mono) == tuple_grading(codes)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_table_matches_tuple_merge(seed):
    rng = Random(seed)
    tuples = [random_codes(rng) for _ in range(6)]
    monos = [intern(t) for t in tuples]
    assert monomial_key(map(var, tuples[0])) == monos[0]
    for a, m in zip(tuples, monos):
        assert factor_codes(m) == a
        for b, n in zip(tuples, monos):
            for _ in range(2):  # the merge, then the memo
                assert factor_codes(JetPolynomial._mono_mul(m, n)) == tuple_mono_mul(a, b)
        for direction in (1, 2, 3):
            for _ in range(2):
                d = JetPolynomial.from_monomial(m).x_derivative(direction)
                assert ({factor_codes(k): c for k, c in d.terms.items()}
                        == Counter(tuple_leibniz(a, direction)))
        for _ in range(2):  # worked out, then kept; a document's lists are copies
            JetPolynomial.from_monomial(m).to_json()[0]["factors"].append("phi_1")
            assert JetPolynomial._factors(m) == tuple_factors(a)
            names = tuple_factors(a)
            assert JetPolynomial._parse_factors(names) == m
            assert JetPolynomial._parse_factors(rng.sample(names, len(names))) == m
        if a:  # a list of codes is no list of names, though its tuple is in the table
            with pytest.raises(ValueError, match="malformed jet variable"):
                JetPolynomial._parse_factors(list(a))
    assert (sorted(monos, key=JetPolynomial._term_key)
            == sorted(monos, key=lambda m: tuple_term_key(factor_codes(m))))


@pytest.mark.parametrize("name", ["phi_", "phi_4", "chi_1", "phi1", "psi_0",
                                  "phi_" + "1" * (2 * MAX_ORDER + 1)])
def test_invalid_names_raise_and_are_not_cached(name):
    before = name_code.cache_info().currsize
    with pytest.raises(ValueError):
        name_code(name)
    assert name_code.cache_info().currsize == before


# Reference: a jet polynomial as a dict from tuples of jet variables, sorted
# by _var_key, to Fractions; the functions below print it in the ring's
# documented order without going through the codes.
JET_VARS = st.sampled_from(_all_vars(3)).filter(lambda v: v[0] == PSI or v[1])
TERMS = st.lists(st.tuples(st.lists(JET_VARS, max_size=4),
                           st.fractions(min_value=-5, max_value=5, max_denominator=12)),
                 max_size=6)


def _reference_terms(terms) -> dict:
    out: dict = {}
    for factors, q in terms:
        key = tuple(sorted(factors, key=_var_key))
        out[key] = out.get(key, 0) + q
    return {m: q for m, q in out.items() if q}


def _reference_ordered(ref: dict) -> list:
    return sorted(ref.items(), key=lambda item: (len(item[0]), item[0]))


def _reference_str(ref: dict) -> str:
    parts = []
    for mono, q in _reference_ordered(ref):
        body = "*".join(format_var(v) for v in mono)
        if not body:
            parts.append(str(q))
        elif abs(q) == 1:
            parts.append(body if q == 1 else f"-{body}")
        else:
            parts.append(f"{q}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _reference_latex(ref: dict) -> str:
    parts = []
    for mono, q in _reference_ordered(ref):
        symbols = ""
        for tag, index in dict.fromkeys(mono):
            rendered = rf"\{tag}_{{{''.join(map(str, index))}}}" if index else rf"\{tag}"
            power = mono.count((tag, index))
            symbols += rendered if power == 1 else f"{rendered}^{{{power}}}"
        parts.append(_join(*_frac_latex(q, lead=not parts), symbols))
    return " ".join(parts) if parts else "0"


@settings(max_examples=150, deadline=None)
@given(TERMS)
def test_printing_and_json_follow_var_key_order(terms):
    p = JetPolynomial.zero()
    for factors, q in terms:
        p = p + JetPolynomial.from_monomial(monomial_key(factors), q)
    ref = _reference_terms(terms)
    assert JetPolynomial.from_json(p.to_json()) == p
    assert p.to_json() == [{"coeff": str(q), "factors": [format_var(v) for v in mono]}
                           for mono, q in _reference_ordered(ref)]
    assert str(p) == _reference_str(ref)
    assert ring_latex(p, _SYMBOLS[JET_RING]) == _reference_latex(ref)
