from fractions import Fraction

import pytest

from starq.jets import (NABLA_PHI, PSI_NABLA_PHI, JetPolynomial, jet_var,
                        phi_jet, psi_jet, substitute_factor)
from starq.polynomials import XPoly, parse_poly


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
    assert p.eval_jets(phi) == parse_poly("x1*x2*x3")
    psi = parse_poly("x1")
    q = JetPolynomial.variable(psi_jet()) * JetPolynomial.variable(phi_jet(3))
    assert q.eval_jets(phi, psi) == parse_poly("x1^2*x2")


def test_factor_counts_and_jet_order():
    mono = (phi_jet(1), phi_jet(2, 3), psi_jet())
    p = JetPolynomial.from_monomial(mono, Fraction(1))
    assert p.max_jet_order() == 2


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
