from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_concretize, reference_enumerate
from starq.cochains import X_RING
from starq.jets import NABLA_PHI, PSI_NABLA_PHI, substitute_factor
from starq.multiindex import all_indices
from starq.opo import (AbstractTerm, abstract_bracket, abstract_delta,
                       canonical_term, concretize, double_bracket_terms,
                       enumerate_terms, is_opo, jacobi_example_opo_term,
                       jacobi_example_terms, non_orderable_example, parse_term,
                       poisson_term, term_to_text)


def test_reference_terms_orderability():
    assert is_opo(poisson_term())[0]
    for t in double_bracket_terms():
        assert is_opo(t)[0]
    ok, witness = is_opo(non_orderable_example())
    assert not ok and witness is None


def test_self_differentiation_is_never_orderable():
    # a factor consuming its own upper index cannot stand to its own right
    term = parse_term("dP(i;i,j) @1(j) @2()")
    assert not is_opo(term)[0]


def test_arrangement_witness_is_a_valid_order():
    term = parse_term("P(i,s) dP(s;j,k) @1(i,j) @2(k)")
    ok, arrangement = is_opo(term)
    assert ok
    # the witness lists every factor exactly once
    assert sorted(arrangement) == list(range(term.n_factors))


def test_parse_text_roundtrip():
    for text in ("P(i,j) @1(i) @2(j)",
                 "dP(r;i,s) dP(s;j,r) @1(i) @2(j)",
                 "P(i,s) dP(s;j,k) @1(i,j) @2(k)"):
        term = parse_term(text)
        again = parse_term(term_to_text(term))
        assert again == term


def test_parse_rejects_malformed():
    for bad in ("P(i,j) @1(i)",            # dangling upper j
                "P(i,i) @1(i)",            # repeated label in one factor
                "@1(i) @2(j)",             # no factor owns the uppers
                "P(i,j) @0(i) @1(j)",      # argument numbering starts at 1
                "Q(i,j) @1(i) @2(j)"):     # unknown factor head
        with pytest.raises(ValueError):
            parse_term(bad)


def test_enumeration_counts():
    assert [len(enumerate_terms(n)) for n in (1, 2, 3)] == [1, 10, 108]
    assert [len(enumerate_terms(n, require_opo=True)) for n in (1, 2, 3)] == [1, 3, 12]


def test_orderable_subset_consistency():
    for n in (1, 2, 3):
        everything = enumerate_terms(n)
        orderable = [t for t in everything if is_opo(t)[0]]
        assert len(orderable) == len(enumerate_terms(n, require_opo=True))


def test_jacobi_analogue_concretizes_to_zero_in_both_modes():
    terms = jacobi_example_terms()
    for mode in (NABLA_PHI, PSI_NABLA_PHI):
        assert concretize(terms, mode).is_zero
    lone = concretize(jacobi_example_opo_term(), NABLA_PHI)
    assert not lone.is_zero


def test_self_contraction_dies_in_gradient_mode():
    # P contracted against its own derivative along the same label chain
    # vanishes because the gradient bivector is divergence free
    term = parse_term("dP(i;i,j) @1(j) @2()")
    assert concretize(term, NABLA_PHI).is_zero


def test_poisson_term_concretizes_to_bracket():
    c = concretize(poisson_term(), NABLA_PHI)
    # six epsilon entries, each a first jet of the potential
    assert c.term_count() == 6
    assert c.reverse_args() == c.scale(-1)


def test_delta_closure_spot_checks():
    rng = Random(3)
    pool = enumerate_terms(2, require_opo=True) + enumerate_terms(3, require_opo=True)
    nonempty = 0
    for term in pool:
        expansion = abstract_delta(term)
        nonempty += bool(expansion)
        for piece in expansion:
            assert is_opo(piece)[0]
    assert nonempty > 0


def test_bracket_closure_spot_checks():
    one = poisson_term()
    twos = enumerate_terms(2, require_opo=True)
    produced = 0
    for t in twos:
        for piece in abstract_bracket(one, t) + abstract_bracket(t, one):
            produced += 1
            assert is_opo(piece)[0]
    assert produced > 0


# -- the fast kernels against the brute-force references in tests/helpers.py -----------

MODES = st.sampled_from((NABLA_PHI, PSI_NABLA_PHI))
POOL = [t for n in (1, 2, 3) for t in enumerate_terms(n)]  # non-orderable ones included
COEFFS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def diagram_lists(draw):
    """Random lists of scaled diagrams, some of them cancelling exactly."""
    terms = [draw(st.sampled_from(POOL)).scale(draw(COEFFS))
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        terms.append(terms[0].scale(-1))  # a diagram and its negative
    if draw(st.booleans()):
        q = draw(COEFFS)
        terms += [t.scale(q) for t in jacobi_example_terms()]  # sums to zero
    return draw(st.permutations(terms))


@settings(max_examples=20, deadline=None)
@given(diagram_lists(), MODES)
def test_concretize_matches_reference(terms, mode):
    assert concretize(terms, mode) == reference_concretize(terms, mode)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_enumeration_matches_filtered_reference(n):
    for require_opo in (True, False):
        fast, slow = enumerate_terms(n, require_opo), reference_enumerate(n, require_opo)
        assert [(t.coeff, t.key()) for t in fast] == [(t.coeff, t.key()) for t in slow]


def test_generated_diagrams_are_orderable():
    for n in (1, 2, 3, 4):
        assert all(is_opo(t)[0] for t in enumerate_terms(n, require_opo=True))


@settings(max_examples=20, deadline=None)
@given(diagram_lists(), MODES)
def test_memoized_substitution_shares_nothing_mutable(terms, mode):
    first = concretize(terms, mode)
    assert concretize(terms, mode) == first
    for index in (ix for length in range(5) for ix in all_indices(length)):
        for i, j in product((1, 2, 3), repeat=2):
            assert substitute_factor(index, i, j, mode) == (
                substitute_factor.__wrapped__(index, i, j, mode))


@pytest.mark.slow
def test_four_factor_diagrams_match_references():
    orderable = enumerate_terms(4, require_opo=True)
    assert len(orderable) == 74
    assert [t.key() for t in orderable] == [t.key() for t in reference_enumerate(4, True)]
    for mode in (NABLA_PHI, PSI_NABLA_PHI):
        for term in orderable:
            assert concretize(term, mode) == reference_concretize([term], mode)
