from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from starq import cochains
from starq.cochains import (Cochain, JET_RING, X_RING, _running_sums, coboundary_defect,
                            delta_terms, epsilon_cochain, insertion_sum, linear_combination,
                            ring_class, slot_total)
from starq.jets import S3, JetPolynomial, phi_jet, psi_jet
from starq.polynomials import XPoly, parse_poly

from helpers import (bracket, eval_args, insert, random_cochain, reference_antisymmetrize,
                     reference_combination, reference_delta_terms, reference_hochschild_delta,
                     reference_insert, reference_is_covariant, reference_relabeled, relabeled,
                     symmetrized)


def test_delta_terms_preserve_slot_totals():
    slots = ((1, 2), (3,))
    for expanded, sign in delta_terms(slots):
        assert slot_total(expanded) == slot_total(slots)
        assert len(expanded) == len(slots) + 1


def _summed(items) -> dict:
    out: dict = {}
    for slots, q in items:
        out[slots] = out.get(slots, 0) + q
    return {slots: q for slots, q in out.items() if q}


SLOT_TUPLES = st.lists(st.lists(st.sampled_from((1, 2, 3)), max_size=3).map(
    lambda s: tuple(sorted(s))), min_size=1, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@example(((1, 1, 2), (3,), (2, 3)))
@example(((1, 2), (), (3,)))
@example(((),))
@given(SLOT_TUPLES)
def test_delta_terms_sum_to_the_full_leibniz_expansion(slots):
    items = list(delta_terms(slots))
    assert _summed(items) == _summed(reference_delta_terms(slots))
    if all(slots):
        # the self-cancelling items with an empty slot are never formed
        assert all(all(expanded) for expanded, _ in items)


def test_delta_terms_of_first_order_slots_is_empty():
    assert list(delta_terms(((1,), (2,), (3,)))) == []


def test_delta_squares_to_zero_randomized_small():
    rng = Random(2024)
    for arity in (1, 2, 3):
        for _ in range(10):
            c = random_cochain(rng, arity)
            assert c.hochschild_delta().hochschild_delta().is_zero


def test_delta_of_multiplication_vanishes():
    assert Cochain.multiplication(X_RING).hochschild_delta().is_zero


def test_delta_never_differentiates_coefficients():
    # a coefficient with x-dependence passes through the slot expansion intact
    c = Cochain(2, X_RING)
    c.add_term(((1,), (2,)), parse_poly("x1*x3"))
    d = c.hochschild_delta()
    for slots, coeff in d.terms.items():
        assert coeff in (parse_poly("x1*x3"), -parse_poly("x1*x3"))


def test_eval_args_is_derivation_pairing():
    c = Cochain(2, X_RING)
    c.add_term(((1,), (2, 3)), parse_poly("x2"))
    f, g = parse_poly("x1^2"), parse_poly("x2*x3^2")
    # x2 * d1(x1^2) * d23(x2 x3^2) = x2 * 2 x1 * 2 x3
    assert eval_args(c, (f, g)) == parse_poly("4*x1*x2*x3")


def test_delta_matches_associativity_defect_pattern():
    # for a biderivation the coboundary is identically zero
    poisson = Cochain(2, X_RING)
    poisson.add_term(((1,), (2,)), XPoly.one())
    poisson.add_term(((2,), (1,)), -XPoly.one())
    assert poisson.hochschild_delta().is_zero


def test_bracket_of_odd_pair_is_symmetric():
    rng = Random(7)
    a = random_cochain(rng, 2, max_slot_degree=2, terms=2)
    b = random_cochain(rng, 2, max_slot_degree=2, terms=2)
    assert bracket(a, b) == bracket(b, a)


def test_insert_composition_on_explicit_args():
    rng = Random(11)
    a = random_cochain(rng, 2, ring=X_RING, max_slot_degree=2, terms=2)
    b = random_cochain(rng, 2, ring=X_RING, max_slot_degree=2, terms=2)
    f, g, h = parse_poly("x1^2*x2"), parse_poly("x3^2"), parse_poly("x1*x2*x3")
    composed = insert(a, b)
    direct = (eval_args(a, (eval_args(b, (f, g)), h))
              - eval_args(a, (f, eval_args(b, (g, h)))))
    assert eval_args(composed, (f, g, h)) == direct


def test_reverse_and_scale_define_parity():
    rng = Random(5)
    c = random_cochain(rng, 2, terms=3)
    sym = linear_combination(2, c.ring, ((1, c), (1, c.reverse_args())))
    assert sym.reverse_args() == sym


def test_antisymmetrize_kills_symmetric_part():
    c = Cochain(3, X_RING)
    c.add_term(((1,), (1,), (2,)), XPoly.one())
    alt = c.antisymmetrize()
    # slots symmetric in the first two arguments alternate to zero
    assert alt.is_zero


def test_epsilon_cochain_is_alternating_unit():
    eps = epsilon_cochain(X_RING)
    assert eps.coefficient(((1,), (2,), (3,))) == XPoly.one()
    assert eps.coefficient(((2,), (1,), (3,))) == -XPoly.one()
    assert eps.antisymmetrize() == eps


def test_specialize_commutes_with_delta():
    rng = Random(13)
    phi = parse_poly("x1*x2*x3 + x3^2")
    psi = parse_poly("x1 + 2")
    c = random_cochain(rng, 2, ring=JET_RING, max_slot_degree=3, terms=3)
    left = c.hochschild_delta().specialize(phi, psi)
    right = c.specialize(phi, psi).hochschild_delta()
    assert left == right


@pytest.mark.parametrize("jet, phi, psi, message", [
    (phi_jet(1), None, parse_poly("x1"), "phi jets present but no phi given"),
    (psi_jet(2), parse_poly("x1"), None, "psi jets present but no psi given")])
def test_specialize_names_the_missing_potential(jet, phi, psi, message):
    c = Cochain(2, JET_RING, {((1,), (2,)): JetPolynomial.variable(jet)})
    with pytest.raises(ValueError, match=f"^{message}$"):
        c.specialize(phi, psi)


def test_json_roundtrip_both_rings():
    rng = Random(17)
    for ring in (JET_RING, X_RING):
        c = random_cochain(rng, 2, ring=ring)
        assert Cochain.from_json(c.to_json()) == c


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        eval_args(Cochain(2, X_RING), (XPoly.one(),))


# -- accumulating kernels against the add_term formulas they replace ---------------

RINGS = st.sampled_from((JET_RING, X_RING))


def _operand(rng: Random, arity: int, ring: str) -> Cochain:
    """Random cochain with empty slots allowed, so it is often not
    normalized; now and then the bare multiplication."""
    if arity == 2 and rng.random() < 0.1:
        return Cochain.multiplication(ring)
    return random_cochain(rng, arity, ring, max_slot_degree=rng.randint(1, 3),
                          terms=rng.randint(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.sampled_from((2, 3)), st.sampled_from((2, 3)))
def test_insert_matches_reference(seed, ring, p, q):
    rng = Random(seed)
    a, b = _operand(rng, p, ring), _operand(rng, q, ring)
    full = reference_insert(a, b)
    assert insert(a, b) == full
    # every shape of the full product, plus one that never occurs in it
    shapes = {tuple(len(s) for s in slots) for slots in full.terms}
    shapes.add((9,) * (p + q - 1))
    for degrees in shapes:
        assert insert(a, b, degrees) == full.degree_part(degrees)
    if p == q == 2:
        assert bracket(a, b, (1, 1, 1)) == bracket(a, b).degree_part((1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.sampled_from((2, 3)), st.sampled_from((2, 3)))
def test_insertion_sum_on_a_set_of_degree_tuples_sums_their_parts(seed, ring, p, q):
    # one pass over several slot-length tuples, one of them never hit, gives
    # the sum of each tuple's part
    rng = Random(seed)
    triples = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                _operand(rng, p, ring), _operand(rng, q, ring)) for _ in range(rng.randint(1, 3))]
    full = insertion_sum(p + q - 1, ring, triples)
    shapes = sorted({tuple(len(s) for s in slots) for slots in full.terms})
    degrees = set(rng.sample(shapes, rng.randint(0, len(shapes)))) | {(9,) * (p + q - 1)}
    assert insertion_sum(p + q - 1, ring, triples, degrees) == linear_combination(
        p + q - 1, ring, ((1, full.degree_part(d)) for d in degrees))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS)
def test_reversal_of_an_insertion_is_minus_the_insertion_of_the_reversals(seed, ring):
    # (a o b)^rev = -(a^rev o b^rev) for bilinear a and b: the identity that
    # lets star.assemble_rhs mirror half of R_k
    rng = Random(seed)
    a, b = _operand(rng, 2, ring), _operand(rng, 2, ring)
    assert insert(a, b).reverse_args() == insert(a.reverse_args(), b.reverse_args()).scale(-1)


# Weights pinned on one operand pair: a weight of 0, alone or beside another,
# gives contributions with multiplier 0, and weights that cancel give sums
# that cancel exactly.  Random weights seldom produce either.
PINNED_WEIGHTS = ((0,), (0, Fraction(2, 3)), (Fraction(1, 2), Fraction(-1, 2)),
                  (1, Fraction(-1, 3), Fraction(-2, 3)))


def _pinned_examples(**arities):
    """One @example per pinned weight tuple, in both rings."""
    def decorate(test):
        for n, weights in enumerate(PINNED_WEIGHTS):
            for ring in (JET_RING, X_RING):
                test = example(seed=n, ring=ring, weights=weights, **arities)(test)
        return test
    return decorate


@settings(max_examples=60, deadline=None)
@_pinned_examples(p=2, q=2)
@_pinned_examples(p=3, q=2)
@given(seed=st.integers(0, 2 ** 32), ring=RINGS, p=st.sampled_from((2, 3)),
       q=st.sampled_from((2, 3)), weights=st.none())
def test_bracket_and_insertion_sum_match_reference(seed, ring, p, q, weights):
    rng = Random(seed)
    a, b = _operand(rng, p, ring), _operand(rng, q, ring)
    sign = (-1) ** ((p - 1) * (q - 1))
    assert bracket(a, b) == reference_combination(
        p + q - 1, ring, ((1, reference_insert(a, b)), (-sign, reference_insert(b, a))))
    # weighted insertions of several pairs, against copies folded one by one
    if weights is None:
        triples = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    _operand(rng, p, ring), _operand(rng, q, ring))
                   for _ in range(rng.randint(0, 3))]
    else:
        triples = [(weight, a, b) for weight in weights]
    folded = reference_combination(p + q - 1, ring, [(weight, reference_insert(outer, inner))
                                                     for weight, outer, inner in triples])
    assert insertion_sum(p + q - 1, ring, triples) == folded
    for degrees in {tuple(len(s) for s in slots) for slots in folded.terms}:
        assert insertion_sum(p + q - 1, ring, triples, {degrees}) == folded.degree_part(degrees)


def _one_monomial(c: Cochain) -> Cochain:
    """c with each coefficient cut to its first monomial."""
    cls = ring_class(c.ring)
    return Cochain(c.arity, c.ring, {
        slots: cls.from_numerators(dict(list(coeff.terms.items())[:1]), coeff.den)
        for slots, coeff in c.terms.items()})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.sampled_from((2, 3)), st.sampled_from((2, 3)))
def test_insertion_sum_of_one_monomial_coefficients_matches_reference(seed, ring, p, q):
    # every product then takes the one-term path of SparsePoly.product_terms
    rng = Random(seed)
    a, b = _one_monomial(_operand(rng, p, ring)), _one_monomial(_operand(rng, q, ring))
    weight = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    full = reference_insert(a, b).scale(weight)
    assert insertion_sum(p + q - 1, ring, [(weight, a, b)]) == full
    for degrees in {tuple(len(s) for s in slots) for slots in full.terms}:
        assert insertion_sum(p + q - 1, ring, [(weight, a, b)], {degrees}) == \
            full.degree_part(degrees)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.sampled_from((2, 3)))
def test_self_bracket_is_one_insertion(seed, ring, p):
    a = _operand(Random(seed), p, ring)
    counted = []

    def counting(arity, ring, insertions, degrees=None):
        insertions = list(insertions)
        counted.append(len(insertions))
        return insertion_sum(arity, ring, insertions, degrees)

    sign = (-1) ** ((p - 1) * (p - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cochains, "insertion_sum", counting)
        assert bracket(a, a) == reference_insert(a, a).scale(1 - sign)
        ones = (1,) * (2 * p - 1)
        assert bracket(a, a, ones) == bracket(a, a).degree_part(ones)
    assert counted == [1, 1, 1]  # one insertion per bracket


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.sampled_from((1, 2, 3)))
def test_hochschild_delta_matches_reference(seed, ring, arity):
    c = _operand(Random(seed), arity, ring)
    assert c.hochschild_delta() == reference_hochschild_delta(c)


def _off_by_one_coefficient(c: Cochain, rng: Random) -> Cochain:
    """c with one coefficient doubled, or with a unit term added when c is zero."""
    out = Cochain(c.arity, c.ring, dict(c.terms))
    if not c.terms:
        out.add_term(((1,),) * c.arity, ring_class(c.ring).one())
    else:
        slots, coeff = c.sorted_terms()[rng.randrange(len(c.terms))]
        out.terms[slots] = coeff + coeff
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.sampled_from((1, 2, 3)))
def test_coboundary_defect_is_the_first_difference_of_the_two_sides(seed, ring, arity):
    """delta(m) - target as one running difference: None exactly when
    delta(m) == target, else the first term of the difference of the sides
    built as cochains, for random targets, delta(m) itself and delta(m) off
    in one coefficient."""
    rng = Random(seed)
    m = _operand(rng, arity, ring)
    delta = m.hochschild_delta()
    zero = Cochain(arity + 1, ring)
    for target in (_operand(rng, arity + 1, ring), delta, _off_by_one_coefficient(delta, rng),
                   zero):
        defect = coboundary_defect(m, target)
        assert (defect is None) == (delta == target)
        assert defect == delta.first_difference(target)
    assert coboundary_defect(m) == delta.first_difference(zero)
    with pytest.raises(ValueError):
        coboundary_defect(m, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS)
def test_coboundary_defect_subtracts_weighted_insertions(seed, ring):
    rng = Random(seed)
    m, target = _operand(rng, 2, ring), _operand(rng, 3, ring)
    triples = [(rng.choice((1, -1, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))),
                _operand(rng, 2, ring), _operand(rng, 2, ring))
               for _ in range(rng.randint(1, 3))]
    rhs = reference_combination(3, ring, [(1, target)] + [
        (weight, reference_insert(outer, inner)) for weight, outer, inner in triples])
    assert coboundary_defect(m, target, triples) == m.hochschild_delta().first_difference(rhs)
    # the insertions that make delta(m) exactly: the defect vanishes
    rest = linear_combination(3, ring, ((1, m.hochschild_delta()), (-1, insertion_sum(
        3, ring, triples))))
    assert coboundary_defect(m, rest, triples) is None


@settings(max_examples=30, deadline=None)
@_pinned_examples()
@given(seed=st.integers(0, 2 ** 32), ring=RINGS, weights=st.none())
def test_antisymmetrize_and_combination_match_reference(seed, ring, weights):
    rng = Random(seed)
    c = _operand(rng, 3, ring)
    assert c.antisymmetrize() == reference_antisymmetrize(c)
    if weights is None:
        pairs = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), _operand(rng, 2, ring))
                 for _ in range(rng.randint(0, 3))]
    else:
        term = _operand(rng, 2, ring)
        pairs = [(weight, term) for weight in weights]
    assert linear_combination(2, ring, pairs) == reference_combination(2, ring, pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS)
def test_first_difference_is_the_first_term_of_the_difference(seed, ring):
    # b shares some of a's slot tuples, with the same or another coefficient,
    # and has slot tuples of its own, so keys on one side only occur
    rng = Random(seed)
    a = random_cochain(rng, rng.choice((2, 3)), ring=ring, max_slot_degree=2,
                       terms=rng.randint(0, 5))
    b = random_cochain(rng, a.arity, ring=ring, max_slot_degree=2, terms=rng.randint(0, 3))
    for slots, c in a.terms.items():
        roll = rng.random()
        if roll < 0.4:
            b.terms[slots] = c
        elif roll < 0.6:
            b.terms[slots] = c + c
    assert a.first_difference(a) is None
    if a == b:
        assert a.first_difference(b) is None
        return
    difference = linear_combination(a.arity, ring, ((1, a), (-1, b)))
    assert a.first_difference(b) == difference.sorted_terms()[0]
    slots, coeff = b.first_difference(a)
    assert (slots, -coeff) == a.first_difference(b)


def test_insert_rejects_degree_tuple_of_wrong_length():
    a = Cochain.multiplication(X_RING)
    with pytest.raises(ValueError):
        insert(a, a, (1, 1))


# -- relabeling the coordinates, and sums on orbit representatives --------------------

def _representative(slots) -> bool:
    """The counts n_a of each index a over all slots obey n_1 >= n_2 >= n_3."""
    n1, n2, n3 = (sum(index.count(a) for index in slots) for a in (1, 2, 3))
    return n1 >= n2 >= n3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS)
def test_relabel_is_the_coordinate_relabeling_and_an_action(seed, ring):
    # each sigma of S3 relabels slots, jets and x-exponents as the reference
    # does term by term, and relabeling by sigma then tau is relabeling by tau sigma
    rng = Random(seed)
    c = _operand(rng, rng.randint(1, 3), ring)
    for s, (sigma, _) in enumerate(S3):
        assert relabeled(c, s) == reference_relabeled(c, sigma)
        for t, (tau, _) in enumerate(S3):
            composite = tuple(tau[a - 1] for a in sigma)
            u = next(u for u, (rho, _) in enumerate(S3) if rho == composite)
            assert relabeled(relabeled(c, s), t) == relabeled(c, u)
    k = rng.randint(0, 3)
    assert reference_is_covariant(symmetrized(c, k), k)


def _orbit_operand(rng: Random, arity: int, ring: str, k, covariant: bool) -> Cochain:
    c = _operand(rng, arity, ring)
    return symmetrized(c, k) if covariant else c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS, st.booleans(), st.sampled_from((2, 3)),
       st.sampled_from((2, 3)))
def test_representative_sums_are_the_full_sums_on_representative_contents(seed, ring, covariant,
                                                                         p, q):
    """With representatives, the running sums of the coboundary, of a pair
    and of insertions, with or without target degrees, are the full sums
    restricted to the slot tuples of representative content, over the same
    denominator, on covariant operands and on any others."""
    rng = Random(seed)
    k = rng.randint(1, 4)
    operand = _orbit_operand
    insertions = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   operand(rng, p, ring, k, covariant), operand(rng, q, ring, k, covariant))
                  for _ in range(rng.randint(1, 3))]
    full_shapes = sorted({tuple(map(len, slots))
                          for slots in insertion_sum(p + q - 1, ring, insertions).terms})
    degrees = set(rng.sample(full_shapes, rng.randint(0, len(full_shapes))))
    parts = [(p + 1, {"delta_of": operand(rng, p, ring, k, covariant)}),
             (p, {"pairs": [(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                             operand(rng, p, ring, k, covariant))]}),
             (p + q - 1, {"insertions": insertions}),
             (p + q - 1, {"insertions": insertions, "degrees": degrees})]
    for arity, part in parts:
        full, den = _running_sums(arity, ring, **part)
        pruned, pruned_den = _running_sums(arity, ring, representatives=True, **part)
        assert pruned_den == den
        assert {slots: acc.terms for slots, acc in pruned.items() if acc.terms} == {
            slots: acc.terms for slots, acc in full.items()
            if acc.terms and _representative(slots)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), RINGS)
def test_restricted_defect_vanishes_exactly_with_the_full_one_on_covariant_operands(seed, ring):
    """delta(m) - target - insertions is covariant when m, the target and the
    insertion operands are, so its representative contents decide whether it
    vanishes; off covariance they need not."""
    rng = Random(seed)
    k, l = rng.randint(2, 5), rng.randint(1, 2)
    a, b = symmetrized(_operand(rng, 2, ring), l), symmetrized(_operand(rng, 2, ring), k - l)
    m = symmetrized(_operand(rng, 2, ring), k)
    triples = [(1, a, b), (Fraction(rng.randint(-3, 3), 2), b, a)]
    exact = linear_combination(3, ring, ((1, m.hochschild_delta()),
                                         (-1, insertion_sum(3, ring, triples))))
    off = symmetrized(_operand(rng, 3, ring), k)
    for target in (exact, linear_combination(3, ring, ((1, exact), (1, off))), off,
                   Cochain(3, ring)):
        full = coboundary_defect(m, target, triples)
        assert (coboundary_defect(m, target, triples, representatives=True) is None) == (
            full is None)
    # one term off its orbit breaks covariance, and may lie off the representatives
    slots = ((2,), (2, 3), (3,))
    assert not _representative(slots)
    lone = Cochain(3, ring, {slots: ring_class(ring).one()})
    broken = linear_combination(3, ring, ((1, exact), (1, lone)))
    assert coboundary_defect(m, broken, triples) is not None
    assert coboundary_defect(m, broken, triples, representatives=True) is None
