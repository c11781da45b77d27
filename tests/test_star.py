import json
import re
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import starq.cochains
import starq.star
from starq.cli import main
from starq.cochains import (Cochain, JET_RING, X_RING, coboundary_defect, epsilon_cochain,
                            insertion_sum, linear_combination, slot_total)
from starq.jets import (NABLA_PHI, PSI_NABLA_PHI, JetPolynomial, decode, phi_jet,
                        substitute_factor)
from starq.linsolve import ColumnReducer
from starq.multiindex import all_indices, merge
from starq.opo import AbstractTerm, concretize, enumerate_terms, mirror_term
from starq.polynomials import XPoly, parse_poly
from starq.star import (ClosureError, GradingError, InfeasibleError, ObstructionError,
                        ObstructionReport, StarProduct, _flatten, assemble_rhs, base_levels,
                        build_star, check_grading, level_equation, level_step, obstruction,
                        opo_projections, parity_sign, proportional, shape_pairs, shape_system,
                        solve_level, solve_opo)
from starq.verify import (_bracket_form, _is_covariant, associator_scan, poisson_vector,
                          verify_star)

from helpers import (moyal_level, random_cochain, random_index, random_jet_coeff,
                     random_x_coeff, reference_delta_solve, reference_projections, reference_rhs,
                     reference_shape_pairs, reference_shape_system)


def test_base_levels_are_multiplication_and_half_bracket():
    levels = base_levels(NABLA_PHI, JET_RING, None, None)
    assert levels[0] == Cochain.multiplication(JET_RING)
    half_phi3 = JetPolynomial.variable(phi_jet(3)).scale(Fraction(1, 2))
    assert levels[1].coefficient(((1,), (2,))) == half_phi3
    assert levels[1].reverse_args() == levels[1].scale(-1)


@pytest.mark.parametrize("mode", [NABLA_PHI, PSI_NABLA_PHI])
def test_level_1_is_half_the_bracket_componentwise(mode):
    # the concretized one-factor diagram against (1/2) P^{ij} d_i f d_j g
    # written out from the bivector components
    half_bracket = Cochain(2, JET_RING)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                half_bracket.add_term(((i,), (j,)),
                                      substitute_factor((), i, j, mode).scale(Fraction(1, 2)))
    assert base_levels(mode, JET_RING, None, None)[1] == half_bracket


def test_proportional_compares_one_coefficient_then_the_rest():
    a = parse_poly("x1 + 2*x2")
    assert proportional(a, a.scale(Fraction(-3, 7)))
    assert not proportional(a, parse_poly("x1 - x2"))  # first coefficients match, the rest not
    assert not proportional(a, parse_poly("x2"))  # no term on a's first monomial
    zero = XPoly.zero()
    assert proportional(zero, zero)
    assert not proportional(a, zero) and not proportional(zero, a)


def test_symbolic_construction_shape(sym_star3):
    star = sym_star3
    assert star.ring == JET_RING
    assert star.gauges == {0: "base", 1: "base", 2: "opo", 3: "unique"}
    assert [len(level.terms) for level in star.levels] == [1, 6, 51, 258]
    assert all(r.is_zero for r in star.obstruction_reports)


def test_levels_satisfy_parity(sym_star3):
    for k, level in enumerate(sym_star3.levels):
        assert level.reverse_args() == level.scale(parity_sign(k))


def _random_levels(rng: Random, ring: str) -> list[Cochain]:
    """The multiplication and two to four random bilinear levels."""
    return [Cochain.multiplication(ring)] + [
        random_cochain(rng, 2, ring, max_slot_degree=rng.randint(1, 3), terms=rng.randint(1, 3))
        for _ in range(rng.randint(2, 4))]


def _bracket_sum(levels, k: int) -> Cochain:
    """The verifier's symmetric bracket form of R_k, summed as a cochain."""
    return insertion_sum(3, levels[1].ring, _bracket_form(levels, k))


def _weyl_levels(rng: Random, ring: str) -> list[Cochain]:
    """Random levels projected to Weyl parity, (1/2)(c + (-1)^l c^rev) at level l."""
    half = Fraction(1, 2)
    return [level if l == 0 else linear_combination(
        2, ring, ((half, level), (half * parity_sign(l), level.reverse_args())))
        for l, level in enumerate(_random_levels(rng, ring))]


def _lost_parity(levels, k: int) -> list[int]:
    return [l for l in range(1, k)
            if levels[l].reverse_args() != levels[l].scale(parity_sign(l))]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((JET_RING, X_RING)))
def test_one_sided_rhs_equals_symmetric_bracket_form(seed, ring):
    # the half assembly and its mirror, over levels of Weyl parity
    levels = _weyl_levels(Random(seed), ring)
    for k in range(2, len(levels) + 1):
        assert not _lost_parity(levels, k)
        assert assemble_rhs(levels, k) == _bracket_sum(levels, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((JET_RING, X_RING)))
def test_rhs_refuses_a_lower_level_without_parity(seed, ring):
    # the mirror holds over levels of Weyl parity only, so the assembly names
    # the first lower level without it
    levels = _random_levels(Random(seed), ring)
    for k in range(2, len(levels) + 1):
        lost = _lost_parity(levels, k)
        if lost:
            with pytest.raises(AssertionError, match=f"; level {lost[0]} lost its parity$"):
                assemble_rhs(levels, k)
        else:
            assert assemble_rhs(levels, k) == _bracket_sum(levels, k)


@pytest.fixture(scope="module")
def sym_rhs(sym_star3):
    """The verifier's R_k of the symbolic levels, computed once for the module."""
    return {k: _bracket_sum(sym_star3.levels, k) for k in (2, 3, 4)}


def test_one_sided_rhs_on_symbolic_levels(sym_star3, sym_rhs):
    for k in (2, 3, 4):
        assert assemble_rhs(sym_star3.levels, k) == sym_rhs[k]


def _forbidden(*args, **kwargs):
    raise AssertionError("the verifier's residual builds a side or inserts one-sidedly")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((JET_RING, X_RING)))
def test_verifier_rhs_matches_copy_based_form(seed, ring):
    """[a, b] = [b, a] for bilinear a and b, so R_k brackets each unordered
    pair of levels once: floor(k/2) pairs, both orders of a pair of distinct
    levels and one insertion of weight 1 for the self pair.  The residual
    delta(M_k) - R_k is the first term of the difference of the copy-based
    sides, and it is found without building either side, without the
    one-sided sum and without any cochain-valued insertion."""
    levels = _random_levels(Random(seed), ring)
    position = {id(level): l for l, level in enumerate(levels)}
    for k in range(2, len(levels)):
        triples = _bracket_form(levels, k)
        pairs = {frozenset((position[id(outer)], position[id(inner)]))
                 for _, outer, inner in triples}
        assert pairs == {frozenset((l, k - l)) for l in range(1, k // 2 + 1)}
        assert len(pairs) == k // 2
        assert sorted((position[id(outer)], position[id(inner)], weight)
                      for weight, outer, inner in triples) == sorted(
            [(l, k - l, 1) for l in range(1, k)])
        assert all(type(weight) is int for weight, _, _ in triples)
        expected = levels[k].hochschild_delta().first_difference(reference_rhs(levels, k))
        with mock.patch("starq.star.assemble_rhs", _forbidden), \
                mock.patch("starq.cochains.insertion_sum", _forbidden), \
                mock.patch("starq.cochains.linear_combination", _forbidden), \
                mock.patch.object(Cochain, "hochschild_delta", _forbidden):
            assert coboundary_defect(levels[k], insertions=triples) == expected


def test_verifier_residuals_are_the_bracket_forms_defects(sym_star3):
    """verify_star checks residual-k by coboundary_defect on the bracket form
    and nothing else: no R_k, one-sided or not, is assembled.  Every level of
    sym_star3 has parity and covariance, so each residual takes the orbit
    path, restricted to representative contents, with no second call."""
    calls = []

    def recording(m, target=None, insertions=(), representatives=False):
        insertions = list(insertions)
        calls.append((m, target, insertions, representatives))
        return coboundary_defect(m, target, insertions, representatives)

    levels = sym_star3.levels
    with mock.patch("starq.verify.coboundary_defect", recording), \
            mock.patch("starq.star.assemble_rhs", _forbidden), \
            mock.patch("starq.cochains.insertion_sum", _forbidden):
        assert verify_star(sym_star3)["pass"]
    assert [(m, target, representatives) for m, target, _, representatives in calls] == [
        (levels[2], None, True), (levels[3], None, True)]
    for k, (_, _, insertions, _) in zip((2, 3), calls):
        assert [(w, id(a), id(b)) for w, a, b in insertions] == [
            (w, id(a), id(b)) for w, a, b in _bracket_form(levels, k)]


def test_rhs_reversal_parity(sym_star3, sym_rhs):
    # R_k^rev = (-1)^(k+1) R_k over Weyl-type levels, at even k as at odd k
    for k in (2, 3, 4):
        rhs = sym_rhs[k]
        assert rhs.reverse_args() == rhs.scale((-1) ** (k + 1))
        assert obstruction(rhs, k, sym_star3.levels).parity_path == (k % 2 == 1)


def test_verifier_rhs_on_symbolic_levels(sym_star3, sym_rhs):
    levels = sym_star3.levels
    for k in (2, 3, 4):
        assert sym_rhs[k] == reference_rhs(levels, k)
    for k in (2, 3):
        assert coboundary_defect(levels[k], insertions=_bracket_form(levels, k)) is None
        assert coboundary_defect(levels[k], sym_rhs[k]) is None


def test_hot_kernels_construct_no_fraction(sym_star3, cubic_star, monkeypatch):
    """The coboundary, the insertion kernel, the verifier's residuals (the
    running difference of delta(M_k) and the bracket form of R_k, passing
    and failing, in full and on representative contents) and its covariance
    check, the constructor's coboundary checks, the grading check, the level
    solver, the flattened rows of the span solver and the associator scan run
    on integer numerators."""
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6) and made  # the wrapper counts
    made.clear()
    levels = sym_star3.levels
    levels[3].hochschild_delta()
    rhs = assemble_rhs(levels, 3)
    assert coboundary_defect(levels[3], insertions=_bracket_form(levels, 3)) is None
    slots, coeff = coboundary_defect(levels[3], insertions=_bracket_form(levels, 3)[:1])
    assert slots and not coeff.is_zero
    for star in (sym_star3, cubic_star):
        bracket = _bracket_form(star.levels, 3)
        assert coboundary_defect(star.levels[3], insertions=bracket, representatives=True) is None
        slots, coeff = coboundary_defect(star.levels[3], insertions=bracket[:1],
                                         representatives=True)
        assert slots and not coeff.is_zero
        assert all(_is_covariant(level, k) for k, level in enumerate(star.levels))
    assert not _is_covariant(levels[2], 3)  # level 2 with the sign of level 3
    assert coboundary_defect(rhs) is None and coboundary_defect(levels[3], rhs) is None
    check_grading(rhs, 3, NABLA_PHI)
    shape_system.cache_clear()  # the level solver builds its shape systems here too
    for star in (sym_star3, cubic_star):
        r3 = assemble_rhs(star.levels, 3)
        assert solve_level(r3, 3) == star.levels[3]
        assert _flatten(r3).terms
    assert associator_scan(cubic_star.levels, 3) is None
    assert made == []


def test_infeasible_solve_names_the_first_block_in_decoded_order():
    # phi_22 has the smaller code, phi_111 the smaller decoded monomial; the
    # determinant operator is never a coboundary, so both blocks fail
    jets = JetPolynomial.variable(phi_jet(2, 2)) + JetPolynomial.variable(phi_jet(1, 1, 1))
    rhs = Cochain(3, JET_RING, {slots: sign * jets for slots, sign
                                in epsilon_cochain(JET_RING).terms.items()})
    with pytest.raises(InfeasibleError, match=re.escape("monomial (('phi', (1, 1, 1)),)")):
        solve_level(rhs, 3)


def test_infeasible_even_solve_names_the_first_block_in_decoded_order():
    # the kept half of a level-4 coboundary: its kept rows are in the span, but
    # without its mirrored rows it lacks the parity R_4^rev = -R_4, so both
    # blocks are outside the span, and the first in decoded order is named
    jets = JetPolynomial.variable(phi_jet(2, 2)) + JetPolynomial.variable(phi_jet(1, 1, 1))
    full = Cochain(2, JET_RING, {((1, 1), (2,)): jets, ((2,), (1, 1)): jets}).hochschild_delta()
    assert solve_level(full, 4).hochschild_delta() == full
    rhs = Cochain(3, JET_RING, {slots: c for slots, c in full.terms.items()
                                if (len(slots[0]), slots[0]) <= (len(slots[2]), slots[2])})
    assert rhs != full
    with pytest.raises(InfeasibleError, match=re.escape("monomial (('phi', (1, 1, 1)),)")):
        solve_level(rhs, 4)


def test_levels_satisfy_recursion(sym_star3):
    levels = sym_star3.levels
    for k in range(2, 4):
        rhs, _ = level_equation(levels, k, NABLA_PHI)
        assert levels[k].hochschild_delta() == rhs


@pytest.mark.parametrize("name", ["sym_star3", "cubic_star"])
def test_level_step_rejects_a_perturbed_lower_level(name, request):
    star = request.getfixturevalue(name)
    levels = list(star.levels)
    bumped = Cochain(2, star.ring, dict(levels[2].terms))
    slots, coeff = bumped.sorted_terms()[0]
    bumped.terms[slots] = coeff.scale(2)  # keeps the grading, breaks the equation
    levels[2] = bumped
    # bumped on one side only, level 2 also lost its parity, which R_3 refuses
    with pytest.raises(AssertionError, match="level 2 lost its parity"):
        level_step(levels, 3, star.mode, None, False, False)
    bumped.terms[slots[::-1]] = bumped.terms[slots]  # the mirror too: parity kept
    with pytest.raises(ClosureError):
        level_step(levels, 3, star.mode, None, False, False)


def test_closure_is_checked_only_where_no_solve_implies_it(monkeypatch, capsys):
    closures = []

    def counting(m, target=None, insertions=()):
        if target is None and not insertions:
            closures.append((m.arity, m.ring))
        return coboundary_defect(m, target, insertions)

    monkeypatch.setattr("starq.star.coboundary_defect", counting)
    build_star(NABLA_PHI, 4)  # every step succeeds: its exact solve implies closure
    assert closures == []
    assert main(["obstruction", "--phi", "sym", "--k", "4"]) == 0  # solves nothing at 4
    assert capsys.readouterr().out == "level 4: zero\n"
    assert closures == [(3, JET_RING)]
    closures.clear()
    with pytest.raises(ObstructionError) as caught:
        build_star(NABLA_PHI, 4, opo_gauge_limit=0)  # a failing step checks closure first
    assert caught.value.report.level == 4
    assert closures == [(3, JET_RING)]


def test_symbolic_build_grades_each_level_once(monkeypatch):
    graded = []

    def counting(cochain, k, *args):
        graded.append(k)
        return check_grading(cochain, k, *args)

    monkeypatch.setattr("starq.star.check_grading", counting)
    build_star(NABLA_PHI, 3)
    assert graded == [2, 3]


@pytest.mark.parametrize("opo_restrict, levels", [(False, [2]), (True, [2, 3])])
def test_explicit_build_grades_its_family_once(monkeypatch, opo_restrict, levels):
    # the family is built once, up to the last level that may be re-selected
    graded = []

    def counting(cochain, k, *args):
        if cochain.ring == JET_RING:
            graded.append(k)
        return check_grading(cochain, k, *args)

    monkeypatch.setattr("starq.star.check_grading", counting)
    build_star(NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"), opo_restrict=opo_restrict)
    assert graded == levels


def test_second_level_carries_weyl_weights(sym_star3):
    # the only source of the ((1,1),(2,2)) slot pair is the two-factor
    # product diagram, whose verified weight is 1/8
    m2 = sym_star3.levels[2]
    expected = (JetPolynomial.variable(phi_jet(3))
                * JetPolynomial.variable(phi_jet(3))).scale(Fraction(1, 8))
    assert m2.coefficient(((1, 1), (2, 2))) == expected


def _phi3_power_times(k: int, jet) -> JetPolynomial:
    """jet times k - 1 factors phi_3: k phi jets in all."""
    coeff = JetPolynomial.variable(jet)
    for _ in range(k - 1):
        coeff = coeff * JetPolynomial.variable(phi_jet(3))
    return coeff


def test_grading_bookkeeping(sym_star3):
    for k in range(2, 4):
        level = sym_star3.levels[k]
        check_grading(level, k, NABLA_PHI)  # does not raise
        with pytest.raises(GradingError, match="factor counts"):
            check_grading(level, k + 1, NABLA_PHI)
        # k phi jets, one of order 2k + 2, is too many derivatives; k first
        # derivatives on two first-order slots are too few
        for jet in (phi_jet(*[3] * (2 * k + 2)), phi_jet(3)):
            term = Cochain(2, JET_RING)
            term.add_term(((1,), (2,)), _phi3_power_times(k, jet))
            with pytest.raises(GradingError, match="derivative balance"):
                check_grading(term, k, NABLA_PHI)


@pytest.fixture(scope="module")
def conformal_star2():
    return build_star(PSI_NABLA_PHI, 2, phi="sym", psi="sym")


@pytest.mark.parametrize("mode, k", [(NABLA_PHI, 2), (NABLA_PHI, 3), (NABLA_PHI, 4),
                                     (PSI_NABLA_PHI, 2), (PSI_NABLA_PHI, 3)])
def test_right_hand_sides_fill_every_slot(mode, k, request):
    """R_k spreads 3k derivatives over three nonempty slots and k phi jets of
    order at least 1, so no jet exceeds order 2k - 2."""
    star = request.getfixturevalue("sym_star3" if mode == NABLA_PHI else "conformal_star2")
    rhs, _ = level_equation(star.levels, k, mode)
    assert rhs.terms and all(all(slots) for slots in rhs.terms)
    orders = [len(index) for coeff in rhs.terms.values()
              for mono in coeff.terms for _, index in decode(mono)]
    assert max(orders) <= 2 * k - 2


def test_explicit_build_is_specialization(sym_star3, cubic_star):
    phi = parse_poly("x1*x2*x3")
    for sym_level, level in zip(sym_star3.levels, cubic_star.levels):
        assert sym_level.specialize(phi, None) == level
    family = build_star(NABLA_PHI, 3, opo_restrict=True)
    restricted = build_star(NABLA_PHI, 3, phi=phi, opo_restrict=True)
    assert len(restricted.levels) == len(family.levels) == 4
    for sym_level, level in zip(family.levels, restricted.levels):
        assert sym_level.specialize(phi, None) == level


@pytest.mark.slow
@pytest.mark.parametrize("potential", ["x1*x2*x3", "x1^2*x2 + x3^3 - x1*x3"])
def test_explicit_order_5_build_is_specialization(sym_star5, potential):
    # every level, the pivot level 4 and the unique levels 3 and 5 included:
    # a shape system depends only on the content and the parity, and each
    # block's canonical solution is linear in its right-hand side
    phi = parse_poly(potential)
    explicit = build_star(NABLA_PHI, 5, phi=phi)
    assert len(explicit.levels) == len(sym_star5.levels) == 6
    for sym_level, level in zip(sym_star5.levels, explicit.levels):
        assert sym_level.specialize(phi, None) == level


def test_constant_vector_levels_match_closed_formula(x3_star4):
    vector = poisson_vector(parse_poly("x3"), None)
    reference = [moyal_level(vector, k) for k in range(5)]
    # the orderable gauge reproduces the closed formula exactly through the
    # last uniquely determined level
    for k in range(4):
        assert x3_star4.levels[k] == reference[k]
    # the pivot-gauged top level may differ from the closed formula, but only
    # by a parity-even cocycle, so both solve the same recursion step
    gap = linear_combination(2, X_RING, ((1, x3_star4.levels[4]), (-1, reference[4])))
    assert gap.hochschild_delta().is_zero
    assert gap.reverse_args() == gap


def test_solve_delta_inverts_coboundaries():
    rng = Random(23)
    # an odd cochain of homogeneous slot totals make a legal level-3 shape
    jets = (JetPolynomial.variable(phi_jet(1))
            * JetPolynomial.variable(phi_jet(2))
            * JetPolynomial.variable(phi_jet(1, 3)))
    raw = Cochain(2, JET_RING)
    raw.add_term(((1, 2), (2, 3, 3)), jets)
    half = Fraction(1, 2)
    seed = linear_combination(2, JET_RING, ((half, raw), (-half, raw.reverse_args())))
    rhs = seed.hochschild_delta()
    check_grading(rhs, 3, NABLA_PHI)
    solved = solve_level(rhs, 3)
    assert solved.hochschild_delta() == rhs
    assert solved.reverse_args() == solved.scale(-1)


@pytest.mark.parametrize("parity", (1, -1))
@pytest.mark.parametrize("total", range(2, 8))
def test_content_systems_split_the_slot_total_system(total, parity):
    reference = reference_shape_pairs(total, parity)
    shape_system.cache_clear()  # systems built here, not ones an earlier solve used
    listed, rank, pivots = 0, 0, {}
    for content in all_indices(total):
        pairs = shape_pairs(content, parity)
        # the reference's pairs of this content, in the reference's order
        assert pairs == [p for p in reference if merge(*p) == content]
        listed += len(pairs)
        system = shape_system(content, parity)
        rank += len(system.pivots)
        pivots.update(system.pivots)
    assert listed == len(reference)
    # the same pivots, each with the same combination of the same columns, as
    # the reference restricted to the rows the content systems keep
    ref_pivots = reference_shape_system(total, parity, kept_rows=True).pivots
    assert rank == len(ref_pivots) and pivots.keys() == ref_pivots.keys()
    for lead, (rest, combo) in pivots.items():
        vec, ref_combo = ref_pivots[lead]
        assert rest.fractions() == {row: q for row, q in vec.items() if row != lead}
        assert combo.fractions() == ref_combo


def test_build_forms_no_empty_slot_in_a_coboundary(monkeypatch):
    # every R_k and M_k term is normalized, so the coboundary's self-cancelling
    # items with an empty slot are never yielded
    seen = []
    expand = starq.cochains.delta_terms

    def counted(slots):
        for expanded, q in expand(slots):
            seen.append(expanded)
            yield expanded, q

    monkeypatch.setattr(starq.cochains, "delta_terms", counted)
    monkeypatch.setattr(starq.star, "delta_terms", counted)
    shape_system.cache_clear()  # the build forms its shape systems' coboundaries too
    build_star(NABLA_PHI, 3)
    assert seen
    assert [slots for slots in seen if not all(slots)] == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_shape_columns_have_the_parity_of_the_rhs(seed, k):
    # the systems keep one row of each mirror pair, which is injective only
    # because every column's full coboundary X obeys X^rev = -(-1)^k X
    content = random_index(Random(seed), 7, min_len=2)
    parity = parity_sign(k)
    one = JetPolynomial.one()
    for a, b in shape_pairs(content, parity):
        column = Cochain(2, JET_RING, {(a, b): one})
        if a != b:
            column.terms[b, a] = one.scale(parity)
        delta = column.hochschild_delta()
        assert delta.reverse_args() == delta.scale(-parity)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((JET_RING, X_RING)),
       st.sampled_from((2, 3, 4, 5)))
def test_content_solve_matches_one_slot_total_system(seed, ring, k):
    rng = Random(seed)
    raw = Cochain(2, ring)
    for _ in range(rng.randint(1, 4)):
        slots = (random_index(rng, 3, min_len=1), random_index(rng, 3, min_len=1))
        raw.add_term(slots, random_jet_coeff(rng) if ring == JET_RING else random_x_coeff(rng))
    half = Fraction(1, 2)
    level = linear_combination(2, ring, ((half, raw), (half * parity_sign(k), raw.reverse_args())))
    rhs = level.hochschild_delta()
    assert solve_level(rhs, k) == reference_delta_solve(rhs, k)


def test_moyal_solve_builds_only_the_contents_of_its_rhs(x3_star4, monkeypatch):
    # the potential x3 puts derivatives in x1 and x2 only
    levels = x3_star4.levels
    built = []
    pairs = starq.star.shape_pairs

    def recorded(content, parity):  # called once per shape system built
        built.append((content, parity))
        return pairs(content, parity)

    monkeypatch.setattr(starq.star, "shape_pairs", recorded)
    for k in (3, 4):
        rhs, _ = level_equation(levels[:k], k, NABLA_PHI)
        shape_system.cache_clear()
        built.clear()
        assert solve_level(rhs, k) == levels[k]
        contents = {tuple(sorted(sum(slots, ()))) for slots in rhs.terms}
        assert sorted(built) == sorted((c, parity_sign(k)) for c in contents)
        assert not any(3 in content for content, _ in built)


def test_a_warm_shape_memo_changes_no_output():
    # systems depend on their key alone, so builds in both rings share them
    cubic = parse_poly("x1*x2*x3")
    shape_system.cache_clear()
    first = json.dumps(build_star(NABLA_PHI, 3, phi=cubic).to_json(), indent=2)
    build_star(NABLA_PHI, 4)
    build_star(NABLA_PHI, 4, phi=parse_poly("x3"))
    build_star(PSI_NABLA_PHI, 3, cubic, parse_poly("1+x1"))
    misses = shape_system.cache_info().misses
    again = json.dumps(build_star(NABLA_PHI, 3, phi=cubic).to_json(), indent=2)
    assert again == first
    assert shape_system.cache_info().hits > 0
    assert shape_system.cache_info().misses == misses  # the rebuild built no system


def test_obstruction_reports_roundtrip(sym_star3):
    for report in sym_star3.obstruction_reports:
        data = report.to_json()
        assert data["isZero"] is True
        assert set(data) >= {"level", "isZero", "parityPath",
                             "coordinateWitness", "alternating"}


def test_star_json_roundtrip(cubic_star):
    again = StarProduct.from_json(cubic_star.to_json())
    assert again.to_json() == cubic_star.to_json()
    assert again.gauges == cubic_star.gauges
    assert again.phi == cubic_star.phi == parse_poly("x1*x2*x3")
    for a, b in zip(again.levels, cubic_star.levels):
        assert a == b


def test_build_star_input_validation():
    with pytest.raises(ValueError):
        build_star(NABLA_PHI, 0)
    with pytest.raises(ValueError):
        build_star(PSI_NABLA_PHI, 2)  # conformal family needs psi
    with pytest.raises(ValueError):
        build_star(NABLA_PHI, 2, psi=parse_poly("x1"))
    with pytest.raises(ValueError):
        build_star("bogus-mode", 2)
    with pytest.raises(ValueError):
        build_star(PSI_NABLA_PHI, 2, phi=parse_poly("x1"), psi="sym")
    with pytest.raises(ValueError):
        build_star(PSI_NABLA_PHI, 1, "sym", "foo")  # a potential string is only "sym"
    with pytest.raises(ValueError):
        build_star(NABLA_PHI, 1, "x3")


def test_orderable_gauge_is_the_unique_solution(sym_star3):
    restricted = build_star(NABLA_PHI, 3, opo_restrict=True)
    assert restricted.gauges == {0: "base", 1: "base", 2: "opo", 3: "opo"}
    for a, b in zip(restricted.levels, sym_star3.levels):
        assert a == b


# -- the mirror rule of opo_projections ------------------------------------------------

@pytest.mark.parametrize("mode", [NABLA_PHI, PSI_NABLA_PHI])
@pytest.mark.parametrize("k", [2, 3])
def test_mirror_partner_projects_to_eps_parity_times_the_diagram(k, mode):
    # the identity that lets opo_projections keep one column per mirror pair
    half = Fraction(1, 2)

    def project(term):
        c = concretize([term], mode)
        return linear_combination(2, JET_RING,
                                  [(half, c), (half * parity_sign(k), c.reverse_args())])

    terms = enumerate_terms(k)
    keys = {term.key() for term in terms}
    for term in terms:
        mirror = mirror_term(term)
        assert mirror.key() in keys and mirror.coeff in (1, -1)
        assert concretize([mirror], mode) == concretize([term], mode).reverse_args()
        partner = AbstractTerm(Fraction(1), mirror.pairs, mirror.n_args)
        assert project(partner) == project(term).scale(mirror.coeff * parity_sign(k))
        assert mirror_term(partner).key() == term.key()


@pytest.mark.parametrize("mode", [NABLA_PHI, PSI_NABLA_PHI])
@pytest.mark.parametrize("k", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_projections_match_the_per_diagram_loop(k, mode):
    # the reference columns of the first diagram of each mirror pair are kept;
    # each later partner's is eps * (-1)^k times its kept one, so the span is
    # the same without it
    terms = enumerate_terms(k)
    index = {term.key(): idx for idx, term in enumerate(terms)}
    reference = reference_projections(k, mode)
    columns = {idx: (proj, delta) for idx, proj, delta in reference}
    kept = []
    for idx, proj, delta in reference:
        mirror = mirror_term(terms[idx])
        partner = index[mirror.key()]
        if partner >= idx:
            kept.append((idx, proj, delta))
            continue
        sign = mirror.coeff * parity_sign(k)
        assert partner in columns
        assert (proj, delta) == tuple(c.scale(sign) for c in columns[partner])
    assert opo_projections(k, mode) == kept


@pytest.mark.slow
def test_explicit_build_raises_its_obstructed_familys_report():
    # with level 2 in the orderable gauge the conformal family is obstructed
    # at level 4, so there is no family level 4 to specialize
    with pytest.raises(ObstructionError) as caught:
        build_star(PSI_NABLA_PHI, 4, parse_poly("x1*x2*x3"), parse_poly("1+x1"),
                   opo_gauge_limit=4)
    report = caught.value.report
    assert report.level == 4 and not report.is_zero
    assert report.alternating.ring == JET_RING


def test_pivot_gauge_is_obstructed_at_level_4(pivot_gauge_obstruction):
    # with every even level left in the pivot gauge the level-4 obstruction
    # is nonzero; re-selecting level 2 in the orderable span removes it, which
    # is why the construction re-selects even levels
    report = pivot_gauge_obstruction
    assert report.level == 4 and not report.is_zero
    assert not report.coordinate_witness.is_zero
    assert all(r.is_zero for r in build_star(NABLA_PHI, 4).obstruction_reports)


def test_conformal_symbolic_build_through_two_levels():
    star = build_star(PSI_NABLA_PHI, 2, phi="sym", psi="sym")
    assert star.gauges[2] == "opo"
    assert star.levels[2].reverse_args() == star.levels[2]


def test_obstruction_alternation_kills_coboundaries():
    rng = Random(31)
    c = random_cochain(rng, 2, ring=JET_RING, max_slot_degree=2, terms=3)
    report = obstruction(c.hochschild_delta(), 4, build_star(NABLA_PHI, 3).levels)
    assert report.is_zero


def test_obstruction_asserts_odd_reversal_symmetry():
    rhs = random_cochain(Random(31), 2, ring=JET_RING, max_slot_degree=2,
                         terms=3).hochschild_delta()
    assert rhs.reverse_args() != rhs
    with pytest.raises(AssertionError, match="not reversal-symmetric"):
        obstruction(rhs, 3, build_star(NABLA_PHI, 2).levels)


def test_build_refuses_a_nonzero_shortcut_under_a_zero_obstruction(monkeypatch):
    # a product stores only zero reports with zero shortcuts, so a build that
    # met any other would write a file its loader refuses
    def disagreeing(rhs, k, levels):
        return ObstructionReport(k, Cochain(3, JET_RING), JetPolynomial.one())

    monkeypatch.setattr(starq.star, "obstruction", disagreeing)
    with pytest.raises(AssertionError, match="shortcut is nonzero"):
        build_star(NABLA_PHI, 2)


# The constructor's post-assertions: each check of delta(M_k) = R_k on a
# computed level that is off in one coefficient raises its own message.

def test_solver_refuses_a_wrong_coboundary(sym_star3, monkeypatch):
    solve = ColumnReducer.solve
    bumped = []

    def off_by_one(self, rhs):
        combo = solve(self, rhs)
        if combo is not None and combo.terms and not bumped:
            key = next(iter(combo.terms))
            combo.terms[key] += combo.den  # one coefficient of one block, plus 1
            bumped.append(key)
        return combo

    monkeypatch.setattr(ColumnReducer, "solve", off_by_one)
    with pytest.raises(AssertionError, match="^solver produced a wrong coboundary$"):
        solve_level(assemble_rhs(sym_star3.levels, 3), 3)
    assert bumped


def test_span_solver_refuses_a_wrong_coboundary(sym_star3, monkeypatch):
    span = starq.star.span_combination

    def off_by_one(target, columns):
        combo = span(target, columns)
        first = min(combo)
        return {**combo, first: combo[first] + 1}

    monkeypatch.setattr(starq.star, "span_combination", off_by_one)
    rhs = assemble_rhs(sym_star3.levels, 2)
    with pytest.raises(AssertionError,
                       match="^diagram-span solver produced a wrong coboundary$"):
        solve_opo(rhs, opo_projections(2, NABLA_PHI))


def test_explicit_build_refuses_a_wrong_specialization(monkeypatch):
    specialize = Cochain.specialize

    def off_by_one(self, phi, psi):
        image = specialize(self, phi, psi)
        if max(map(slot_total, self.terms)) > 2:  # a re-selected level, not level 1
            slots, coeff = image.sorted_terms()[0]
            image.terms[slots] = coeff + XPoly.one()
        return image

    monkeypatch.setattr(Cochain, "specialize", off_by_one)
    with pytest.raises(AssertionError,
                       match="^specialized orderable solution fails the explicit recursion$"):
        build_star(NABLA_PHI, 2, phi=parse_poly("x1*x2*x3"))
