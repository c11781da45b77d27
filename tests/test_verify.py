import json
from fractions import Fraction
from functools import cache
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import starq.verify
from starq.cli import main
from starq.cochains import Cochain, JET_RING, X_RING, coboundary_defect, linear_combination
from starq.jets import NABLA_PHI, PSI_NABLA_PHI, JetPolynomial, phi_jet
from starq.polynomials import XPoly, parse_poly
from starq.star import StarProduct, build_star
from starq.verify import (_ONE, _Evaluator, _bracket_form, _has_weyl_parity, _is_covariant,
                          _is_unital, _monomial_triples, associator_scan, jacobi_residual,
                          poisson_vector, verify_star)

from helpers import (commutator, eval_args, moyal_level, random_cochain, random_index,
                     random_x_coeff, reference_associator, reference_is_covariant,
                     reference_scan, symmetrized)


def test_jacobi_residual_reference_values():
    grad = poisson_vector(parse_poly("x1*x2*x3"), None)
    assert jacobi_residual(grad).is_zero
    rotation = (parse_poly("x3"), parse_poly("x1"), parse_poly("x2"))
    assert jacobi_residual(rotation) == parse_poly("x1 + x2 + x3")
    conformal = poisson_vector(parse_poly("x2"), parse_poly("x1"))
    assert jacobi_residual(conformal).is_zero


def test_jacobi_residual_symbolic_in_both_modes():
    assert jacobi_residual(poisson_vector("sym", None)).is_zero  # every gradient vector
    assert jacobi_residual(poisson_vector("sym", "sym")).is_zero  # every conformal one


def test_moyal_level_examples():
    p = (XPoly.zero(), XPoly.zero(), XPoly.one())
    m2 = moyal_level(p, 2)
    eighth = XPoly.const(Fraction(1, 8))
    quarter = XPoly.const(Fraction(-1, 4))
    assert m2.coefficient(((1, 1), (2, 2))) == eighth
    assert m2.coefficient(((1, 2), (1, 2))) == quarter
    assert m2.coefficient(((2, 2), (1, 1))) == eighth
    assert len(m2.terms) == 3
    assert moyal_level(p, 0) == Cochain.multiplication(X_RING)


def test_moyal_level_rejects_nonconstant():
    p = poisson_vector(parse_poly("x1*x2*x3"), None)
    with pytest.raises(ValueError):
        moyal_level(p, 1)


def test_moyal_self_associativity_spot():
    p = (XPoly.zero(), XPoly.zero(), XPoly.one())
    levels = [moyal_level(p, k) for k in range(4)]
    f, g, h = (2, 0, 0), (0, 1, 0), (1, 1, 0)  # x1^2, x2, x1*x2
    assert all(c.is_zero for c in _Evaluator(levels).associator(f, g, h))


def test_commutator_probe_examples(x3_star4, sphere_star):
    series = commutator(x3_star4.levels, XPoly.var(1), XPoly.var(2))
    assert [str(c) for c in series] == ["0", "1", "0", "0", "0"]
    series = commutator(sphere_star.levels, XPoly.var(1), XPoly.var(2))
    assert series[1] == parse_poly("x3")
    assert all(series[k].is_zero for k in (0, 2))
    same = commutator(sphere_star.levels, XPoly.var(2), XPoly.var(2))
    assert all(c.is_zero for c in same)


def test_star_series_level_zero_is_product(cubic_star):
    f, g = parse_poly("x1 + x2"), parse_poly("x3^2")
    series = [eval_args(level, (f, g)) for level in cubic_star.levels]
    assert series[0] == f * g
    assert _Evaluator(cubic_star.levels).pair((1, 0, 0), (0, 0, 2))[0] == parse_poly("x1*x3^2")


def test_verify_star_accepts_genuine_products(cubic_star, sphere_star):
    for star in (cubic_star, sphere_star):
        report = verify_star(star)
        assert report["pass"]
        names = {c["name"] for c in report["checks"]}
        assert {"units", "parity-1", "residual-2", "associator",
                "commutator-bracket"} <= names
        assert report["checks"][-1]["name"] == "commutator-bracket"
        assert all(c["residual"] == "0" for c in report["checks"])


def test_verify_star_structural_checks_on_jet_ring(sym_star3):
    report = verify_star(sym_star3)
    assert report["pass"]
    names = {c["name"] for c in report["checks"]}
    assert "associator" not in names  # no explicit arguments in the jet ring
    assert {"units", "parity-3", "residual-3", "commutator-bracket"} <= names


def _mutate(star: StarProduct, level: int, slots, bump) -> StarProduct:
    copy = StarProduct.from_json(star.to_json())
    coeff = copy.levels[level].terms[slots]
    copy.levels[level].terms[slots] = coeff + bump
    return copy


def test_mutation_of_unit_level_names_constant_triple(cubic_star):
    bad = _mutate(cubic_star, 0, ((), ()), XPoly.const(Fraction(1, 2)))
    report = verify_star(bad)
    assert not report["pass"]
    failing = next(c for c in report["checks"] if not c["pass"])
    assert failing["name"] == "units"
    assert failing["witness"] == ["1", "1", "1"]


def test_mutation_off_diagonal_breaks_parity(cubic_star):
    # an odd level that is no longer antisymmetric
    bump = XPoly.var(1)
    bad = StarProduct.from_json(cubic_star.to_json())
    bad.levels[1].add_term(((1,), (2,)), bump)
    report = verify_star(bad)
    failing = next(c for c in report["checks"] if not c["pass"])
    assert failing["name"] == "parity-1"
    assert failing["witness"] == ["x1", "x2", "1"]
    assert failing["residual"] == str(bump)


def test_commutator_evenness_names_the_first_failing_probe(cubic_star):
    # an even level that is no longer symmetric has a nonzero commutator on
    # (x1, x2); parity-2 is the check that names that probe first
    bad = StarProduct.from_json(cubic_star.to_json())
    bad.levels[2].add_term(((1,), (2,)), XPoly.const(Fraction(2, 5)))
    series = commutator(bad.levels, XPoly.var(1), XPoly.var(2))
    assert not series[2].is_zero
    report = verify_star(bad)
    failing = next(c for c in report["checks"] if not c["pass"])
    assert failing["name"] == "parity-2"
    assert failing["witness"] == ["x1", "x2", "1"]
    assert failing["residual"] == str(series[2])


def test_mutation_on_diagonal_breaks_residual(cubic_star):
    # a diagonal slot pair is parity-invariant at even levels; the recursion
    # residual is what exposes it, naming an associator witness triple
    diagonal = next(s for s in cubic_star.levels[2].terms if s == s[::-1])
    bad = _mutate(cubic_star, 2, diagonal, XPoly.const(Fraction(1, 3)))
    report = verify_star(bad)
    assert not report["pass"]
    failing = next(c for c in report["checks"] if not c["pass"])
    assert failing["name"] == "residual-2"
    assert failing["witness"] is not None and len(failing["witness"]) == 3


def test_mutated_residual_witness_is_a_real_associator_failure(cubic_star):
    diagonal = next(s for s in cubic_star.levels[2].terms if s == s[::-1])
    bad = _mutate(cubic_star, 2, diagonal, XPoly.const(Fraction(1, 3)))
    report = verify_star(bad)
    failing = next(c for c in report["checks"] if not c["pass"])
    f, g, h = (parse_poly(w) for w in failing["witness"])
    coeffs = reference_associator(bad.levels, f, g, h)
    assert any(not c.is_zero for c in coeffs)


def _rescaled(star: StarProduct) -> StarProduct:
    """Every level k times 2^k: the star product of 2P, not of P."""
    copy = StarProduct.from_json(star.to_json())
    copy.levels = [level.scale(2 ** k) for k, level in enumerate(copy.levels)]
    return copy


def _tilted(star: StarProduct) -> StarProduct:
    """Level 1 plus c (d_11 x d_2 - d_2 x d_11), with c a third of its
    (x1, x2) coefficient: still antisymmetric, and zero on linear arguments."""
    copy = StarProduct.from_json(star.to_json())
    c = copy.levels[1].coefficient(((1,), (2,))).scale(Fraction(1, 3))
    copy.levels[1].add_term(((1, 1), (2,)), c)
    copy.levels[1].add_term(((2,), (1, 1)), -c)
    return copy


@pytest.mark.parametrize("mutate", [_rescaled, _tilted])
@pytest.mark.parametrize("name", ["sym_star3", "sym_conformal_star3", "cubic_star"])
def test_commutator_bracket_compares_level_one_exactly(name, mutate, request, tmp_path,
                                                        capsys):
    star = request.getfixturevalue(name)
    bad = mutate(star)
    checks = {c["name"]: c for c in verify_star(bad)["checks"]}
    bracket = checks.pop("commutator-bracket")
    assert not bracket["pass"]
    c12 = star.levels[1].coefficient(((1,), (2,)))
    if mutate is _rescaled:
        # every other check holds: the levels are a genuine star product
        assert all(c["pass"] for c in checks.values())
        assert bracket["witness"] == ["x1", "x2", "1"]
        assert bracket["residual"] == str(c12)
    else:
        assert checks["parity-1"]["pass"]
        assert bracket["witness"] == ["x2", "x1^2", "1"]
        assert bracket["residual"] == str(-c12.scale(Fraction(1, 3)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    assert main(["verify", str(path)]) == 3
    assert "FAIL commutator-bracket  witness triple" in capsys.readouterr().out


def test_report_shape(cubic_star):
    report = verify_star(cubic_star)
    assert set(report) == {"pass", "inputsDigest", "checks"}
    for check in report["checks"]:
        assert set(check) == {"name", "inputsDigest", "residual", "pass",
                              "witness"}
        assert check["inputsDigest"] == report["inputsDigest"]


def _nonzero_fraction(rng: Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4))


def _edge_level(rng: Random) -> Cochain:
    """A level at an edge of the evaluator's monomial rule: empty; constant
    coefficients on slots of length 4 or 5, longer than any scan bound drawn
    here, so every falling factorial of a scanned monomial is zero; or
    coefficients of higher degree than their slots differentiate, so each
    shift raises the degree."""
    level = Cochain(2, X_RING)
    kind = rng.randrange(3)
    for _ in range(rng.randint(1, 3) if kind else 0):
        if kind == 1:
            slots = (random_index(rng, 5, min_len=4), random_index(rng, 5, min_len=4))
            coeff = XPoly.const(_nonzero_fraction(rng))
        else:
            slots = (random_index(rng, 1), random_index(rng, 1))
            exp = [0, 0, 0]
            for _ in range(len(slots[0]) + len(slots[1]) + rng.randint(1, 2)):
                exp[rng.randrange(3)] += 1
            coeff = XPoly.from_monomial(tuple(exp), _nonzero_fraction(rng))
        level.add_term(slots, coeff)
    return level


def _random_levels(rng: Random) -> list[Cochain]:
    levels = []
    for k in range(rng.randint(2, 4)):
        if k == 0 and rng.random() < 0.7:
            levels.append(Cochain.multiplication(X_RING))
        elif rng.random() < 0.3:
            levels.append(_edge_level(rng))
        else:
            levels.append(random_cochain(rng, 2, ring=X_RING,
                                         max_slot_degree=rng.randint(1, 3),
                                         terms=rng.randint(1, 3)))
    return levels


def _assert_evaluator_matches(levels, f: XPoly, g: XPoly, h: XPoly) -> None:
    """On every triple of monomials of f, g and h, one evaluator's pair and
    associator series equal eval_args per level and the unmemoized formula."""
    series = _Evaluator(levels)
    for e in f.terms:
        for d in g.terms:
            x, y = XPoly.from_monomial(e), XPoly.from_monomial(d)
            assert series.pair(e, d) == [eval_args(level, (x, y)) for level in levels]
            for m in h.terms:
                assert series.associator(e, d, m) == reference_associator(
                    levels, x, y, XPoly.from_monomial(m))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_scan_matches_reference_on_random_levels(seed):
    rng = Random(seed)
    levels = _random_levels(rng)
    bound = rng.randint(1, 3)
    assert associator_scan(levels, bound) == reference_scan(levels, bound)
    f, g, h = (random_x_coeff(rng) for _ in range(3))
    _assert_evaluator_matches(levels, f, g, h)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_scan_matches_reference_on_cubic_mutants(cubic_star, seed):
    rng = Random(seed)
    levels = [Cochain(2, X_RING, dict(level.terms)) for level in cubic_star.levels]
    k = rng.randrange(len(levels))
    levels[k].add_term(rng.choice(sorted(levels[k].terms)), random_x_coeff(rng))
    bound = rng.randint(2, 3)
    assert associator_scan(levels, bound) == reference_scan(levels, bound)


def _random_arg(rng: Random) -> XPoly:
    roll = rng.random()
    if roll < 0.2:
        return XPoly.zero()
    if roll < 0.6:
        return random_x_coeff(rng)
    return XPoly.from_monomial(tuple(rng.randint(0, 2) for _ in range(3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_evaluator_matches_reference_on_shared_left_slots(seed):
    # up to eight terms on slots of length at most two: many terms of a level
    # share a left slot, so each row of the evaluator holds several; some
    # levels sit at the edges of the monomial rule, and some arguments are
    # zero or have several monomials, which the evaluation expands over
    rng = Random(seed)
    levels = [Cochain.multiplication(X_RING)]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            levels.append(_edge_level(rng))
        else:
            levels.append(random_cochain(rng, 2, ring=X_RING, max_slot_degree=2,
                                         terms=rng.randint(1, 8)))
    bound = rng.randint(1, 3)
    assert associator_scan(levels, bound) == reference_scan(levels, bound)
    f, g, h = (_random_arg(rng) for _ in range(3))
    _assert_evaluator_matches(levels, f, g, h)


@pytest.mark.parametrize("name", ["cubic_star", "x3_star4", "conformal_star3", "cubic_star4"])
def test_triples_the_scan_skips_vanish_on_built_products(name, request):
    # every triple with a constant argument, and every triple (f, g, h) with
    # f after h, has a zero associator through the top level
    star = request.getfixturevalue(name)
    assert _is_unital(star.levels) and _has_weyl_parity(star.levels)
    series = _Evaluator(star.levels)
    skipped = [(f, g, h) for f, g, h in _monomial_triples(star.order) if _ONE in (f, g, h) or f > h]
    assert len(skipped) > len(list(_monomial_triples(star.order))) // 2
    for triple in skipped:
        assert all(c.is_zero for c in series.associator(*triple)), triple


def _weyl_level(rng: Random, k: int) -> Cochain:
    """L + (-1)^k L^rev for a random normalized L: a level with Weyl parity
    that kills constants."""
    level = Cochain(2, X_RING)
    for _ in range(rng.randint(1, 4)):
        slots = (random_index(rng, 2, min_len=1), random_index(rng, 2, min_len=1))
        coeff = random_x_coeff(rng)
        level.add_term(slots, coeff)
        level.add_term(slots[::-1], coeff.scale((-1) ** k))
    return level


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_scan_matches_reference_on_unital_weyl_levels(seed):
    # unital levels with Weyl parity, where the scan skips both kinds of
    # triple, and one perturbation of them: a term changed with its mirror
    # (parity kept), one term changed (parity broken), or a term with an
    # empty slot added (units broken)
    rng = Random(seed)
    levels = [Cochain.multiplication(X_RING)]
    levels += [_weyl_level(rng, k) for k in range(1, rng.randint(2, 4))]
    assert _is_unital(levels) and _has_weyl_parity(levels)
    kind = rng.randrange(4)
    if kind:
        k = rng.randrange(1, len(levels))
        left = () if kind == 3 else random_index(rng, 2, min_len=1)
        slots = (left, random_index(rng, 2, min_len=1))
        bump = XPoly.from_monomial(tuple(rng.randint(0, 1) for _ in range(3)),
                                   _nonzero_fraction(rng))
        levels[k].add_term(slots, bump)
        if kind == 1:
            levels[k].add_term(slots[::-1], bump.scale((-1) ** k))
            assert _has_weyl_parity(levels)
        if kind == 3:
            assert not _is_unital(levels)
    bound = rng.randint(1, 3)
    assert associator_scan(levels, bound) == reference_scan(levels, bound)


# -- the residuals on orbit representatives ---------------------------------------------

_BUILT = {
    "sym_star2": lambda: build_star(NABLA_PHI, 2),
    "opo_star3": lambda: build_star(NABLA_PHI, 3, opo_restrict=True),
    "opo_star4": lambda: build_star(NABLA_PHI, 4, opo_restrict=True),
    "sym_conformal_star2": lambda: build_star(PSI_NABLA_PHI, 2, "sym", "sym"),
    "x3_star8": lambda: build_star(NABLA_PHI, 8, phi=parse_poly("x3")),
}


@cache
def _built(name: str) -> StarProduct:
    return _BUILT[name]()


# per product, the levels k whose residual takes the orbit path: every level
# has parity, and levels 1..k are covariant (the pivot level 4 of sym_star4
# is not; no level of x3 or of psi = 1 + x1 is, from level 1 on)
ORBIT_RESIDUALS = {
    "sym_star2": {2}, "sym_star3": {2, 3}, "sym_star4": {2, 3}, "opo_star3": {2, 3},
    "opo_star4": {2, 3, 4}, "sym_conformal_star2": {2}, "sym_conformal_star3": {2, 3},
    "cubic_star": {2, 3}, "sphere_star": {2, 3}, "x3_star4": set(), "x3_star8": set(),
    "conformal_star3": set(),
}


def _traced_verify(star: StarProduct, orbits: bool = True) -> tuple[dict, list]:
    """verify_star's report and its residual calls, as (k, representatives,
    whether a defect was found); without ``orbits`` no level is covariant,
    which forces the full path."""
    calls = []

    def recording(m, target=None, insertions=(), representatives=False):
        defect = coboundary_defect(m, target, insertions, representatives)
        k = next(k for k, level in enumerate(star.levels) if level is m)
        calls.append((k, representatives, defect is not None))
        return defect

    with mock.patch("starq.verify.coboundary_defect", recording), \
            mock.patch("starq.verify._is_covariant", _is_covariant if orbits else _never):
        return verify_star(star), calls


def _never(level, k):
    return False


@pytest.mark.parametrize("name", ORBIT_RESIDUALS)
def test_orbit_residuals_keep_every_report(name, request):
    """Every report of the corpus, digests included, is the forced full path's,
    and each residual takes the path that its levels' facts allow, by a
    reference check of parity and of covariance under all six relabelings."""
    star = _built(name) if name in _BUILT else request.getfixturevalue(name)
    report, calls = _traced_verify(star)
    full, full_calls = _traced_verify(star, orbits=False)
    assert report == full and report["pass"]
    residuals = range(2, len(star.levels))
    assert full_calls == [(k, False, False) for k in residuals]
    assert calls == [(k, k in ORBIT_RESIDUALS[name], False) for k in residuals]
    levels = star.levels
    parity = all(level.reverse_args().scale((-1) ** k) == level for k, level in enumerate(levels))
    covariant = [reference_is_covariant(level, k) for k, level in enumerate(levels)]
    assert ORBIT_RESIDUALS[name] == {k for k in residuals if parity and all(covariant[1:k + 1])}


def _representative(slots) -> bool:
    n1, n2, n3 = (sum(index.count(a) for index in slots) for a in (1, 2, 3))
    return n1 >= n2 >= n3


def _off_orbit_pair(level: Cochain, q: Fraction) -> Cochain:
    """q times the first monomial of the first term of a level whose content
    is not representative, and -q times it on the mirror: a bilinear operator
    with odd parity."""
    slots = next(slots for slots, _ in level.sorted_terms() if not _representative(slots))
    bump = JetPolynomial.from_monomial(level.terms[slots].monomials()[0][0], q)
    return Cochain(2, JET_RING, {slots: bump, slots[::-1]: -bump})


def _perturbed(star: StarProduct, k: int, bump: Cochain) -> StarProduct:
    bad = StarProduct.from_json(star.to_json())
    bad.levels[k] = linear_combination(2, bad.ring, ((1, bad.levels[k]), (1, bump)))
    assert bad.levels[k].reverse_args().scale((-1) ** k) == bad.levels[k]  # parity holds
    return bad


def test_parity_keeping_perturbation_off_the_orbit_fails_on_the_full_path(sym_star3):
    # 3/7 on a level-3 term of non-representative content and -3/7 on its
    # mirror: the representative sums cannot see it, but level 3 is no longer
    # covariant, so residual-3 takes the full path and names today's witness
    bad = _perturbed(sym_star3, 3, _off_orbit_pair(sym_star3.levels[3], Fraction(3, 7)))
    assert not _is_covariant(bad.levels[3], 3) and not reference_is_covariant(bad.levels[3], 3)
    bracket = _bracket_form(bad.levels, 3)
    assert coboundary_defect(bad.levels[3], insertions=bracket, representatives=True) is None
    report, calls = _traced_verify(bad)
    assert report == _traced_verify(bad, orbits=False)[0]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["residual-3"]
    assert calls == [(2, True, False), (3, False, True)]


def test_covariant_perturbation_fails_on_the_orbit_path_and_reruns_for_the_witness(sym_star3):
    # the orbit sum of 3/7 phi_12 phi_3 (d_1 x d_222 - d_222 x d_1) keeps
    # parity and covariance: the orbit path finds the defect, and the full
    # path reruns to name the first one in sorted order, which lies off the
    # representatives
    c = (JetPolynomial.variable(phi_jet(1, 2)) * JetPolynomial.variable(phi_jet(3))).scale(
        Fraction(3, 7))
    pair = Cochain(2, JET_RING, {((1,), (2, 2, 2)): c, ((2, 2, 2), (1,)): -c})
    bad = _perturbed(sym_star3, 3, symmetrized(pair, 3))
    assert _is_covariant(bad.levels[3], 3) and reference_is_covariant(bad.levels[3], 3)
    bracket = _bracket_form(bad.levels, 3)
    slots, _ = coboundary_defect(bad.levels[3], insertions=bracket)
    assert not _representative(slots)
    report, calls = _traced_verify(bad)
    assert report == _traced_verify(bad, orbits=False)[0]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["residual-3"]
    assert calls == [(2, True, False), (3, True, True), (3, False, True)]
