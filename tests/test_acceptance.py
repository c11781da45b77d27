"""Acceptance gate: ten criteria, each printing one pass/fail line.

Every numeric expectation here is exact over the rationals; runtime budgets
are asserted where the criterion carries one.  Heavy objects are built once
per session through the fixtures in conftest.
"""

import json
import time
from fractions import Fraction
from random import Random

import pytest

from starq.cli import main as cli_main
from starq.cochains import Cochain, JET_RING
from starq.jets import NABLA_PHI, PSI_NABLA_PHI
from starq.opo import concretize, enumerate_terms, is_opo
from starq.polynomials import XPoly, parse_poly
from starq.star import StarProduct, build_star, level_equation
from starq.verify import associator_scan, jacobi_residual, poisson_vector

from helpers import (abstract_bracket, abstract_delta, commutator, double_bracket_terms,
                     jacobi_example_opo_term, jacobi_example_terms, max_jet_order,
                     non_orderable_example, poisson_term, random_cochain)


def _report(number: int, label: str, ok: bool, elapsed: float | None = None,
            budget: float | None = None) -> None:
    stamp = "" if elapsed is None else f" ({elapsed:.1f}s)"
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({label}) failed"
    if budget is not None:
        assert elapsed is not None and elapsed < budget, (
            f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s")


def test_criterion_1_delta_squares_to_zero():
    rng = Random(101)
    start = time.monotonic()
    ok = True
    for _ in range(200):
        arity = rng.randint(1, 3)
        c = random_cochain(rng, arity, ring=JET_RING, max_slot_degree=4,
                           terms=rng.randint(1, 3))
        if not c.hochschild_delta().hochschild_delta().is_zero:
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(1, "differential squares to zero on 200 random cochains", ok,
            elapsed, budget=10.0)


def test_criterion_2_jacobi_residuals():
    from starq.jets import substitute_factor

    # the symbolic computation involves jets of order <= 2, so exact
    # vanishing proves the identity at truncation 4 (and any deeper one)
    curl_entry = substitute_factor((), 1, 2, NABLA_PHI).x_derivative(3)
    symbolic_ok = (jacobi_residual(poisson_vector("sym", None)).is_zero
                   and jacobi_residual(poisson_vector("sym", "sym")).is_zero
                   and max_jet_order(curl_entry) <= 4)
    rng = Random(202)
    explicit_ok = True
    for _ in range(20):
        phi = XPoly.zero()
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 4) for _ in range(3))
            if sum(exp) <= 4:
                phi = phi + XPoly.from_monomial(exp, Fraction(rng.randint(-5, 5)))
        if not jacobi_residual(poisson_vector(phi, None)).is_zero:
            explicit_ok = False
            break
    rotation = (parse_poly("x3"), parse_poly("x1"), parse_poly("x2"))
    rotation_ok = jacobi_residual(rotation) == parse_poly("x1 + x2 + x3")
    _report(2, "integrability residual vanishes for gradients",
            symbolic_ok and explicit_ok and rotation_ok)


def test_criterion_3_linear_potential_order_four():
    start = time.monotonic()
    star = build_star(NABLA_PHI, 4, phi=parse_poly("x3"))
    ok = associator_scan(star.levels, 4) is None
    series = commutator(star.levels, XPoly.var(1), XPoly.var(2))
    ok = ok and series[1] == XPoly.one()
    ok = ok and all(series[k].is_zero for k in (0, 2, 3, 4))
    elapsed = time.monotonic() - start
    _report(3, "flat potential, order 4: associator and commutator", ok,
            elapsed, budget=60.0)


def test_criterion_4_quadratic_potential_order_three():
    start = time.monotonic()
    star = build_star(NABLA_PHI, 3, phi=parse_poly("1/2*(x1^2+x2^2+x3^2)"))
    ok = associator_scan(star.levels, 3) is None
    series = commutator(star.levels, XPoly.var(1), XPoly.var(2))
    ok = ok and series[1] == parse_poly("x3")
    elapsed = time.monotonic() - start
    _report(4, "rotational quadratic potential, order 3", ok, elapsed,
            budget=300.0)


def test_criterion_5_cubic_potential_order_three(cubic_star):
    ok = associator_scan(cubic_star.levels, 3) is None
    _report(5, "cubic potential, order 3: associator", ok)


def test_criterion_6_symbolic_obstructions(sym_star3):
    levels = sym_star3.levels
    _, report3 = level_equation(levels, 3, NABLA_PHI)
    odd_ok = report3.is_zero and report3.parity_path

    _, report4 = level_equation(levels, 4, NABLA_PHI)
    even_ok = (report4.is_zero and not report4.parity_path
               and report4.coordinate_witness.is_zero
               and report4.alternating.is_zero
               and report4.shortcut_agrees)
    _report(6, "symbolic obstructions vanish at levels 3 and 4",
            odd_ok and even_ok)


def test_criterion_7_orderability_reference_suite():
    checks = [is_opo(poisson_term())[0]]
    checks += [is_opo(t)[0] for t in double_bracket_terms()]
    checks.append(not is_opo(non_orderable_example())[0])
    checks.append(concretize(jacobi_example_terms(), NABLA_PHI).is_zero)
    checks.append(concretize(jacobi_example_terms(), PSI_NABLA_PHI).is_zero)
    checks.append(not concretize([jacobi_example_opo_term()], NABLA_PHI).is_zero)
    _report(7, "orderability reference suite", all(checks))


def test_criterion_8_orderable_closure_randomized():
    rng = Random(808)
    pools = {n: enumerate_terms(n) for n in (1, 2, 3)}
    sample = [rng.choice(pools[rng.choice((1, 2, 3))]) for _ in range(100)]
    ok = True
    delta_terms_seen = 0
    for term in sample:
        for piece in abstract_delta(term):
            delta_terms_seen += 1
            if not is_opo(piece)[0]:
                ok = False
    bracket_terms_seen = 0
    for s in sample:
        budget = 3 - s.n_factors
        if budget < 1:
            continue
        t = rng.choice(pools[rng.choice(tuple(range(1, budget + 1)))])
        for piece in abstract_bracket(s, t):
            bracket_terms_seen += 1
            if not is_opo(piece)[0]:
                ok = False
    ok = ok and delta_terms_seen > 0 and bracket_terms_seen > 0
    _report(8, "orderable closure under differential and bracket", ok)


def test_criterion_9_conformal_family_experiment(tmp_path):
    from records import psi_opo_experiment

    start = time.monotonic()
    payload = psi_opo_experiment()
    elapsed = time.monotonic() - start
    (tmp_path / "experiment_record.json").write_text(json.dumps(payload, indent=2))
    summary = {k: payload[k] for k in
               ("mode", "columns", "deltaRows", "obstructionRows",
                "orderableDeltaFeasible", "combinedFeasible",
                "unrestrictedFeasible", "outcome")}
    print("experiment record:", json.dumps(summary))
    if payload["combinedFeasible"]:
        # a refutation must name the witnessing level-3 solution
        print("REFUTATION RECORD:", json.dumps(payload))
        ok = payload["witnessLevel3"] is not None
    else:
        ok = (payload["orderableDeltaFeasible"]
              and payload["unrestrictedFeasible"]
              and payload["outcome"] == "as-expected"
              and bool(payload["obstructionWitness"]))
    _report(9, "conformal family: orderable level 3 obstructed at level 4",
            ok, elapsed, budget=60.0)


def test_criterion_10_mutation_sensitivity(cubic_star, tmp_path, capsys):
    rng = Random(20260817)
    base = cubic_star.to_json()
    caught = 0
    for trial in range(10):
        data = json.loads(json.dumps(base))
        star = StarProduct.from_json(data)
        k = rng.randrange(0, len(star.levels))
        slots = rng.choice(sorted(star.levels[k].terms))
        bump = XPoly.from_monomial(
            (rng.randint(0, 1), 0, 0),
            Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        star.levels[k].terms[slots] = star.levels[k].terms[slots] + bump
        path = tmp_path / f"mutant-{trial}.json"
        path.write_text(json.dumps(star.to_json()))
        rc = cli_main(["verify", str(path)])
        captured = capsys.readouterr()
        named = "witness" in captured.err or "witness triple" in captured.out
        if rc == 3 and named:
            caught += 1
    _report(10, "every random single-coefficient mutation is caught and "
            "witnessed", caught == 10)
