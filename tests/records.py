"""Research records: diagram-span audits and the conformal-family rank
experiment.

Two questions about a constructed star product go beyond the level
equations themselves.  First, whether each level is a combination of
concretized contraction diagrams at all, and if so whether orderable
diagrams suffice; the audit answers that per level, distinguishing a lift
over the orderable span, a lift that needs non-orderable diagrams, and no
diagram lift at all.  Second, for the conformal family P = psi * grad(phi),
whether an orderable level 3 can also kill the level-4 obstruction; that is
a finite exact feasibility question, settled here by rank computations over
the rationals.  No command runs either one; the tests pin each record's JSON
digest, and ``pytest tests/test_digests.py -k record`` reproduces them.
"""

from __future__ import annotations

from fractions import Fraction

from starq.cochains import Cochain, JET_RING, linear_combination
from starq.jets import PSI_NABLA_PHI, JetPolynomial, factor_codes
from starq.linsolve import ColumnReducer
from starq.opo import concretize, is_opo, term_to_text
from starq.polynomials import RatVec
from starq.star import (
    InfeasibleError, StarProduct, _flatten, build_star, determinant_witness, level_equation,
    opo_projections, solve_level, solve_opo, span_combination,
)

from helpers import bracket, reference_enumerate

OPO_LIFT = "opo-lift"
NON_OPO_LIFT = "non-opo-lift"
NO_LIFT = "no-lift"
SKIPPED = "skipped"


# -- per-level diagram audit ---------------------------------------------------

def _level_dict(level: int, status: str, combination: dict[int, Fraction] | None,
                texts: dict[int, str], non_orderable_used: list[int]) -> dict:
    """The JSON record of one level's diagram lift."""
    return {
        "level": level,
        "status": status,
        "combination": (None if combination is None else
                        {str(i): str(q) for i, q in sorted(combination.items())}),
        "diagrams": {str(i): text for i, text in sorted(texts.items())},
        "nonOrderableUsed": non_orderable_used,
    }


def audit_level(level: Cochain, k: int, mode: str) -> dict:
    """Diagram lift of one level: orderable span first, full span second.

    Each diagram is concretized once, the non-orderable ones only when the
    orderable span misses; both passes take the columns in index order.
    """
    if k == 0:
        return _level_dict(0, OPO_LIFT, {}, {}, [])
    all_terms = reference_enumerate(k)
    columns = {i: concretize([t], mode) for i, t in enumerate(all_terms) if is_opo(t)[0]}
    combo = span_combination(level, columns.items())
    if combo is not None:
        texts = {i: term_to_text(all_terms[i]) for i in combo}
        return _level_dict(k, OPO_LIFT, combo, texts, [])
    non_orderable = [i for i in range(len(all_terms)) if i not in columns]
    columns.update((i, concretize([all_terms[i]], mode)) for i in non_orderable)
    combo = span_combination(level, sorted(columns.items()))
    if combo is None:
        return _level_dict(k, NO_LIFT, None, {}, [])
    texts = {i: term_to_text(all_terms[i]) for i in combo}
    return _level_dict(k, NON_OPO_LIFT, combo, texts,
                       [i for i in non_orderable if i in combo])


def opo_audit(star: StarProduct, max_factors: int = 3) -> dict:
    """Lift every level of a symbolic star product over contraction diagrams.

    A level-k lift enumerates all canonical k-factor diagrams, so the cost
    grows steeply with k; levels needing more than max_factors factors are
    reported as skipped rather than guessed at.  The report is a JSON-ready
    dict; a skipped level does not count against ``allOrderable``.
    """
    if star.ring != JET_RING:
        raise ValueError("the diagram audit needs the symbolic jet ring")
    levels = [_level_dict(k, SKIPPED, None, {}, []) if k > max_factors
              else audit_level(level, k, star.mode)
              for k, level in enumerate(star.levels)]
    return {
        "mode": star.mode,
        "allOrderable": all(a["status"] in (OPO_LIFT, SKIPPED) for a in levels),
        "levels": levels,
    }


# -- the conformal-family experiment ---------------------------------------------

def _solvable(rhs: Cochain, k: int) -> bool:
    """Whether the shape ansatz cobounds rhs at level k."""
    try:
        solve_level(rhs, k)
    except InfeasibleError:
        return False
    return True


def _combined_rows(lhs: Cochain, witness: JetPolynomial, sign: int) -> RatVec:
    """One vector of the combined system: the coefficients of lhs on
    ("delta", monomial codes, slots) rows and sign times the witness on
    ("ar", monomial codes) rows."""
    flat = _flatten(lhs)
    vec = RatVec({("delta",) + row: c for row, c in flat.terms.items()}, flat.den)
    vec.add({("ar", factor_codes(m)): c for m, c in witness.terms.items()}, witness.den, sign)
    return vec


def psi_opo_experiment() -> dict:
    """Exact feasibility of an orderable level 3 with vanishing level-4
    obstruction, in the conformal family.

    Both constraints are linear over the odd-parity projections of the
    3-factor orderable diagrams, one column per mirror pair (a partner's
    projection is plus or minus its pair's, so neither constraint sees it;
    7 of the 12 diagrams): the level equation row-set comes from the
    coboundary, the obstruction row-set from the coordinate witness of the
    alternating first-order part, which depends affinely on the level-3
    choice through the bracket with the Poisson level.  Restricting to
    odd-parity projections loses nothing: the even part of any solution is
    an exact symmetric cocycle, which neither the level equation nor the
    alternation can see.

    The record is a JSON-ready dict.  Expectation: the combined system is
    infeasible; if a solution is found after all, it is recorded in full as
    the refutation witness.
    """
    levels = build_star(PSI_NABLA_PHI, 2, "sym", "sym").levels
    m1, m2 = levels[1], levels[2]
    r3, _ = level_equation(levels, 3, PSI_NABLA_PHI)

    # projections and their coboundaries are computed once, shared with solve_opo
    projections = opo_projections(3, PSI_NABLA_PHI)
    columns = {idx: proj for idx, proj, _ in projections}

    # constant part of the level-4 obstruction: half the self-bracket of level 2
    base_alt = bracket(m2, m2, (1, 1, 1)).scale(Fraction(1, 2)).antisymmetrize()
    base_witness = determinant_witness(base_alt)

    combined = ColumnReducer()
    rows: set = set()
    for idx, proj, delta in projections:
        witness = determinant_witness(bracket(m1, proj, (1, 1, 1)).antisymmetrize())
        column = _combined_rows(delta, witness, 1)
        rows.update(column.terms)
        combined.add_column(idx, column)
    rhs_combined = _combined_rows(r3, base_witness, -1)
    rows.update(rhs_combined.terms)
    delta_rows = sum(row[0] == "delta" for row in rows)

    orderable_m3 = solve_opo(r3, projections)
    combined_solution = combined.solve(rhs_combined)
    witness_m3 = None
    if combined_solution is not None:
        witness_m3 = linear_combination(
            2, JET_RING,
            ((q, columns[idx]) for idx, q in sorted(combined_solution.fractions().items())))
        if witness_m3.hochschild_delta() != r3:
            raise AssertionError("combined solution fails the level equation")

    obstruction_witness = None
    if orderable_m3 is not None:
        # degree_part and antisymmetrize are linear, so the constant part is reused
        alt = linear_combination(3, JET_RING, (
            (1, bracket(m1, orderable_m3, (1, 1, 1)).antisymmetrize()), (1, base_alt)))
        obstruction_witness = determinant_witness(alt)

    # contrast: the unconstrained level equation is solvable (shape ansatz)
    unrestricted_feasible = _solvable(r3, 3)

    return {
        "mode": PSI_NABLA_PHI,
        "columns": len(columns),
        "deltaRows": delta_rows,
        "obstructionRows": len(rows) - delta_rows,
        "orderableDeltaFeasible": orderable_m3 is not None,
        "combinedFeasible": combined_solution is not None,
        "unrestrictedFeasible": unrestricted_feasible,
        "expectation": "infeasible",
        "outcome": "as-expected" if combined_solution is None else "refutation",
        "witnessLevel3": None if witness_m3 is None else witness_m3.to_json(),
        "orderableLevel3": None if orderable_m3 is None else orderable_m3.to_json(),
        "obstructionWitness": (None if obstruction_witness is None
                               else obstruction_witness.to_json()),
    }
