"""Diagram-span audits and the conformal-family rank experiment.

Two questions about a constructed star product go beyond the level
equations themselves.  First, whether each level is a combination of
concretized contraction diagrams at all, and if so whether orderable
diagrams suffice; the audit answers that per level, distinguishing a lift
over the orderable span, a lift that needs non-orderable diagrams, and no
diagram lift at all.  Second, for the conformal family P = psi * grad(phi),
whether an orderable level 3 can also kill the level-4 obstruction; that is
a finite exact feasibility question, settled here by rank computations over
the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cochains import Cochain, JET_RING, linear_combination
from .jets import PSI_NABLA_PHI, JetPolynomial
from .linsolve import ColumnReducer
from .opo import AbstractTerm, concretize, enumerate_terms, is_opo, term_to_text
from .star import (
    DeltaSolver, InfeasibleError, StarProduct, _flatten, build_star, determinant_witness,
    level_equation, opo_projections, solve_opo,
)

OPO_LIFT = "opo-lift"
NON_OPO_LIFT = "non-opo-lift"
NO_LIFT = "no-lift"
SKIPPED = "skipped"


# -- per-level diagram audit ---------------------------------------------------

@dataclass
class LevelAudit:
    level: int
    status: str
    combination: dict[int, Fraction] | None = None
    diagrams: dict[int, str] = field(default_factory=dict)
    non_orderable_used: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "status": self.status,
            "combination": (None if self.combination is None else
                            {str(i): str(q) for i, q in sorted(self.combination.items())}),
            "diagrams": {str(i): text for i, text in sorted(self.diagrams.items())},
            "nonOrderableUsed": self.non_orderable_used,
        }


@dataclass
class AuditReport:
    mode: str
    levels: list[LevelAudit]

    @property
    def all_orderable(self) -> bool:
        return all(a.status in (OPO_LIFT, SKIPPED) for a in self.levels)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "allOrderable": self.all_orderable,
            "levels": [a.to_json() for a in self.levels],
        }


def _lift(target: Cochain, terms: list[tuple[int, AbstractTerm]],
          mode: str) -> tuple[dict[int, Fraction] | None, dict[int, Cochain]]:
    """Exact coordinates of target in the span of the given diagrams."""
    reducer = ColumnReducer()
    cols: dict[int, Cochain] = {}
    for idx, term in terms:
        c = concretize([term], mode)
        if c.is_zero:
            continue
        cols[idx] = c
        reducer.add_column(idx, _flatten(c))
    return reducer.solve(_flatten(target)), cols


def audit_level(level: Cochain, k: int, mode: str) -> LevelAudit:
    """Diagram lift of one level: orderable span first, full span second."""
    if k == 0:
        return LevelAudit(level=0, status=OPO_LIFT, combination={})
    all_terms = list(enumerate(enumerate_terms(k)))
    orderable = [(i, t) for i, t in all_terms if is_opo(t)[0]]
    combo, _ = _lift(level, orderable, mode)
    if combo is not None:
        texts = {i: term_to_text(t) for i, t in orderable if i in combo}
        return LevelAudit(level=k, status=OPO_LIFT, combination=combo, diagrams=texts)
    combo, _ = _lift(level, all_terms, mode)
    if combo is None:
        return LevelAudit(level=k, status=NO_LIFT)
    texts = {i: term_to_text(t) for i, t in all_terms if i in combo}
    bad = sorted(i for i, t in all_terms if i in combo and not is_opo(t)[0])
    return LevelAudit(level=k, status=NON_OPO_LIFT, combination=combo,
                      diagrams=texts, non_orderable_used=bad)


def opo_audit(star: StarProduct, max_factors: int = 3) -> AuditReport:
    """Lift every level of a symbolic star product over contraction diagrams.

    A level-k lift enumerates all canonical k-factor diagrams, so the cost
    grows steeply with k; levels needing more than max_factors factors are
    reported as skipped rather than guessed at.
    """
    if star.ring != JET_RING:
        raise ValueError("the diagram audit needs the symbolic jet ring")
    audits = []
    for k, level in enumerate(star.levels):
        if k > max_factors:
            audits.append(LevelAudit(level=k, status=SKIPPED))
            continue
        audits.append(audit_level(level, k, star.mode))
    return AuditReport(mode=star.mode, levels=audits)


# -- the conformal-family experiment ---------------------------------------------

@dataclass
class ExperimentRecord:
    """Machine-readable outcome of the conformal level-3 feasibility test.

    The combined system asks for one operator inside the orderable span
    satisfying both the level-3 equation and the vanishing of the level-4
    obstruction.  Expectation: infeasible; if a solution is found after all,
    it is recorded here in full as the refutation witness.
    """
    mode: str
    jet_cap: int
    columns: int
    delta_rows: int
    obstruction_rows: int
    orderable_delta_feasible: bool
    combined_feasible: bool
    unrestricted_feasible: bool
    expected_infeasible: bool
    witness_level3: Cochain | None = None
    orderable_level3: Cochain | None = None
    obstruction_witness: JetPolynomial | None = None

    @property
    def as_expected(self) -> bool:
        return self.combined_feasible != self.expected_infeasible

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "jetCap": self.jet_cap,
            "columns": self.columns,
            "deltaRows": self.delta_rows,
            "obstructionRows": self.obstruction_rows,
            "orderableDeltaFeasible": self.orderable_delta_feasible,
            "combinedFeasible": self.combined_feasible,
            "unrestrictedFeasible": self.unrestricted_feasible,
            "expectation": "infeasible" if self.expected_infeasible else "feasible",
            "outcome": "as-expected" if self.as_expected else "refutation",
            "witnessLevel3": (None if self.witness_level3 is None
                              else self.witness_level3.to_json()),
            "orderableLevel3": (None if self.orderable_level3 is None
                                else self.orderable_level3.to_json()),
            "obstructionWitness": (None if self.obstruction_witness is None
                                   else self.obstruction_witness.to_json()),
        }


def _solvable(solver: DeltaSolver, rhs: Cochain, k: int) -> bool:
    """Whether the shape ansatz cobounds rhs at level k."""
    try:
        solver.solve(rhs, k)
    except InfeasibleError:
        return False
    return True


def psi_opo_experiment(jet_cap: int = 5,
                       mode: str = PSI_NABLA_PHI) -> ExperimentRecord:
    """Exact feasibility of an orderable level 3 with vanishing level-4
    obstruction, in the conformal family.

    Both constraints are linear over the odd-parity projections of the
    3-factor orderable diagrams: the level equation row-set comes from the
    coboundary, the obstruction row-set from the coordinate witness of the
    alternating first-order part, which depends affinely on the level-3
    choice through the bracket with the Poisson level.  Restricting to
    odd-parity projections loses nothing: the even part of any solution is
    an exact symmetric cocycle, which neither the level equation nor the
    alternation can see.
    """
    lower = build_star(mode, 2, "sym", "sym" if mode == PSI_NABLA_PHI else None,
                       jet_cap=jet_cap)
    levels = list(lower.levels)
    m1, m2 = levels[1], levels[2]
    r3, _ = level_equation(levels, 3, mode, jet_cap)

    projections = opo_projections(3, mode)  # computed once, shared with solve_opo
    columns = dict(projections)

    # constant part of the level-4 obstruction: half the self-bracket of level 2
    base_alt = m2.bracket(m2, (1, 1, 1)).scale(Fraction(1, 2)).antisymmetrize()
    base_witness = determinant_witness(base_alt)

    combined = ColumnReducer()
    delta_rows: set = set()
    obstruction_rows: set = set()
    for idx, proj in sorted(columns.items()):
        delta = _flatten(proj.hochschild_delta()).fractions()
        dvec = {("delta",) + row: q for row, q in delta.items()}
        delta_rows.update(dvec)
        alt = m1.bracket(proj, (1, 1, 1)).antisymmetrize()
        for mono, q in determinant_witness(alt).monomials():
            dvec[("ar", mono)] = q
            obstruction_rows.add(("ar", mono))
        combined.add_column(idx, dvec)

    rhs_combined = {("delta",) + row: q for row, q in _flatten(r3).fractions().items()}
    delta_rows.update(rhs_combined)
    for mono, q in base_witness.monomials():
        rhs_combined[("ar", mono)] = -q
        obstruction_rows.add(("ar", mono))

    orderable_m3 = solve_opo(r3, projections)
    combined_solution = combined.solve(rhs_combined)
    witness_m3 = None
    if combined_solution is not None:
        witness_m3 = linear_combination(
            2, JET_RING, ((q, columns[idx]) for idx, q in sorted(combined_solution.items())))
        if witness_m3.hochschild_delta() != r3:
            raise AssertionError("combined solution fails the level equation")

    obstruction_witness = None
    if orderable_m3 is not None:
        # degree_part and antisymmetrize are linear, so the constant part is reused
        alt = m1.bracket(orderable_m3, (1, 1, 1)).antisymmetrize() + base_alt
        obstruction_witness = determinant_witness(alt)

    # contrast: the unconstrained level equation is solvable (shape ansatz)
    unrestricted_feasible = _solvable(DeltaSolver(), r3, 3)

    return ExperimentRecord(
        mode=mode,
        jet_cap=jet_cap,
        columns=len(columns),
        delta_rows=len(delta_rows),
        obstruction_rows=len(obstruction_rows),
        orderable_delta_feasible=orderable_m3 is not None,
        combined_feasible=combined_solution is not None,
        unrestricted_feasible=unrestricted_feasible,
        expected_infeasible=True,
        witness_level3=witness_m3,
        orderable_level3=orderable_m3,
        obstruction_witness=obstruction_witness,
    )
