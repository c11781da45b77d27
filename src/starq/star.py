"""Level-by-level construction of Weyl-type star products.

The product is a formal series m(f,g) + sum_k nu^k M_k(f,g).  Associativity
at order k reads delta(M_k) = R_k with R_k assembled from lower levels via
the Gerstenhaber bracket; the construction solves this exactly over the
rationals after checking that the obstruction, the alternating first-order
part of R_k, vanishes.

Two coefficient regimes share all code paths: the jet ring (potentials kept
symbolic, which proves identities for every potential at once) and the
explicit polynomial ring.  In the gradient family every level-k term
carries exactly k potential jets and a total of 3k derivatives split
between jets and argument slots, which lets the solver decompose the
cohomological equation into small per-monomial blocks sharing one cached
echelon system per slot-total and parity.

Solutions of the level equation are not unique at even levels: they may
differ by coboundaries of one-slot operators, and the obstruction
representative two levels up depends on that choice.  Odd levels carry no
freedom at all once the slot totals are kept at three or more (the odd
shape systems have full column rank).  The construction therefore
re-selects even levels inside the span of orderable contraction diagrams,
where the solution is again canonical; the next odd level then inherits
the structural antisymmetry that makes the following obstruction vanish.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cochains import (
    Cochain, JET_RING, X_RING, delta_terms, epsilon_cochain, insertion_sum, linear_combination,
    ring_class, slot_total,
)
from .jets import (
    NABLA_PHI, PSI_NABLA_PHI, PHI, substitute_factor,
)
from .linsolve import ColumnReducer
from .multiindex import MultiIndex, all_indices
from .opo import concretize, enumerate_terms
from .polynomials import RatVec, XPoly, parse_poly


class GradingError(Exception):
    """A term violates the factor-count or derivative-balance invariants."""


class ClosureError(Exception):
    """delta(R_k) is not zero, so some lower level is corrupt."""


class ObstructionError(Exception):
    """A nonzero obstruction blocks the recursion."""

    def __init__(self, report: "ObstructionReport"):
        super().__init__(f"nonzero obstruction at level {report.level}")
        self.report = report


class InfeasibleError(Exception):
    """No ansatz combination cobounds the right-hand side."""

    def __init__(self, message: str, block=None):
        super().__init__(message)
        self.block = block


def parity_sign(k: int) -> int:
    return (-1) ** k


# -- level 0 and 1 -------------------------------------------------------------

def poisson_cochain(mode: str = NABLA_PHI) -> Cochain:
    """Half the Poisson bracket as a jet-ring bilinear operator."""
    out = Cochain(2, JET_RING)
    half = Fraction(1, 2)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            coeff = substitute_factor((), i, j, mode).scale(half)
            if not coeff.is_zero:
                out.add_term(((i,), (j,)), coeff)
    return out


def base_levels(mode: str, ring: str, phi: XPoly | None = None,
                psi: XPoly | None = None) -> list[Cochain]:
    """[M_0, M_1] in the requested coefficient ring."""
    m1 = poisson_cochain(mode)
    if ring == X_RING:
        m1 = m1.specialize(phi, psi)
    return [Cochain.multiplication(ring), m1]


# -- right-hand side ------------------------------------------------------------

def assemble_rhs(levels: Sequence[Cochain], k: int) -> Cochain:
    """R_k = sum over l of M_l o M_{k-l}, the source M_k must cobound.

    Levels are indexed by their order, levels[0] being the multiplication.
    For bilinear levels the Gerstenhaber bracket is [a, b] = a o b + b o a,
    so this one-sided sum equals (1/2) sum over l of [M_l, M_{k-l}] with half
    the insertions.  ``level_equation`` checks that the result is closed.
    """
    if k < 2:
        raise ValueError("right-hand sides start at level 2")
    if len(levels) <= k - 1:
        raise ValueError(f"level {k} needs all lower levels, have {len(levels) - 1}")
    if any(levels[l].arity != 2 for l in range(1, k)):
        raise ValueError("right-hand sides are assembled from bilinear levels")
    return insertion_sum(3, levels[1].ring,
                         ((1, levels[l], levels[k - l]) for l in range(1, k)))


# -- obstruction -----------------------------------------------------------------

COORDINATE_SLOTS = (((1,), (2,), (3,)))


@dataclass
class ObstructionReport:
    level: int
    alternating: Cochain
    coordinate_witness: object  # ring element: value on (x1, x2, x3)
    is_zero: bool
    parity_path: bool
    shortcut_witness: object | None = None
    shortcut_agrees: bool | None = None

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "isZero": self.is_zero,
            "parityPath": self.parity_path,
            "coordinateWitness": self.coordinate_witness.to_json(),
            "alternating": self.alternating.to_json(),
            "shortcutWitness": (None if self.shortcut_witness is None
                                else self.shortcut_witness.to_json()),
            "shortcutAgrees": self.shortcut_agrees,
        }


def proportional(a, b) -> bool:
    """Both ring elements zero, or nonzero rational multiples of each other."""
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    key, ca = a.monomials()[0]
    cb = b.coefficient(key)
    if not cb:
        return False
    return b == a.scale(cb / ca)


def determinant_witness(alternating: Cochain):
    """The ring element w with alternating = w * (determinant operator).

    An alternating first-order trilinear operator in three dimensions is
    always such a multiple; that is checked, not assumed.
    """
    witness = alternating.coefficient(COORDINATE_SLOTS)
    if alternating != epsilon_cochain(alternating.ring).ring_scale(witness):
        raise AssertionError("alternating part is not a multiple of the determinant operator")
    return witness


def obstruction(rhs: Cochain, k: int,
                levels: Sequence[Cochain] | None = None) -> ObstructionReport:
    """Alternating first-order part of R_k, with its coordinate witness.

    The alternating part of a first-order trilinear operator in three
    dimensions is a single ring element times the determinant operator, so
    its value on the coordinate triple decides vanishing.  For odd k the
    right-hand side is symmetric under argument reversal and the report is
    zero on parity grounds; the direct computation is still performed.
    When the previous level is supplied, the insertion shortcut
    A((M_{k-1} o M_1)_{(1,1,1)}) is computed as a cross-check; it must be
    zero together with the direct result, or a rational multiple of it.
    """
    alternating = rhs.degree_part((1, 1, 1)).antisymmetrize()
    witness = determinant_witness(alternating)
    parity_path = (k % 2 == 1) and rhs.reverse_args() == rhs
    report = ObstructionReport(
        level=k,
        alternating=alternating,
        coordinate_witness=witness,
        is_zero=alternating.is_zero,
        parity_path=parity_path,
    )
    if levels is not None and len(levels) > k - 1 and k >= 2:
        shortcut = levels[k - 1].insert(levels[1], (1, 1, 1)).antisymmetrize()
        report.shortcut_witness = shortcut.coefficient(COORDINATE_SLOTS)
        report.shortcut_agrees = proportional(witness, report.shortcut_witness)
    return report


# -- grading ----------------------------------------------------------------------

def jet_cap_default(k: int) -> int:
    return 2 * k + 1


def check_grading(cochain: Cochain, k: int, mode: str, jet_cap: int | None = None) -> None:
    """Factor-count and derivative-balance invariants for a level-k operator
    or right-hand side in the jet ring.

    Every term must carry exactly k potential-gradient jets (plus k
    conformal jets in the conformal family) and 3k derivatives in total,
    counting jet orders and argument slots together.
    """
    if cochain.ring != JET_RING:
        return
    cap = jet_cap if jet_cap is not None else jet_cap_default(k)
    want_psi = mode == PSI_NABLA_PHI
    for slots, coeff in cochain.terms.items():
        s_total = slot_total(slots)
        for mono in coeff.terms:
            n_phi = sum(1 for tag, _ in mono if tag == PHI)
            n_psi = len(mono) - n_phi
            jet_orders = [len(index) for _, index in mono]
            if n_phi != k or n_psi != (k if want_psi else 0):
                raise GradingError(
                    f"level {k}: factor counts ({n_phi} phi, {n_psi} psi) in {mono}")
            if s_total + sum(jet_orders) != 3 * k:
                raise GradingError(
                    f"level {k}: derivative balance {s_total}+{sum(jet_orders)} != {3 * k}")
            if max(jet_orders, default=0) > cap:
                raise GradingError(f"level {k}: jet order beyond truncation {cap}")


# -- the level step ------------------------------------------------------------------

def level_equation(levels: Sequence[Cochain], k: int, mode: str,
                   jet_cap: int | None = None) -> tuple[Cochain, ObstructionReport]:
    """The checked right-hand side of delta(M_k) = R_k and its obstruction.

    R_k is assembled from the lower levels and must be closed, which holds
    when they solve their own equations; that is verified here rather than
    assumed.  In the jet ring R_k is also graded.  Whether the report's
    obstruction blocks the step is left to the caller.
    """
    rhs = assemble_rhs(levels, k)
    if not rhs.hochschild_delta().is_zero:
        raise ClosureError(f"delta(R_{k}) is nonzero; lower levels are inconsistent")
    check_grading(rhs, k, mode, jet_cap)
    return rhs, obstruction(rhs, k, levels)


# -- the ansatz and the solver -------------------------------------------------------

def _graded(index: MultiIndex) -> tuple[int, MultiIndex]:
    return (len(index), index)


def shape_pairs(total: int, parity: int) -> list[tuple[MultiIndex, MultiIndex]]:
    """Canonical slot-pair shapes with the given slot total and parity class.

    Pairs are listed with the smaller slot first; the symmetric class also
    carries equal-slot diagonals.  Each pair stands for the operator
    d_A x d_B + parity * d_B x d_A.
    """
    out = []
    for size_a in range(1, total):
        size_b = total - size_a
        if size_b < 1 or size_a > size_b:
            continue
        for a in all_indices(size_a):
            for b in all_indices(size_b):
                if _graded(a) > _graded(b):
                    continue
                if a == b and parity < 0:
                    continue
                out.append((a, b))
    out.sort(key=lambda p: (_graded(p[0]), _graded(p[1])))
    return out


class DeltaSolver:
    """Exact solver for delta(M_k) = R_k over the graded, parity-pure ansatz.

    The coboundary never touches coefficients and preserves the slot total,
    so the equation splits into independent blocks per coefficient monomial
    and slot total; all blocks with the same slot total and parity share a
    single echelonized shape system, built once and cached.  Within each
    block the canonical solution sets free coefficients to zero.
    """

    def __init__(self):
        self._systems: dict[tuple[int, int], ColumnReducer] = {}

    def system(self, total: int, parity: int) -> ColumnReducer:
        key = (total, parity)
        hit = self._systems.get(key)
        if hit is not None:
            return hit
        reducer = ColumnReducer()
        for a, b in shape_pairs(total, parity):
            vec: dict = {}
            for new_slots, q in delta_terms((a, b)):
                vec[new_slots] = vec.get(new_slots, 0) + q
            if a != b:
                for new_slots, q in delta_terms((b, a)):
                    vec[new_slots] = vec.get(new_slots, 0) + q * parity
            vec = {s: q for s, q in vec.items() if q}
            reducer.add_column((a, b), vec)
        self._systems[key] = reducer
        return reducer

    def solve(self, rhs: Cochain, k: int) -> Cochain:
        """Canonical M_k with delta(M_k) = R_k, exact; raises InfeasibleError
        when some block cannot be generated."""
        parity = parity_sign(k)
        blocks: dict[tuple, RatVec] = defaultdict(RatVec)
        for slots, coeff in rhs.terms.items():
            total, den = slot_total(slots), coeff.den
            for mono, c in coeff.terms.items():
                blocks[total, mono].add({slots: c}, den)
        sums: dict = defaultdict(RatVec)
        for total, mono in sorted(blocks):
            reducer = self.system(total, parity)
            combo = reducer.solve(blocks[total, mono])
            if combo is None:
                raise InfeasibleError(
                    f"level {k}: block (slot total {total}, monomial {mono}) "
                    f"is outside the coboundary span", block=(total, mono))
            for (a, b), q in sorted(combo.items()):
                sums[a, b].add({mono: q.numerator}, q.denominator)
                if a != b:
                    sums[b, a].add({mono: q.numerator * parity}, q.denominator)
        result = Cochain._from_sums(2, rhs.ring, sums)
        if result.hochschild_delta() != rhs:
            raise AssertionError("solver produced a wrong coboundary")
        return result


# -- gauge re-selection inside the orderable-diagram span ------------------------------

# Even levels above this stay in the pivot gauge, since raising it changes their
# outputs.  The diagram layer allows more: opo_projections(4) takes about 1 s,
# and an order-4 build with limit 4 about 5 s (2-core machine, Python 3.11).
OPO_GAUGE_LIMIT = 2


def opo_projections(k: int, mode: str) -> list[tuple[int, Cochain]]:
    """Parity-projected jet concretizations of the k-factor orderable diagrams.

    Reversing a diagram's argument wiring is again a diagram, so the
    projections stay inside the orderable span.  Projections that collapse
    to zero (or duplicate a mirror partner, which the solver detects as a
    dependent column) are harmless and simply dropped or ignored.
    """
    parity = Fraction(parity_sign(k))
    half = Fraction(1, 2)
    out = []
    for idx, term in enumerate(enumerate_terms(k, require_opo=True)):
        c = concretize([term], mode)
        proj = (c + c.reverse_args().ring_scale(parity)).ring_scale(half)
        if not proj.is_zero:
            out.append((idx, proj))
    return out


def _flatten(cochain: Cochain) -> RatVec:
    """The coefficients of a cochain as one vector over (monomial, slots) rows."""
    rows = RatVec()
    for slots, coeff in cochain.terms.items():
        rows.add({(mono, slots): c for mono, c in coeff.terms.items()}, coeff.den)
    return rows


def solve_opo(rhs: Cochain, columns: list[tuple[int, Cochain]]) -> Cochain | None:
    """Solve delta(M_k) = R_k inside the span of orderable diagrams, given as
    the columns opo_projections(k, mode) returns.

    Jet ring only.  Returns None when the span does not reach the
    right-hand side.  Diagrams enter in enumeration order and free columns
    never contribute, so the result is deterministic; at level 2 the span
    solution is in fact unique.
    """
    if rhs.ring != JET_RING:
        raise ValueError("the diagram span lives in the jet ring")
    reducer = ColumnReducer()
    for idx, proj in columns:
        reducer.add_column(idx, _flatten(proj.hochschild_delta()))
    combo = reducer.solve(_flatten(rhs))
    if combo is None:
        return None
    by_index = dict(columns)
    out = linear_combination(2, JET_RING, ((q, by_index[idx]) for idx, q in sorted(combo.items())))
    if out.hochschild_delta() != rhs:
        raise AssertionError("diagram-span solver produced a wrong coboundary")
    return out


# -- the full construction -------------------------------------------------------------

@dataclass
class StarProduct:
    mode: str
    ring: str
    order: int
    levels: list[Cochain]
    obstruction_reports: list[ObstructionReport]
    phi_source: str = "sym"
    psi_source: str | None = None
    gauges: dict[int, str] | None = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "ring": self.ring,
            "order": self.order,
            "phi": self.phi_source,
            "psi": self.psi_source,
            "levels": [c.to_json() for c in self.levels],
            "obstructionReports": [r.to_json() for r in self.obstruction_reports],
            "gauges": {str(k): g for k, g in (self.gauges or {}).items()},
        }

    @staticmethod
    def from_json(data: dict) -> "StarProduct":
        """Parse a stored product; raises ValueError (or KeyError, TypeError)
        on one that is not well formed, so a verifier never meets it."""
        mode, ring, order = data["mode"], data["ring"], data["order"]
        if mode not in (NABLA_PHI, PSI_NABLA_PHI):
            raise ValueError(f"unknown mode {mode!r}")
        cls = ring_class(ring)
        levels = []
        for k, item in enumerate(data["levels"]):
            level = Cochain.from_json(item)
            if level.arity != 2 or level.ring != ring:
                raise ValueError(f"level {k} is not a bilinear operator in the {ring!r} ring")
            levels.append(level)
        if type(order) is not int or order < 1 or order != len(levels) - 1:
            raise ValueError(f"order {order!r} does not match {len(levels)} stored levels")
        phi, psi = data.get("phi", "sym"), data.get("psi")
        if not isinstance(phi, str) or not isinstance(psi, (str, type(None))):
            raise ValueError("phi and psi must be expression strings")
        if phi != "sym":
            parse_poly(phi)
        if psi not in (None, "sym"):
            parse_poly(psi)
        gauges = data.get("gauges", {})
        if not isinstance(gauges, dict) or not all(isinstance(g, str) for g in gauges.values()):
            raise ValueError(f"gauges must map levels to gauge names, got {gauges!r}")
        reports = []
        stored_reports = data.get("obstructionReports", [])
        if not isinstance(stored_reports, list):
            raise ValueError("obstructionReports must be a list")
        for item in stored_reports:
            level = item["level"]
            if type(level) is not int or not 2 <= level <= order:
                raise ValueError(f"obstruction report level {level!r} is not in 2..{order}")
            alternating = Cochain.from_json(item["alternating"])
            if alternating.arity != 3 or alternating.ring != ring:
                raise ValueError(f"level {level} obstruction is not trilinear in the {ring!r} ring")
            if not isinstance(item["isZero"], bool) or not isinstance(item["parityPath"], bool):
                raise ValueError(f"level {level} obstruction flags must be booleans")
            witness = cls.from_json(item["coordinateWitness"])
            shortcut = (None if item.get("shortcutWitness") is None
                        else cls.from_json(item["shortcutWitness"]))
            reports.append(ObstructionReport(
                level=level, alternating=alternating,
                coordinate_witness=witness, is_zero=item["isZero"],
                parity_path=item["parityPath"], shortcut_witness=shortcut,
                shortcut_agrees=item.get("shortcutAgrees")))
        return StarProduct(
            mode=mode, ring=ring, order=order,
            levels=levels, obstruction_reports=reports,
            phi_source=phi, psi_source=psi,
            gauges={int(k): g for k, g in gauges.items()})


def build_star(mode: str, order: int, phi: XPoly | str = "sym",
               psi: XPoly | str | None = None, jet_cap: int | None = None,
               opo_gauge_limit: int = OPO_GAUGE_LIMIT,
               opo_restrict: bool = False) -> StarProduct:
    """Construct levels 0..order with obstruction checks at every step.

    phi may be "sym" for the symbolic jet regime or an explicit polynomial;
    the conformal family needs psi as well, in the same regime.  Raises
    ObstructionError with the offending report when an obstruction is
    nonzero, and InfeasibleError when a block cannot be cobounded.

    Even levels up to opo_gauge_limit are re-selected inside the
    orderable-diagram span (per-level gauge tags record the outcome: "opo",
    "pivot", "unique", or "base").  Explicit-ring builds reuse the symbolic
    gauge solution and specialize it, so explicit levels agree with the
    specialized symbolic ones; without the re-selection the obstruction
    representative two levels above an even level is gauge-noise and can be
    nonzero even when the construction continues for some other gauge.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if mode not in (NABLA_PHI, PSI_NABLA_PHI):
        raise ValueError(f"unknown mode {mode!r}")
    symbolic = isinstance(phi, str)
    if symbolic and phi != "sym":
        raise ValueError(f"phi must be a polynomial or 'sym', got {phi!r}")
    if mode == PSI_NABLA_PHI:
        if psi is None or symbolic != isinstance(psi, str):
            raise ValueError("phi and psi must both be symbolic or both explicit")
    elif psi is not None and not (isinstance(psi, str) and symbolic):
        raise ValueError("psi is only meaningful in the conformal family")
    ring = JET_RING if symbolic else X_RING
    phi_poly = None if symbolic else phi
    psi_poly = None if symbolic or psi is None else psi

    levels = base_levels(mode, ring, phi_poly, psi_poly)
    # jet-ring shadow recursion, sourcing gauge re-selections for explicit builds
    jet_levels = levels if symbolic else base_levels(mode, JET_RING)
    solver = DeltaSolver()
    reports: list[ObstructionReport] = []
    gauges = {0: "base", 1: "base"}
    for k in range(2, order + 1):
        rhs, report = level_equation(levels, k, mode, jet_cap)
        reports.append(report)
        if not report.is_zero:
            raise ObstructionError(report)
        gauges[k] = "unique" if k % 2 else "pivot"
        opo_wanted = opo_restrict or (k % 2 == 0 and k <= opo_gauge_limit)
        jet_rhs = rhs if symbolic else None
        if jet_rhs is None and len(jet_levels) == k and (opo_wanted or k < opo_gauge_limit):
            jet_rhs, jet_report = level_equation(jet_levels, k, mode, jet_cap)
            if opo_restrict and not jet_report.is_zero:
                # the whole family is obstructed, so there is no
                # restricted solution to specialize from
                reports.append(jet_report)
                raise ObstructionError(jet_report)
        level_k = jet_level = None
        if opo_wanted and jet_rhs is not None:
            jet_level = solve_opo(jet_rhs, opo_projections(k, mode))
            if jet_level is None and opo_restrict:
                raise InfeasibleError(
                    f"level {k}: orderable-diagram span cannot cobound the "
                    "recursion right-hand side")
            if jet_level is not None:
                level_k = jet_level if symbolic else jet_level.specialize(phi_poly, psi_poly)
                if not symbolic and level_k.hochschild_delta() != rhs:
                    level_k = None  # specialization left the explicit span; fall back
                    if opo_restrict:
                        raise InfeasibleError(
                            f"level {k}: the specialized orderable solution "
                            "stopped solving the explicit recursion")
            if level_k is not None:
                gauges[k] = "opo"
        if level_k is None:
            level_k = solver.solve(rhs, k)
        levels.append(level_k)
        if not symbolic and jet_rhs is not None:
            if gauges[k] == "opo":
                jet_levels.append(jet_level)
            elif k < opo_gauge_limit:
                jet_levels.append(solver.solve(jet_rhs, k))
    return StarProduct(
        mode=mode, ring=ring, order=order, levels=levels,
        obstruction_reports=reports,
        phi_source="sym" if symbolic else str(phi),
        psi_source=(psi if isinstance(psi, str) else (str(psi) if psi is not None else None)),
        gauges=gauges)
