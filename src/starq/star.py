"""Level-by-level construction of Weyl-type star products.

The product is a formal series m(f,g) + sum_k nu^k M_k(f,g).  Associativity
at order k reads delta(M_k) = R_k with R_k assembled from lower levels via
the Gerstenhaber bracket; the construction solves this exactly over the
rationals after checking that the obstruction, the alternating first-order
part of R_k, vanishes.  R_k is closed when the lower levels solve their own
equations (Gerstenhaber's obstruction lemma); every solve checks
delta(M_k) = R_k exactly, which implies it, so closure is checked only
where a step fails.

Two coefficient regimes share all code paths: the jet ring (potentials kept
symbolic, which proves identities for every potential at once) and the
explicit polynomial ring.  In the gradient family every level-k term
carries exactly k potential jets and a total of 3k derivatives split
between jets and argument slots, which lets ``solve_level`` decompose the
cohomological equation into small per-monomial blocks, each solved against
the memoized echelon system of its derivative content and parity.  Every
column of such a system, and R_k itself, obeys X^rev = (-1)^(k+1) X, so a
slot tuple's entry fixes its mirror's; the systems and the blocks keep only
the first slot tuple of each mirror pair, a restriction that is injective
on vectors of that parity and so changes no solution.

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

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Sequence

from .cochains import (
    Cochain, JET_RING, X_RING, _common_den, coboundary_defect, delta_terms, epsilon_cochain,
    insertion_sum, linear_combination, ring_class, slot_total,
)
from .jets import MAX_ORDER, MODES, PSI_NABLA_PHI, decode, factor_codes, grading
from .linsolve import ColumnReducer
from .multiindex import MultiIndex, splits
from .opo import concretize, enumerate_terms, mirror_term
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


def parity_sign(k: int) -> int:
    return (-1) ** k


def has_parity(cochain: Cochain, sign: int) -> bool:
    """Whether cochain^rev = sign * cochain."""
    return cochain.reverse_args() == (cochain if sign > 0 else cochain.scale(-1))


# -- level 0 and 1 -------------------------------------------------------------

def base_levels(mode: str, ring: str, phi: XPoly | str, psi: XPoly | str | None) -> list[Cochain]:
    """[M_0, M_1] in the requested coefficient ring.  M_1 is half the Poisson
    bracket, the one one-factor diagram P^{ij} d_i f d_j g concretized."""
    m1 = concretize(enumerate_terms(1)[0], mode).scale(Fraction(1, 2))
    if ring == X_RING:
        m1 = m1.specialize(phi, psi)
    return [Cochain.multiplication(ring), m1]


# -- right-hand side ------------------------------------------------------------

def assemble_rhs(levels: Sequence[Cochain], k: int) -> Cochain:
    """R_k = sum over l of M_l o M_{k-l}, the source M_k must cobound.

    Levels are indexed by their order, levels[0] being the multiplication.
    For bilinear levels the Gerstenhaber bracket is [a, b] = a o b + b o a,
    so this one-sided sum equals (1/2) sum over l of [M_l, M_{k-l}] with half
    the insertions.  Each insertion obeys (a o b)^rev = -(a^rev o b^rev), so
    over lower levels of Weyl parity, M_l^rev = (-1)^l M_l, the sum obeys
    R_k^rev = (-1)^(k+1) R_k.  Only the terms whose first slot is no longer
    than the last are therefore inserted, and each one with a shorter first
    slot is mirrored with that sign.  The parity of every lower level is
    checked first: a level that lost it raises AssertionError.
    """
    if k < 2:
        raise ValueError("right-hand sides start at level 2")
    if len(levels) <= k - 1:
        raise ValueError(f"level {k} needs all lower levels, have {len(levels) - 1}")
    if any(levels[l].arity != 2 for l in range(1, k)):
        raise ValueError("right-hand sides are assembled from bilinear levels")
    for l in range(1, k):
        if not has_parity(levels[l], parity_sign(l)):
            raise AssertionError(f"M_{l}^rev != (-1)^{l} M_{l}; level {l} lost its parity")
    # a term of M_l o M_{k-l} carries at most the slot derivatives of both factors
    totals = [max(map(slot_total, level.terms), default=0) for level in levels[:k]]
    top = max(totals[l] + totals[k - l] for l in range(1, k))
    half = {(a, b, c) for a in range(top + 1) for c in range(a, top + 1 - a)
            for b in range(top + 1 - a - c)}
    rhs = insertion_sum(3, levels[1].ring,
                        ((1, levels[l], levels[k - l]) for l in range(1, k)), half)
    odd = k % 2 == 1  # the mirror's sign (-1)^(k+1) is +1
    rhs.terms.update([(slots[::-1], c if odd else -c) for slots, c in rhs.terms.items()
                      if len(slots[0]) < len(slots[2])])
    return rhs


# -- obstruction -----------------------------------------------------------------

COORDINATE_SLOTS = (((1,), (2,), (3,)))


@dataclass
class ObstructionReport:
    """The alternating first-order part of R_k; the rest is derived from it,
    from the level and from the shortcut witness.

    Over Weyl-type levels, M_l^rev = (-1)^l M_l, each insertion obeys
    (a o b)^rev = -(a^rev o b^rev), so R_k^rev = (-1)^(k+1) R_k: at odd k
    the alternating part vanishes on parity grounds (``parity_path``).
    """
    level: int
    alternating: Cochain
    shortcut_witness: object

    def __post_init__(self) -> None:
        self.coordinate_witness = determinant_witness(self.alternating)  # value on (x1, x2, x3)
        self.is_zero = self.alternating.is_zero
        self.parity_path = self.level % 2 == 1
        self.shortcut_agrees = proportional(self.coordinate_witness, self.shortcut_witness)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "isZero": self.is_zero,
            "parityPath": self.parity_path,
            "coordinateWitness": self.coordinate_witness.to_json(),
            "alternating": self.alternating.to_json(),
            "shortcutWitness": self.shortcut_witness.to_json(),
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
    copies = {} if witness.is_zero else {
        slots: witness * sign for slots, sign in epsilon_cochain(alternating.ring).terms.items()}
    if alternating.terms != copies:
        raise AssertionError("alternating part is not a multiple of the determinant operator")
    return witness


def obstruction(rhs: Cochain, k: int, levels: Sequence[Cochain]) -> ObstructionReport:
    """Alternating first-order part of R_k, with its coordinate witness.

    The alternating part of a first-order trilinear operator in three
    dimensions is a single ring element times the determinant operator, so
    its value on the coordinate triple decides vanishing.  Since
    R_k^rev = (-1)^(k+1) R_k over Weyl-type lower levels, an odd R_k that is
    not reversal-symmetric means a lower level has lost its parity, and
    raises AssertionError; its alternating part is computed all the same.
    The insertion shortcut A((M_{k-1} o M_1)_{(1,1,1)}) over the lower levels
    is computed as a cross-check; it must be zero together with the direct
    result, or a rational multiple of it.
    """
    if k % 2 == 1 and not has_parity(rhs, 1):
        raise AssertionError(f"R_{k} is not reversal-symmetric; a lower level lost its parity")
    alternating = rhs.degree_part((1, 1, 1)).antisymmetrize()
    shortcut = insertion_sum(3, rhs.ring, [(1, levels[k - 1], levels[1])], {(1, 1, 1)})
    return ObstructionReport(k, alternating, determinant_witness(shortcut.antisymmetrize()))


# -- grading ----------------------------------------------------------------------

def check_grading(cochain: Cochain, k: int, mode: str) -> None:
    """Factor-count and derivative-balance invariants for a level-k operator
    or right-hand side in the jet ring.

    Every term must carry exactly k potential-gradient jets (plus k
    conformal jets in the conformal family) and 3k derivatives in total,
    counting jet orders and argument slots together.  Jets are exact and
    never truncated; the balance alone bounds their orders, since the k
    phi jets carry at least one derivative each.
    """
    if cochain.ring != JET_RING:
        return
    want_psi = mode == PSI_NABLA_PHI
    for slots, coeff in cochain.terms.items():
        s_total = slot_total(slots)
        for mono in coeff.terms:
            n_phi, n_psi, jet_total = grading(mono)
            if n_phi != k or n_psi != (k if want_psi else 0):
                raise GradingError(
                    f"level {k}: factor counts ({n_phi} phi, {n_psi} psi) in {decode(mono)}")
            if s_total + jet_total != 3 * k:
                raise GradingError(
                    f"level {k}: derivative balance {s_total}+{jet_total} != {3 * k}")


# -- the level step ------------------------------------------------------------------

def check_closed(rhs: Cochain, k: int) -> None:
    """Raise ClosureError unless delta(R_k) = 0, as it is whenever the lower
    levels solve their own equations (the obstruction lemma)."""
    if coboundary_defect(rhs) is not None:
        raise ClosureError(f"delta(R_{k}) is nonzero; lower levels are inconsistent")


@contextmanager
def closure_first(rhs: Cochain, k: int):
    """Run part of the level-k step on R_k; if it fails, a corrupt lower
    level is reported first, as ClosureError."""
    try:
        yield
    except (GradingError, ObstructionError, InfeasibleError, AssertionError):
        check_closed(rhs, k)
        raise


def level_equation(levels: Sequence[Cochain], k: int,
                   mode: str) -> tuple[Cochain, ObstructionReport]:
    """The right-hand side of delta(M_k) = R_k and its obstruction.

    R_k is assembled from the lower levels, graded in the jet ring and
    reported on; it is checked closed only if that fails.  A caller that
    solves the level relies on its exact solve for closure, one that solves
    nothing calls ``check_closed``.  Whether the report's obstruction blocks
    the step is left to the caller.
    """
    rhs = assemble_rhs(levels, k)
    with closure_first(rhs, k):
        check_grading(rhs, k, mode)
        return rhs, obstruction(rhs, k, levels)


# -- the ansatz and the level solve ------------------------------------------------

def _graded(index: MultiIndex) -> tuple[int, MultiIndex]:
    return (len(index), index)


def _kept(slots: tuple[MultiIndex, ...]) -> bool:
    """Whether a slot tuple is the first of its mirror pair in the canonical
    slot order: its first slot comes no later than its last."""
    return _graded(slots[0]) <= _graded(slots[-1])


def shape_pairs(content: MultiIndex, parity: int) -> list[tuple[MultiIndex, MultiIndex]]:
    """Canonical slot-pair shapes whose derivatives together are ``content``,
    in the given parity class.

    Pairs are listed with the smaller slot first; the symmetric class also
    carries equal-slot diagonals.  Each pair stands for the operator
    d_A x d_B + parity * d_B x d_A.
    """
    out = [(a, b) for (a, b), _ in splits(content, 2)
           if a and _graded(a) <= _graded(b) and (a != b or parity > 0)]
    out.sort(key=lambda p: (_graded(p[0]), _graded(p[1])))
    return out


@cache
def shape_system(content: MultiIndex, parity: int) -> ColumnReducer:
    """The echelonized coboundaries of the ``shape_pairs`` of this content and
    parity, each pair with its mirror times parity, on the ``_kept`` rows only.

    A pair's operator X has X^rev = parity * X, and (delta X)^rev =
    -delta(X^rev), so each column obeys Y^rev = -parity * Y: a dropped row
    holds its kept mirror's entry times -parity.  Restriction to the kept
    rows is therefore injective on the columns' span, and it keeps every
    linear dependence among them.  A pure function of its key, so memoized,
    and only read by the solves in either ring."""
    reducer = ColumnReducer()
    for a, b in shape_pairs(content, parity):
        vec: dict = {}
        for new_slots, q in delta_terms((a, b)):
            vec[new_slots] = vec.get(new_slots, 0) + q
        if a != b:
            for new_slots, q in delta_terms((b, a)):
                vec[new_slots] = vec.get(new_slots, 0) + q * parity
        reducer.add_column((a, b), RatVec({s: q for s, q in vec.items() if q and _kept(s)}))
    return reducer


def solve_level(rhs: Cochain, k: int) -> Cochain:
    """Canonical M_k with delta(M_k) = R_k over the graded, parity-pure ansatz,
    exact; raises InfeasibleError when some block cannot be generated.

    The coboundary never touches coefficients and only splits slots or adds
    empty ones, so it keeps the multiset of all derivatives in a term, its
    content.  The equation therefore splits into independent blocks per
    coefficient monomial and content, each solved against the shape system
    of its content and parity; within a block the canonical solution sets
    free coefficients to zero.  Each entry of R_k lands in one block, and
    each entry of a block's solution in one slot sum, as does its mirror (a
    canonical pair is never another's mirror), so entries move by
    assignment over one common denominator and nothing is summed.

    Only R_k's ``_kept`` rows enter the blocks, as only they are in the shape
    systems.  Restriction to them is injective on vectors X with
    X^rev = (-1)^(k+1) X, where the columns lie, so it keeps every linear
    dependence among the columns: the pivot columns, and the one combination
    of them that reproduces an R_k of that parity, are those of the full
    rows.  An R_k without the parity lies outside the span even where its
    kept rows do not, so when R_k as a whole lacks it, each block's parity is
    checked before the block is solved, and the first block that fails is
    the one the full rows would name.
    """
    parity = parity_sign(k)
    mirrored = has_parity(rhs, -parity)
    den = _common_den(rhs)
    blocks: dict[tuple, dict] = defaultdict(dict)
    for slots, coeff in rhs.terms.items():
        if mirrored and not _kept(slots):
            continue
        content, mul = tuple(sorted(sum(slots, ()))), den // coeff.den
        for mono, c in coeff.terms.items():
            blocks[content, mono][slots] = c * mul
    combos = []
    # blocks in the order and with the names of their public monomials
    shown = decode if rhs.ring == JET_RING else tuple
    for content, mono in sorted(blocks, key=lambda b: (len(b[0]), shown(b[1]), b[0])):
        block = blocks[content, mono]
        if not mirrored:  # a block's kept rows stand for it only if it has the parity
            lost = any(block.get(s[::-1]) != -parity * c for s, c in block.items())
            block = None if lost else {s: c for s, c in block.items() if _kept(s)}
        combo = None if block is None else shape_system(content, parity).solve(RatVec(block, den))
        if combo is None:
            raise InfeasibleError(
                f"level {k}: block (slot total {len(content)}, monomial {shown(mono)}) "
                f"is outside the coboundary span")
        combos.append((mono, combo))
    common = lcm(*(combo.den for _, combo in combos))
    sums: dict = defaultdict(dict)
    for mono, combo in combos:
        mul = common // combo.den
        for (a, b), c in combo.terms.items():
            sums[a, b][mono] = c * mul
            if a != b:
                sums[b, a][mono] = c * mul * parity
    make = ring_class(rhs.ring).from_numerators
    result = Cochain(2, rhs.ring, {slots: make(terms, common) for slots, terms in sums.items()})
    if coboundary_defect(result, rhs) is not None:
        raise AssertionError("solver produced a wrong coboundary")
    return result


# -- gauge re-selection inside the orderable-diagram span ------------------------------

# Even levels above this stay in the pivot gauge, since raising it changes their
# outputs, and it makes every explicit build of order 4 or more build its
# symbolic family to that order: the x3 product at order 4 takes about 1 s of
# CPU with limit 4, against 0.012 s with limit 2 (one process, Python 3.11).
OPO_GAUGE_LIMIT = 2


def opo_projections(k: int, mode: str) -> list[tuple[int, Cochain, Cochain]]:
    """Parity-projected jet concretizations of the k-factor orderable diagrams,
    each as (diagram index, projection, its coboundary).

    Reversing a diagram's argument wiring is again a diagram (its
    ``mirror_term``, eps times a canonical one), so the projections stay
    inside the orderable span, and the mirror's projection is eps * (-1)^k
    times the diagram's.  So there is one column per mirror pair, that of
    its first diagram: the later one would only repeat it up to sign, and
    the span is the same without it.  Projections that collapse to zero,
    such as a diagram's that is its own mirror with eps * (-1)^k = -1, are
    dropped, and dependent ones are ignored by the solver.
    """
    half = Fraction(1, 2)
    weights = (half, half * parity_sign(k))
    terms = enumerate_terms(k)
    index = {term.key(): idx for idx, term in enumerate(terms)}
    out = []
    for idx, term in enumerate(terms):
        if index[mirror_term(term).key()] < idx:
            continue
        c = concretize(term, mode)
        proj = linear_combination(2, JET_RING, zip(weights, (c, c.reverse_args())))
        if not proj.is_zero:
            out.append((idx, proj, proj.hochschild_delta()))
    return out


def _flatten(cochain: Cochain) -> RatVec:
    """The coefficients as one vector over (monomial, slots) rows, jets by their codes."""
    den = _common_den(cochain)
    key = factor_codes if cochain.ring == JET_RING else tuple
    rows = {}
    for slots, coeff in cochain.terms.items():
        mul = den // coeff.den
        for mono, c in coeff.terms.items():
            rows[key(mono), slots] = c * mul
    return RatVec(rows, den)


def span_combination(target: Cochain,
                     columns: Iterable[tuple[int, Cochain]]) -> dict[int, Fraction] | None:
    """Exact coordinates of target in the span of the (key, cochain) columns,
    or None outside it.  Columns enter in the given order and dependent ones
    never contribute, so the combination is deterministic."""
    reducer = ColumnReducer()
    for key, column in columns:
        reducer.add_column(key, _flatten(column))
    combo = reducer.solve(_flatten(target))
    return None if combo is None else combo.fractions()


def solve_opo(rhs: Cochain, columns: list[tuple[int, Cochain, Cochain]]) -> Cochain | None:
    """Solve delta(M_k) = R_k inside the span of orderable diagrams, given as
    the columns opo_projections(k, mode) returns.

    Jet ring only.  Returns None when the span does not reach the
    right-hand side.  Diagrams enter in enumeration order; at level 2 the
    span solution is in fact unique.
    """
    if rhs.ring != JET_RING:
        raise ValueError("the diagram span lives in the jet ring")
    combo = span_combination(rhs, ((idx, delta) for idx, _, delta in columns))
    if combo is None:
        return None
    by_index = {idx: proj for idx, proj, _ in columns}
    out = linear_combination(2, JET_RING,
                             ((q, by_index[idx]) for idx, q in sorted(combo.items())))
    if coboundary_defect(out, rhs) is not None:
        raise AssertionError("diagram-span solver produced a wrong coboundary")
    return out


# -- the full construction -------------------------------------------------------------

def gauges_at(k: int) -> tuple[str, ...]:
    """The gauges a build records at level k: "base" at levels 0 and 1; from
    level 2 on "opo" (the orderable-diagram span) or, where ``solve_level``
    solves the level, "unique" at odd and "pivot" at even levels."""
    return ("base",) if k < 2 else ("opo", "unique" if k % 2 else "pivot")


def _bounded(cochain: Cochain, what: str) -> Cochain:
    """The cochain, unless a term carries more slot derivatives than a
    level of order MAX_ORDER can: a level-k term carries k phi jets of order
    one or more within 3k derivatives, so at most 2k slot derivatives."""
    for slots in cochain.terms:
        if slot_total(slots) > 2 * MAX_ORDER:
            raise ValueError(f"{what} has a term with {slot_total(slots)} slot "
                             f"derivatives, above {2 * MAX_ORDER}")
    return cochain


def parse_potential(text: str | None) -> XPoly | str | None:
    """A potential's text: "sym" (symbolic) or None (absent), else a polynomial."""
    return text if text in (None, "sym") else parse_poly(text)


def product_ring(mode: str, phi: XPoly | str, psi: XPoly | str | None) -> str:
    """The ring of the family-``mode`` product of these potentials, the jet ring
    for "sym" and the x ring for polynomials; ValueError when they make no
    product.  Only the conformal family takes psi, in the regime of phi."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    symbolic = phi == "sym"
    if not (symbolic or isinstance(phi, XPoly)):
        raise ValueError(f"phi must be a polynomial or 'sym', got {phi!r}")
    if mode == PSI_NABLA_PHI:
        if not (psi == "sym" if symbolic else isinstance(psi, XPoly)):
            raise ValueError("phi and psi must both be symbolic or both explicit")
    elif psi is not None:
        raise ValueError("psi is only meaningful in the conformal family")
    return JET_RING if symbolic else X_RING


@dataclass
class StarProduct:
    """A star product: its family, potentials, levels 0..order and gauges.  The
    ring, order and obstruction reports are derived: a level exists only because
    its obstruction and shortcut vanished, so each level 2..order has the zero report."""
    mode: str
    phi: XPoly | str
    psi: XPoly | str | None
    levels: list[Cochain]
    gauges: dict[int, str]

    @property
    def ring(self) -> str:
        return product_ring(self.mode, self.phi, self.psi)

    @property
    def order(self) -> int:
        return len(self.levels) - 1

    @property
    def obstruction_reports(self) -> list[ObstructionReport]:
        ring = self.ring
        return [ObstructionReport(k, Cochain(3, ring), ring_class(ring).zero())
                for k in range(2, self.order + 1)]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "ring": self.ring,
            "order": self.order,
            "phi": str(self.phi),
            "psi": None if self.psi is None else str(self.psi),
            "levels": [c.to_json() for c in self.levels],
            "obstructionReports": [r.to_json() for r in self.obstruction_reports],
            "gauges": {str(k): g for k, g in self.gauges.items()},
        }

    @staticmethod
    def from_json(data: dict) -> "StarProduct":
        """Parse a stored product; raises ValueError (or KeyError, TypeError)
        on one that is not well formed, so a verifier never meets it.

        The potentials are parsed here, once, and the stored ring, order and
        obstruction reports must equal the ones derived from the product.
        """
        mode, order = data["mode"], data["order"]
        if type(order) is not int or not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order {order!r} is not in 1..{MAX_ORDER}")
        phi_text, psi_text = data.get("phi", "sym"), data.get("psi")
        if not isinstance(phi_text, str) or not isinstance(psi_text, (str, type(None))):
            raise ValueError("phi and psi must be expression strings")
        phi, psi = parse_potential(phi_text), parse_potential(psi_text)
        ring = product_ring(mode, phi, psi)
        if data["ring"] != ring:
            raise ValueError(f"phi {phi_text!r} and psi {psi_text!r} do not fit mode {mode!r} "
                             f"in the {data['ring']!r} ring")
        levels = []
        for k, item in enumerate(data["levels"]):
            level = _bounded(Cochain.from_json(item), f"level {k}")
            if level.arity != 2 or level.ring != ring:
                raise ValueError(f"level {k} is not a bilinear operator in the {ring!r} ring")
            levels.append(level)
        if order != len(levels) - 1:
            raise ValueError(f"order {order!r} does not match {len(levels)} stored levels")
        gauges = data["gauges"]
        if not isinstance(gauges, dict) or set(gauges) != {str(k) for k in range(order + 1)}:
            raise ValueError(f"gauges must name one gauge for each level 0..{order}, "
                             f"got {gauges!r}")
        for k in range(order + 1):
            if gauges[str(k)] not in gauges_at(k):
                raise ValueError(f"level {k} has gauge {gauges[str(k)]!r}, not one of "
                                 f"{gauges_at(k)}")
        star = StarProduct(mode, phi, psi, levels, {int(k): g for k, g in gauges.items()})
        if (json.dumps(data["obstructionReports"], sort_keys=True)
                != json.dumps([r.to_json() for r in star.obstruction_reports], sort_keys=True)):
            raise ValueError(f"obstructionReports must be the zero report of each level "
                             f"2..{order}")
        return star


def level_step(levels: Sequence[Cochain], k: int, mode: str, span: bool,
               specialized: Cochain | None = None) -> tuple[Cochain, str]:
    """M_k over the lower levels and its gauge, one step of ``build_star``.

    Raises ObstructionError when the obstruction of R_k is nonzero.  Off the
    ``span``, M_k is the ``solve_level`` solution.  In it, M_k is the
    ``specialized`` family level when one is given, else the solution in the
    orderable-diagram span, and InfeasibleError when the span misses R_k.
    Each is checked exactly against R_k, so R_k is checked closed only when
    the step fails.
    """
    rhs, report = level_equation(levels, k, mode)
    with closure_first(rhs, k):
        if not report.is_zero:
            raise ObstructionError(report)
        if not report.shortcut_witness.is_zero:
            raise AssertionError(f"level {k}: the insertion shortcut is nonzero "
                                 "under a zero obstruction")
        if not span:
            return solve_level(rhs, k), gauges_at(k)[-1]
        if specialized is None:
            specialized = solve_opo(rhs, opo_projections(k, mode))
            if specialized is None:
                raise InfeasibleError(f"level {k}: orderable-diagram span cannot cobound the "
                                      "recursion right-hand side")
        elif coboundary_defect(specialized, rhs) is not None:
            raise AssertionError("specialized orderable solution fails the explicit recursion")
        return specialized, "opo"


def build_star(mode: str, order: int, phi: XPoly | str = "sym",
               psi: XPoly | str | None = None, opo_restrict: bool = False) -> StarProduct:
    """Construct levels 0..order with obstruction checks at every step.

    phi and psi are potentials as ``product_ring`` admits them.  Raises
    ObstructionError with the offending report when an obstruction is
    nonzero, and InfeasibleError when a block cannot be cobounded or a span
    level is outside the orderable-diagram span.

    The span levels, every level under opo_restrict and else the even levels
    up to OPO_GAUGE_LIMIT, are re-selected inside the orderable-diagram span
    (per-level gauge tags record the outcome: "opo", "pivot", "unique", or
    "base").  An explicit build first builds its symbolic family up to the
    last span level and specializes the family's span levels, so explicit
    levels agree with the specialized symbolic ones; an obstructed family
    raises the family's report.  Without the re-selection the obstruction
    representative two levels above an even level is gauge-noise and can be
    nonzero even when the construction continues for some other gauge.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    ring = product_ring(mode, phi, psi)
    levels = base_levels(mode, ring, phi, psi)
    spans = [k for k in range(2, order + 1)
             if opo_restrict or (k % 2 == 0 and k <= OPO_GAUGE_LIMIT)]
    family = None
    if ring == X_RING and spans:
        family = build_star(mode, spans[-1], "sym", "sym" if mode == PSI_NABLA_PHI else None,
                            opo_restrict)
    gauges = {0: "base", 1: "base"}
    for k in range(2, order + 1):
        # specialization is a ring map commuting with total derivatives, so the
        # family's solution specializes to a solution of the explicit step
        specialized = family.levels[k].specialize(phi, psi) if family and k in spans else None
        level_k, gauges[k] = level_step(levels, k, mode, k in spans, specialized)
        levels.append(level_k)
    return StarProduct(mode, phi, psi, levels, gauges)
