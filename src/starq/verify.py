"""Independent checks for constructed star products.

Nothing here reuses the constructor's solver or gauge machinery: the Moyal
reference comes from its closed formula, associators from direct evaluation
on explicit polynomials, the Jacobi residual from the curl formula.  The
ring core and the insertion kernel are shared with the constructor; the
independence is in the formulas, the symmetric-bracket right-hand side
(one bracket per unordered pair of levels, each inserting both orders)
against the constructor's one-sided sum, and the associator scan.  A
verification run produces a machine-readable report whose failing entries
each name a witness triple of polynomials, so a corrupted product is not
just flagged but exhibited.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from .cochains import Cochain, X_RING, linear_combination
from .jets import JetPolynomial, substitute_factor
from .multiindex import multiplicities
from .polynomials import RatVec, XPoly, monomials_up_to, parse_poly
from .star import StarProduct


# -- Jacobi -----------------------------------------------------------------------

# the index pairs (i, j) of the components (P^{23}, P^{31}, P^{12})
POISSON_PAIRS = ((2, 3), (3, 1), (1, 2))


def poisson_vector(phi: XPoly, psi: XPoly | None) -> tuple[XPoly, XPoly, XPoly]:
    """The components (P^{23}, P^{31}, P^{12}) of psi * grad phi, or of
    grad phi when psi is None."""
    grad = tuple(phi.x_derivative(a) for a in (1, 2, 3))
    return grad if psi is None else tuple(psi * c for c in grad)


def jacobi_residual(p: tuple) -> XPoly:
    """The dot product of a vector (P^{23}, P^{31}, P^{12}), explicit
    polynomials or jet polynomials, with its own curl; zero iff the bracket
    P^{ij} d_i f d_j g satisfies the Jacobi identity."""
    c1, c2, c3 = p
    curl1 = c3.x_derivative(2) - c2.x_derivative(3)
    curl2 = c1.x_derivative(3) - c3.x_derivative(1)
    curl3 = c2.x_derivative(1) - c1.x_derivative(2)
    return c1 * curl1 + c2 * curl2 + c3 * curl3


def gradient_jacobi_residual(mode: str) -> JetPolynomial:
    """Same residual with the potentials symbolic, proving the identity for
    every gradient (or conformal-gradient) vector at once."""
    return jacobi_residual(tuple(substitute_factor((), i, j, mode) for i, j in POISSON_PAIRS))


# -- the Moyal reference -------------------------------------------------------------

def moyal_level(p: tuple, k: int) -> Cochain:
    """Level k of the Weyl product for a constant vector (P^{23}, P^{31},
    P^{12}), from the closed exponential formula: all index chains of
    length k, weight 1/(2^k k!)."""
    comps = {}
    for (i, j), c in zip(POISSON_PAIRS, p):
        if c.total_degree() > 0:
            raise ValueError("the closed formula needs a constant vector")
        q = c.coefficient((0, 0, 0))
        if q:
            comps[(i, j)] = q
            comps[(j, i)] = -q
    out = Cochain(2, X_RING)
    if k == 0:
        return Cochain.multiplication(X_RING)
    weight = Fraction(1, 2 ** k * factorial(k))
    for chain in iproduct(sorted(comps), repeat=k):
        coeff = weight
        for pair in chain:
            coeff *= comps[pair]
        left = tuple(sorted(i for i, _ in chain))
        right = tuple(sorted(j for _, j in chain))
        out.add_term((left, right), XPoly.const(coeff))
    return out


# -- series evaluation ----------------------------------------------------------------

class _Evaluator:
    """The levels of one product applied to explicit arguments.

    Arguments are registered under hashable keys.  Each slot derivative of
    an argument is taken once, and each coefficient f *_b g of two registered
    arguments is evaluated once and registered in turn under the key
    (f key, g key, b), so every associator containing the pair on either side
    shares it.  Each level's terms are grouped by left slot, and the rows
    whose slot derivative of an argument is nonzero are listed once per
    argument and level.  The memos grow with the arguments seen, so an
    evaluator lives for one top-level call.

    A term c d_s x d_t y vanishes unless |s| <= deg x and |t| <= deg y, and
    otherwise has degree at most deg x + deg y + deg c - |s| - |t|.  Each
    level keeps the slot lengths of its terms and the largest such excess,
    and ``associator`` evaluates only the sides that these allow to be
    nonzero: a skipped side looks up, evaluates and memoizes nothing.  No
    coefficient is skipped, and each is the one a full evaluation gives.
    """

    def __init__(self, levels: list[Cochain], args):
        self.rows: list[dict] = []  # per level: left slot -> [(right slot, coefficient)]
        self._shapes: list[set] = []  # per level: the (|s|, |t|) of its terms
        # per level: max of deg c - |s| - |t|, or None for an empty level,
        # which fits no degrees, so its None is never read
        self._excess: list = []
        for level in levels:
            if level.ring != X_RING or level.arity != 2:
                raise ValueError("series evaluation needs bilinear x-ring levels")
            rows: dict = {}
            for (s, t), c in level.terms.items():
                rows.setdefault(s, []).append((t, c))
            self.rows.append(rows)
            self._shapes.append({(len(s), len(t)) for s, t in level.terms})
            self._excess.append(max((c.total_degree() - len(s) - len(t)
                                     for (s, t), c in level.terms.items()), default=None))
        self.args = dict(args)
        self._derivatives: dict = {}
        self._live: dict = {}
        self._degrees: dict = {}
        self._sides: dict = {}

    def _degree(self, key) -> int:
        if key not in self._degrees:
            self._degrees[key] = self.args[key].total_degree()
        return self._degrees[key]

    def _fits(self, b: int, dx: int, dy: int) -> bool:
        """Whether some term of level b acts on arguments of degrees dx, dy."""
        return any(ls <= dx and lt <= dy for ls, lt in self._shapes[b])

    def _live_sides(self, j: int, df: int, dg: int, dh: int) -> list:
        """(a, b, sign) for each side of coefficient j of the associator that
        degrees allow to be nonzero: sign 1 for (f *_b g) *_a h, -1 for
        f *_a (g *_b h)."""
        key = (j, df, dg, dh)
        if key not in self._sides:
            sides = []
            for a in range(j + 1):
                b = j - a
                if self._fits(b, df, dg) and self._fits(a, df + dg + self._excess[b], dh):
                    sides.append((a, b, 1))
                if self._fits(b, dg, dh) and self._fits(a, df, dg + dh + self._excess[b]):
                    sides.append((a, b, -1))
            self._sides[key] = sides
        return self._sides[key]

    def _derivative(self, key, slot) -> XPoly:
        memo = self._derivatives
        if (key, slot) not in memo:
            memo[key, slot] = self.args[key].derivative(slot)
        return memo[key, slot]

    def _live_rows(self, key, b: int) -> list:
        """(d_s arg, row) for each row of level b whose left slot s keeps arg."""
        if (key, b) not in self._live:
            self._live[key, b] = [(d, row) for s, row in self.rows[b].items()
                                  if not (d := self._derivative(key, s)).is_zero]
        return self._live[key, b]

    def _add_level(self, out: RatVec, b: int, left, right, sign: int = 1) -> None:
        """out += sign * M_b(left, right), in place."""
        for dl, row in self._live_rows(left, b):
            for t, c in row:
                dr = self._derivative(right, t)
                if not dr.is_zero:
                    value = c * dl * dr
                    out.add(value.terms, value.den, sign)

    def level(self, b: int, left, right) -> XPoly:
        out = RatVec()
        self._add_level(out, b, left, right)
        return XPoly.from_numerators(out.terms, out.den)

    def pair(self, left, right, b: int):
        """The key of left *_b right, evaluated on first use."""
        key = (left, right, b)
        if key not in self.args:
            self.args[key] = self.level(b, left, right)
        return key

    def associator(self, f, g, h, j: int) -> XPoly:
        """Coefficient j of (f*g)*h - f*(g*h), from the sides that degrees
        allow to be nonzero."""
        out = RatVec()
        for a, b, sign in self._live_sides(j, self._degree(f), self._degree(g), self._degree(h)):
            if sign == 1:
                self._add_level(out, a, self.pair(f, g, b), h)
            else:
                self._add_level(out, a, f, self.pair(g, h, b), -1)
        return XPoly.from_numerators(out.terms, out.den)


def star_series(levels: list[Cochain], f: XPoly, g: XPoly) -> list[XPoly]:
    """Coefficients of the deformation parameter in f * g, one per level."""
    series = _Evaluator(levels, {"f": f, "g": g})
    return [series.level(b, "f", "g") for b in range(len(levels))]


def associator(levels: list[Cochain], f: XPoly, g: XPoly, h: XPoly) -> list[XPoly]:
    """Coefficients of (f*g)*h - f*(g*h), one per level."""
    series = _Evaluator(levels, {"f": f, "g": g, "h": h})
    return [series.associator("f", "g", "h", j) for j in range(len(levels))]


def associator_scan(levels: list[Cochain], bound: int):
    """The first nonzero associator coefficient over every monomial triple
    with total degree at most the bound, as (f, g, h, j, coefficient), or
    None when every coefficient through the top level vanishes.

    Triples come in the order of ``_monomial_triples`` and, within a triple,
    coefficients in increasing j; nothing past the first nonzero one is
    computed.  Every triple and every j up to it is visited; only level
    applications that degrees show to be zero are skipped (see
    ``_Evaluator``), so the first nonzero coefficient is the one a full
    evaluation finds.
    """
    monos = monomials_up_to(bound)
    series = _Evaluator(levels, enumerate(monos))
    for f, g, h in _monomial_triples(monos, bound):
        for j in range(len(levels)):
            c = series.associator(f, g, h, j)
            if not c.is_zero:
                return monos[f], monos[g], monos[h], j, c
    return None


# -- the report -------------------------------------------------------------------

def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _witness_from_slots(slots) -> list[str]:
    """Per slot, the smallest monomial whose slot derivative is a nonzero
    constant, padded with 1 to three arguments."""
    args = [str(XPoly.from_monomial(multiplicities(index))) for index in slots]
    return (args + ["1", "1", "1"])[:3]


_HALF = Fraction(1, 2)


def _rhs(levels: list[Cochain], k: int) -> Cochain:
    """(1/2) sum over l of [M_l, M_{k-l}], the symmetric bracket form.

    For bilinear levels the bracket is symmetric, [a, b] = a∘b + b∘a = [b, a],
    so the sum runs over unordered pairs: each [M_l, M_{k-l}] with l < k - l
    once, and half of [M_{k/2}, M_{k/2}] for even k, floor(k/2) brackets in
    all.  Every bracket still inserts both orders of its pair, so this
    re-derives R_k by another formula than the constructor's one-sided sum;
    the brackets are added into one accumulator.
    """
    return linear_combination(
        3, levels[1].ring,
        ((1 if 2 * l < k else _HALF, levels[l].bracket(levels[k - l]))
         for l in range(1, k // 2 + 1)))


def verify_star(star: StarProduct, degree: int | None = None) -> dict:
    """Full independent re-check of a star product; returns a report whose
    failing checks each name a witness triple.

    Structural checks (units, parity, level residuals) run in either ring.
    The associator scan and commutator probes run in the explicit ring over
    every monomial triple with total degree bounded by `degree` (default:
    the constructed order).
    """
    levels = star.levels
    digest = _digest(star.to_json())
    checks: list[dict] = []

    def check(name: str, passed: bool, residual="0", witness=None):
        checks.append({"name": name, "inputsDigest": digest, "residual": str(residual),
                       "pass": passed, "witness": witness})

    # unit law: level 0 is bare multiplication, higher levels kill constants
    unit_ok = levels[0] == Cochain.multiplication(star.ring)
    degenerate = [k for k in range(1, len(levels)) if not levels[k].is_normalized()]
    check("units", unit_ok and not degenerate,
          residual="levels " + ",".join(map(str, degenerate)) if degenerate else "0",
          witness=None if unit_ok and not degenerate else ["1", "1", "1"])

    def compare(name: str, a: Cochain, b: Cochain):
        """Pass when a == b; otherwise the first sorted term of a - b is the
        residual, and its slots name the witness."""
        if a == b:
            check(name, True)
        else:
            slots, coeff = (a - b).sorted_terms()[0]
            check(name, False, residual=coeff, witness=_witness_from_slots(slots))

    for k in range(1, len(levels)):
        compare(f"parity-{k}", levels[k], levels[k].reverse_args().scale((-1) ** k))
    for k in range(2, len(levels)):
        compare(f"residual-{k}", levels[k].hochschild_delta(), _rhs(levels, k))

    if star.ring == X_RING:
        bound = star.order if degree is None else degree
        failed = associator_scan(levels, bound)
        if failed:
            f, g, h, j, c = failed
            check("associator", False, residual=c, witness=[str(f), str(g), str(h)])
        else:
            check("associator", True)

        _commutator_checks(star, check)

    return {"pass": all(c["pass"] for c in checks), "inputsDigest": digest, "checks": checks}


def _monomial_triples(monos: list[XPoly], bound: int):
    """Index triples into monos whose total degree is at most the bound."""
    degrees = [m.total_degree() for m in monos]
    for f, df in enumerate(degrees):
        for g, dg in enumerate(degrees):
            dfg = df + dg
            if dfg > bound:
                continue
            for h, dh in enumerate(degrees):
                if dfg + dh <= bound:
                    yield f, g, h


def _commutator_checks(star: StarProduct, check) -> None:
    """First-order bracket agreement and evenness cancellation on samples."""
    phi = parse_poly(star.phi_source) if star.phi_source != "sym" else None
    psi = (parse_poly(star.psi_source)
           if star.psi_source not in (None, "sym") else None)
    # the probe order decides which failure is reported first
    probes = ((1, 2), (2, 3), (3, 1))
    pairs = [(XPoly.var(i), XPoly.var(j)) for i, j in probes]
    pairs += [(m, XPoly.var(1)) for m in monomials_up_to(2)[:6]]
    # one evaluator for every probe: the arguments are their own keys
    series = _Evaluator(star.levels, ((p, p) for pair in pairs for p in pair))

    def commutator(f: XPoly, g: XPoly, b: int) -> XPoly:
        return series.args[series.pair(f, g, b)] - series.args[series.pair(g, f, b)]

    for f, g in pairs:
        for b in range(0, len(star.levels), 2):
            bad = commutator(f, g, b)
            if not bad.is_zero:
                check("commutator-evenness", False, residual=bad,
                      witness=[str(f), str(g), "1"])
                return
    check("commutator-evenness", True)
    if phi is not None and len(star.levels) > 1:
        brackets = dict(zip(POISSON_PAIRS, poisson_vector(phi, psi)))
        for i, j in probes:
            diff = commutator(XPoly.var(i), XPoly.var(j), 1) - brackets[i, j]
            if not diff.is_zero:
                check("commutator-bracket", False, residual=diff,
                      witness=[f"x{i}", f"x{j}", "1"])
                return
        check("commutator-bracket", True)
