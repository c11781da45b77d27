"""Independent checks for constructed star products.

Nothing here reuses the constructor's solver or gauge machinery: associators
come from direct evaluation of the levels on pairs of monomials, the Jacobi
residual from the curl formula, and level 1 is compared exactly, in either
ring, with half the Poisson bracket of the stored potentials, P = psi grad
phi.  The ring core and the running-sum kernel are shared with the
constructor; the independence is in the formulas, the symmetric-bracket
right-hand side (both orders of each unordered pair of levels) against the
constructor's one-sided sum, and the associator scan, the one evaluation
entry point.  Each residual delta(M_k) - R_k is one running difference, and
neither side is built; on levels with parity and covariance (``_is_covariant``)
it is summed first on one representative content per S3 orbit, and in full
only when that finds a defect, to name the witness.  The scan skips the
triples that cannot fail first: those with a constant argument when the
product is unital, and the later of each mirror pair when every level has
Weyl parity.  It reads both facts off the levels itself, and the report
checks them directly, as ``units`` and ``parity-k``.  A verification run
produces a machine-readable report whose failing entries each name a witness
triple of polynomials, so a corrupted product is not just flagged but
exhibited.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import perm

from .cochains import Cochain, X_RING, coboundary_defect, relabel
from .jets import S3, JetPolynomial, phi_jet, psi_jet
from .multiindex import all_indices, multiplicities
from .polynomials import RatVec, XPoly
from .star import StarProduct


# -- the Poisson structure ----------------------------------------------------------

# the index pairs (i, j) of the components (P^{23}, P^{31}, P^{12})
POISSON_PAIRS = ((2, 3), (3, 1), (1, 2))

_HALF = Fraction(1, 2)


def poisson_vector(phi: XPoly | str, psi: XPoly | str | None) -> tuple:
    """The components (P^{23}, P^{31}, P^{12}) of psi * grad phi, or of
    grad phi when psi is None.  A potential given as "sym" is symbolic: grad
    phi is then the jet variables (phi_1, phi_2, phi_3), and psi the jet
    variable psi."""
    if phi == "sym":
        grad = tuple(JetPolynomial.variable(phi_jet(a)) for a in (1, 2, 3))
    else:
        grad = tuple(phi.x_derivative(a) for a in (1, 2, 3))
    if psi == "sym":
        psi = JetPolynomial.variable(psi_jet())
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


def half_bracket(p: tuple, ring: str) -> Cochain:
    """(1/2) sum over the pairs (i, j) of P^{ij} (d_i x d_j - d_j x d_i), for
    a vector (P^{23}, P^{31}, P^{12}) of either ring: half the Poisson
    bracket, the level 1 that P prescribes."""
    out = Cochain(2, ring)
    for (i, j), c in zip(POISSON_PAIRS, p):
        out.add_term(((i,), (j,)), c.scale(_HALF))
        out.add_term(((j,), (i,)), c.scale(-_HALF))
    return out


# -- series evaluation ----------------------------------------------------------------

def _falling(e, m) -> int:
    """The coefficient prod e_i!/(e_i - m_i)! of d^m x^e, or 0 when some
    m_i > e_i: a slot derivative of a monomial, from exponent triples."""
    return perm(e[0], m[0]) * perm(e[1], m[1]) * perm(e[2], m[2])


class _Evaluator:
    """The levels of one product applied to pairs of monomials.

    On a monomial a slot derivative is one falling factorial, zero when the
    slot asks for more of a variable than the monomial has, so a term
    c d_s x d_t y of a level sends (x^e, x^f) to c k_s(e) k_t(f) x^(e-s+f-t):
    each monomial of c is shifted, and nothing is differentiated or
    multiplied as a polynomial.  Each level's terms are grouped into rows by
    the exponents of their left slot, so a left slot that does not fit x^e
    is rejected once per row.  ``pair`` memoizes M_b(x^e, x^f) over every
    level b for each pair of exponents it is asked for; every associator
    with that pair on either side shares it.  The memo grows with the pairs
    seen, so an evaluator lives for one top-level call.
    """

    def __init__(self, levels: list[Cochain]):
        self.rows: list[list] = []  # per level: [(left exponents, [(right exponents, c)])]
        for level in levels:
            if level.ring != X_RING or level.arity != 2:
                raise ValueError("series evaluation needs bilinear x-ring levels")
            rows: dict = {}
            for (s, t), c in level.terms.items():
                rows.setdefault(multiplicities(s), []).append((multiplicities(t), c))
            self.rows.append(list(rows.items()))
        self._pairs: dict = {}

    def level(self, b: int, e, f) -> XPoly:
        """M_b(x^e, x^f) for exponent triples e and f."""
        out = RatVec()
        for s, row in self.rows[b]:
            ks = _falling(e, s)
            if not ks:
                continue
            u0, u1, u2 = e[0] - s[0] + f[0], e[1] - s[1] + f[1], e[2] - s[2] + f[2]
            for t, c in row:
                kt = _falling(f, t)
                if kt:
                    v0, v1, v2 = u0 - t[0], u1 - t[1], u2 - t[2]
                    terms = {(m[0] + v0, m[1] + v1, m[2] + v2): n for m, n in c.terms.items()}
                    out.add(terms, c.den, ks * kt)
        return XPoly.from_numerators(out.terms, out.den)

    def pair(self, e, f) -> list[XPoly]:
        """M_b(x^e, x^f) for every level b, evaluated on first use."""
        if (e, f) not in self._pairs:
            self._pairs[e, f] = [self.level(b, e, f) for b in range(len(self.rows))]
        return self._pairs[e, f]

    def associator(self, f, g, h) -> list[XPoly]:
        """Coefficients of (x^f * x^g) * x^h - x^f * (x^g * x^h), one per
        level: order a + b collects M_a(M_b(x^f, x^g), x^h) over the
        monomials of the inner coefficient, minus the mirror term."""
        out = [RatVec() for _ in self.rows]
        for b, (left, right) in enumerate(zip(self.pair(f, g), self.pair(g, h))):
            tail = out[b:]
            for m, c in left.terms.items():
                _add_series(tail, self.pair(m, h), left.den, c)
            for m, c in right.terms.items():
                _add_series(tail, self.pair(f, m), right.den, -c)
        return [XPoly.from_numerators(acc.terms, acc.den) for acc in out]


def _add_series(out: list[RatVec], series: list[XPoly], den: int, mul: int) -> None:
    """out[i] += (mul / den) * series[i] for each i < len(out), in place."""
    for acc, p in zip(out, series):
        if p.terms:
            acc.add(p.terms, den * p.den, mul)


def associator_scan(levels: list[Cochain], bound: int):
    """The first nonzero associator coefficient over every monomial triple
    with total degree at most the bound, as (f, g, h, j, coefficient), or
    None when every coefficient through the top level vanishes.

    Triples come in the order of ``_monomial_triples`` and, within a triple,
    coefficients in increasing j.  Every order of a triple is evaluated at
    once from the pair memo of ``_Evaluator``; no triple past the first
    failing one is evaluated.  Two kinds of triple cannot be the first to
    fail, and are not evaluated:

    - when the product is unital (level 0 is the multiplication, and every
      higher level is normalized), a triple with a constant argument:
      A_j(1, g, h) = M_j(g, h) - M_j(g, h) = 0, and alike with 1 in the
      middle or last slot;
    - when every level has Weyl parity, M_k(g, f) = (-1)^k M_k(f, g), a
      triple (f, g, h) with f after h: A_j(h, g, f) = -(-1)^j A_j(f, g, h),
      so its mirror (h, g, f), which comes first, fails with it.

    Both facts are read off the levels on every call, so the result is that
    of the full scan on any levels, with or without them; ``verify_star``
    checks the same facts directly, as ``units`` and ``parity-k``.
    """
    series = _Evaluator(levels)
    unital = _is_unital(levels)
    weyl = _has_weyl_parity(levels)
    for f, g, h in _monomial_triples(bound):
        if (unital and _ONE in (f, g, h)) or (weyl and f > h):
            continue
        for j, c in enumerate(series.associator(f, g, h)):
            if not c.is_zero:
                return (*map(XPoly.from_monomial, (f, g, h)), j, c)
    return None


_ONE = (0, 0, 0)  # the exponents of the constant monomial


def _is_unital(levels: list[Cochain]) -> bool:
    """Level 0 is the multiplication and every higher level kills constants."""
    return (bool(levels) and levels[0] == Cochain.multiplication(X_RING)
            and all(level.is_normalized() for level in levels[1:]))


def _has_weyl_parity(levels: list[Cochain]) -> bool:
    """M_k(g, f) = (-1)^k M_k(f, g) at every level k."""
    return all(level.reverse_args().scale((-1) ** k) == level
               for k, level in enumerate(levels))


def _is_covariant(level: Cochain, k: int) -> bool:
    """sigma . M_k = sgn(sigma)^k M_k (``cochains.relabel``) for a 3-cycle and a
    transposition of the coordinates, which generate S3.  Relabeling is a
    bijection on the terms, so each term's image must be a term of the right
    side.  Then delta(M_k) - R_k is covariant too, and it vanishes when it
    does on the representative contents, which meet every orbit."""
    for s in (1, 3):
        for slots, c in level.terms.items():
            image, terms = relabel(level.ring, s, slots, c.terms, S3[s][1] ** k)
            other = level.terms.get(image)
            if other is None or (other.den, other.terms) != (c.den, terms):
                return False
    return True


# -- the report -------------------------------------------------------------------

def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _witness_from_slots(slots) -> list[str]:
    """Per slot, the smallest monomial whose slot derivative is a nonzero
    constant, padded with 1 to three arguments."""
    args = [str(XPoly.from_monomial(multiplicities(index))) for index in slots]
    return (args + ["1", "1", "1"])[:3]


def _bracket_form(levels: list[Cochain], k: int) -> list[tuple]:
    """R_k = (1/2) sum over l of [M_l, M_{k-l}], the symmetric bracket form,
    as (weight, outer, inner) insertion triples.  For bilinear levels
    [a, b] = a o b + b o a = [b, a], so the sum runs over the floor(k/2)
    unordered pairs: [M_l, M_{k-l}] with l < k - l inserts both orders, and
    (1/2)[M_{k/2}, M_{k/2}] is the one insertion M_{k/2} o M_{k/2}."""
    triples = []
    for l in range(1, k // 2 + 1):
        a, b = levels[l], levels[k - l]
        triples += [(1, a, b), (1, b, a)] if 2 * l < k else [(1, a, a)]
    return triples


def verify_star(star: StarProduct) -> dict:
    """Full independent re-check of a star product; returns a report whose
    failing checks each name a witness triple.

    Structural checks (units, parity, level residuals) and the exact level-1
    check (``commutator-bracket``, last) against half the Poisson bracket of
    ``star.phi`` and ``star.psi``, parsed once at load, run in either ring.
    The associator scan runs in the x ring over the monomial triples of
    total degree at most ``star.order`` that can hold its first failure
    (``associator_scan``).
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

    def compare(name: str, difference) -> bool:
        """Pass when there is no difference; else the coefficient of its first
        sorted term is the residual, and that term's slots name the witness."""
        if difference is None:
            check(name, True)
        else:
            slots, coeff = difference
            check(name, False, residual=coeff, witness=_witness_from_slots(slots))
        return difference is None

    parities = [compare(f"parity-{k}", levels[k].first_difference(
        levels[k].reverse_args().scale((-1) ** k))) for k in range(1, len(levels))]
    # levels 1..k covariant, each checked once, and only when every level has parity
    covariant = len(levels) > 2 and all(parities) and _is_covariant(levels[1], 1)
    for k in range(2, len(levels)):
        # delta(M_k) - R_k as one running sum, neither side built; the orbit path first
        covariant = covariant and _is_covariant(levels[k], k)
        m, bracket = levels[k], _bracket_form(levels, k)
        orbit = covariant and not coboundary_defect(m, insertions=bracket, representatives=True)
        compare(f"residual-{k}", None if orbit else coboundary_defect(m, insertions=bracket))

    if star.ring == X_RING:
        failed = associator_scan(levels, star.order)
        if failed:
            f, g, h, j, c = failed
            check("associator", False, residual=c, witness=[str(f), str(g), str(h)])
        else:
            check("associator", True)

    compare("commutator-bracket", levels[1].first_difference(
        half_bracket(poisson_vector(star.phi, star.psi), star.ring)))

    return {"pass": all(c["pass"] for c in checks), "inputsDigest": digest, "checks": checks}


def _monomial_triples(bound: int):
    """The exponents (f, g, h) of monic monomials whose degrees sum to at most
    the bound, each of f, g and h running over the exponents in sorted order."""
    exps = [(e, sum(e)) for e in sorted(
        multiplicities(index) for d in range(bound + 1) for index in all_indices(d))]
    for f, df in exps:
        for g, dg in exps:
            dfg = df + dg
            if dfg > bound:
                continue
            for h, dh in exps:
                if dfg + dh <= bound:
                    yield f, g, h

