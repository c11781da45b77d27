"""Correctness checks that do not trust starq's own code.

Every check reads a stored star product as plain JSON and rebuilds what it
needs with sympy and closed formulas written here: the jet substitution, the
Poisson bracket, the Weyl product for a constant bivector and the Hochschild
coboundary in symbol form.  None of them imports starq.  Each check raises
``OracleError`` naming what is wrong, so a corrupted product cannot pass.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy

from corpus import weyl_level

X = sympy.symbols("x1 x2 x3")


class OracleError(Exception):
    """A stored product disagrees with an independent reference."""


# -- reading the stored format -------------------------------------------------


def level_terms(level: dict) -> dict:
    """{(slot_a, slot_b): {sorted factor tuple: Fraction}} of one stored level."""
    out = {}
    for term in level["terms"]:
        a, b = (tuple(sorted(s)) for s in term["slots"])
        coeff = {}
        for mono in term["coeff"]:
            key = tuple(sorted(mono["factors"]))
            coeff[key] = coeff.get(key, Fraction(0)) + Fraction(mono["coeff"])
        out[(a, b)] = {k: q for k, q in coeff.items() if q}
    return out


def _x_expr(coeff: dict):
    """A coordinate-ring coefficient as a sympy expression."""
    total = sympy.Integer(0)
    for factors, q in coeff.items():
        term = sympy.Rational(q.numerator, q.denominator)
        for name in factors:
            if name not in ("x1", "x2", "x3"):
                raise OracleError(f"unknown coordinate factor {name!r}")
            term *= X[int(name[1]) - 1]
        total += term
    return total


def _poly(expr):
    return sympy.Poly(expr, *X, domain="QQ")


def _diff(p, index):
    for a in index:
        p = p.diff(X[a - 1])
    return p


# -- structure ---------------------------------------------------------------------


def check_parity(star: dict) -> None:
    """Level k is (-1)^k-symmetric under swapping the two arguments."""
    for k, level in enumerate(star["levels"]):
        terms = level_terms(level)
        sign = (-1) ** k
        for (a, b), coeff in terms.items():
            mirror = terms.get((b, a), {})
            if mirror != {m: sign * q for m, q in coeff.items()}:
                raise OracleError(f"level {k}: slots {a},{b} break parity {sign:+d}")


def check_grading(star: dict) -> None:
    """Symbolic gradient levels: k phi jets and 3k derivatives per monomial."""
    for k, level in enumerate(star["levels"][1:], start=1):
        for (a, b), coeff in level_terms(level).items():
            for factors in coeff:
                if len(factors) != k or not all(f.startswith("phi_") for f in factors):
                    raise OracleError(f"level {k}: jet factors {factors} are not {k} phi jets")
                derivatives = sum(len(f) - 4 for f in factors) + len(a) + len(b)
                if derivatives != 3 * k:
                    raise OracleError(f"level {k}: {derivatives} derivatives, want {3 * k}")


def check_gauges(star: dict, gauge: str, levels) -> None:
    gauges = star.get("gauges") or {}
    for k in levels:
        if gauges.get(str(k)) != gauge:
            raise OracleError(f"level {k}: gauge {gauges.get(str(k))!r}, want {gauge!r}")


# -- the associator of a specialized symbolic product ----------------------------------


def random_cubic(rng: random.Random):
    """A potential with three random cubic and one random quadratic monomial."""
    def monomial(degree):
        out = sympy.Integer(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(degree):
            out *= rng.choice(X)
        return out
    return _poly(sum((monomial(3) for _ in range(3)), monomial(2)))


def specialize(star: dict, phi) -> list[list]:
    """Levels with every jet phi_I replaced by the partial derivative of phi.

    Returns, per level, a list of (slot_a, slot_b, coefficient polynomial).
    """
    jets: dict[str, object] = {}

    def jet(name):
        if name not in jets:
            tag, _, digits = name.partition("_")
            if tag != "phi" or not digits.isdigit():
                raise OracleError(f"unexpected jet factor {name!r}")
            jets[name] = _diff(phi, [int(d) for d in digits])
        return jets[name]

    out = []
    for level in star["levels"]:
        terms = []
        for (a, b), coeff in level_terms(level).items():
            value = _poly(0)
            for factors, q in coeff.items():
                term = _poly(sympy.Rational(q.numerator, q.denominator))
                for name in factors:
                    term *= jet(name)
                value += term
            if not value.is_zero:
                terms.append((a, b, value))
        out.append(terms)
    return out


def _apply(terms, f, g):
    """B(f, g) = sum of c * d_a f * d_b g over the terms of one level."""
    df, dg = {}, {}
    total = _poly(0)
    for a, b, c in terms:
        if a not in df:
            df[a] = _diff(f, a)
        if b not in dg:
            dg[b] = _diff(g, b)
        if not df[a].is_zero and not dg[b].is_zero:
            total += c * df[a] * dg[b]
    return total


def random_argument(rng: random.Random):
    """Two random monomials of degree 1 to 3 with small coefficients."""
    expr = sympy.Integer(0)
    for _ in range(2):
        term = sympy.Integer(rng.choice([1, 2, 3]))
        for _ in range(rng.randint(1, 3)):
            term *= rng.choice(X)
        expr += term
    return _poly(expr)


def check_associative(levels: list[list], triples) -> None:
    """(f*g)*h - f*(g*h) vanishes at every order through the top level."""
    top = len(levels) - 1
    for f, g, h in triples:
        fg = [_apply(levels[b], f, g) for b in range(top + 1)]
        gh = [_apply(levels[b], g, h) for b in range(top + 1)]
        for j in range(top + 1):
            total = _poly(0)
            for a in range(j + 1):
                total += _apply(levels[a], fg[j - a], h) - _apply(levels[a], f, gh[j - a])
            if not total.is_zero:
                raise OracleError(
                    f"associator at order {j} is nonzero on "
                    f"({f.as_expr()}, {g.as_expr()}, {h.as_expr()})")


def check_symbolic(star: dict, rng: random.Random) -> None:
    """Grading, parity and associativity at a random cubic potential."""
    if star["ring"] != "jet" or star["mode"] != "nabla-phi":
        raise OracleError("expected a symbolic gradient product")
    check_grading(star)
    check_parity(star)
    levels = specialize(star, random_cubic(rng))
    triples = [tuple(random_argument(rng) for _ in range(3)) for _ in range(3)]
    check_associative(levels, triples)


# -- explicit products -------------------------------------------------------------------


def _parse(text: str):
    return sympy.sympify(text, locals=dict(zip(("x1", "x2", "x3"), X)))


def poisson_tensor(phi: str, psi: str | None):
    """P^{ij} = eps^{ijk} psi d_k phi from the potentials' source text."""
    phi_e = _parse(phi)
    psi_e = sympy.Integer(1) if psi is None else _parse(psi)
    grad = [sympy.diff(phi_e, x) for x in X]
    out = {}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        out[(i, j)] = sympy.expand(psi_e * grad[k - 1])
        out[(j, i)] = -out[(i, j)]
    return out


def check_bracket(star: dict, phi: str, psi: str | None) -> None:
    """Level 1 antisymmetrizes to the Poisson bracket of ``phi`` (and ``psi``),
    the potentials the product was constructed from, and the stored potentials
    are those."""
    for name, given in (("phi", phi), ("psi", psi)):
        stored = star.get(name)
        if (stored is None) != (given is None) or (
                given is not None and sympy.expand(_parse(stored) - _parse(given)) != 0):
            raise OracleError(f"stored {name} {stored!r} is not the argument {given!r}")
    poisson = poisson_tensor(phi, psi)
    terms = level_terms(star["levels"][1])
    keys = set(terms) | {((i,), (j,)) for i, j in poisson}
    for a, b in keys:
        got = _x_expr(terms.get((a, b), {})) - _x_expr(terms.get((b, a), {}))
        want = poisson[(a[0], b[0])] if len(a) == len(b) == 1 and a != b else 0
        if sympy.expand(got - want) != 0:
            raise OracleError(f"level 1 on slots {a},{b} differs from the Poisson bracket")


def _constants(level: dict, k: int) -> dict:
    out = {}
    for slots, coeff in level_terms(level).items():
        if set(coeff) - {()}:
            raise OracleError(f"level {k}: non-constant coefficient on slots {slots}")
        out[slots] = coeff.get((), Fraction(0))
    return out


def check_weyl(star: dict) -> None:
    """Levels 0-3 equal the Weyl formula; level 4 differs by a symmetric cocycle."""
    levels = star["levels"]
    for k in range(min(len(levels), 4)):
        if _constants(levels[k], k) != weyl_level(k):
            raise OracleError(f"level {k} differs from the Weyl formula")
    if len(levels) > 4:
        diff = dict(_constants(levels[4], 4))
        for slots, q in weyl_level(4).items():
            diff[slots] = diff.get(slots, Fraction(0)) - q
        diff = {s: q for s, q in diff.items() if q}
        if any(diff.get((b, a)) != q for (a, b), q in diff.items()):
            raise OracleError("level 4 minus the Weyl level is not symmetric")
        if not is_cocycle(diff):
            raise OracleError("level 4 minus the Weyl level is not a Hochschild cocycle")


def is_cocycle(operator: dict) -> bool:
    """Constant-coefficient bidifferential D with D(eta, zeta) - D(xi + eta, zeta)
    + D(xi, eta + zeta) - D(xi, eta) = 0 in the symbols xi, eta, zeta."""
    xi, eta, zeta = (sympy.symbols(f"{v}1:4") for v in ("a", "b", "c"))

    def symbol(u, v):
        total = sympy.Integer(0)
        for (a, b), q in operator.items():
            term = sympy.Rational(q.numerator, q.denominator)
            for i in a:
                term *= u[i - 1]
            for j in b:
                term *= v[j - 1]
            total += term
        return total

    plus = lambda u, v: [p + q for p, q in zip(u, v)]  # noqa: E731
    delta = (symbol(eta, zeta) - symbol(plus(xi, eta), zeta)
             + symbol(xi, plus(eta, zeta)) - symbol(xi, eta))
    return sympy.expand(delta) == 0
