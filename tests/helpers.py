"""Shared generators for randomized tests."""

from fractions import Fraction
from itertools import product
from random import Random

from starq.cochains import Cochain, JET_RING, X_RING
from starq.jets import JetPolynomial, phi_jet, psi_jet
from starq.polynomials import XPoly, monomials_up_to

_DIRS = (1, 2, 3)


def random_index(rng: Random, max_len: int, min_len: int = 0):
    return tuple(sorted(rng.choice(_DIRS) for _ in range(rng.randint(min_len, max_len))))


def random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_jet_coeff(rng: Random, max_factors: int = 2) -> JetPolynomial:
    total = JetPolynomial.zero()
    for _ in range(rng.randint(1, 2)):
        factors = []
        for _ in range(rng.randint(0, max_factors)):
            if rng.random() < 0.5:
                factors.append(phi_jet(*random_index(rng, 2, min_len=1)))
            else:
                factors.append(psi_jet(*random_index(rng, 2)))
        mono = JetPolynomial.one()
        for f in factors:
            mono = mono * JetPolynomial.variable(f)
        total = total + mono.scale(random_fraction(rng))
    return total


def random_x_coeff(rng: Random, max_degree: int = 2) -> XPoly:
    total = XPoly.zero()
    for _ in range(rng.randint(1, 2)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(3))
        if sum(exp) > max_degree:
            exp = (rng.randint(0, 1), 0, rng.randint(0, 1))
        total = total + XPoly.monomial(exp, random_fraction(rng))
    return total


def random_cochain(rng: Random, arity: int, ring: str = JET_RING,
                   max_slot_degree: int = 4, terms: int = 3) -> Cochain:
    out = Cochain(arity, ring)
    for _ in range(terms):
        slots = tuple(random_index(rng, max_slot_degree) for _ in range(arity))
        if ring == JET_RING:
            out.add_term(slots, random_jet_coeff(rng))
        else:
            out.add_term(slots, random_x_coeff(rng))
    return out


# -- reference associator scan ------------------------------------------------------

def reference_associator(levels, f: XPoly, g: XPoly, h: XPoly) -> list[XPoly]:
    """Coefficients of (f*g)*h - f*(g*h), every inner product re-evaluated
    through Cochain.eval_args for every term: the unmemoized formula."""
    out = []
    for j in range(len(levels)):
        total = XPoly.zero()
        for a in range(j + 1):
            b = j - a
            left = levels[a].eval_args((levels[b].eval_args((f, g)), h))
            right = levels[a].eval_args((f, levels[b].eval_args((g, h))))
            total = total + left - right
        out.append(total)
    return out


def reference_scan(levels, bound: int):
    """First (f, g, h, j, coefficient) with a nonzero associator coefficient
    over monomial triples of total degree at most bound, or None."""
    monos = monomials_up_to(bound)
    for f, g, h in product(monos, repeat=3):
        if f.total_degree() + g.total_degree() + h.total_degree() > bound:
            continue
        for j, c in enumerate(reference_associator(levels, f, g, h)):
            if not c.is_zero:
                return f, g, h, j, c
    return None
