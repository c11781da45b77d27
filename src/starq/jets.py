"""Formal jet variables of the potentials and polynomials in them.

A jet variable stands for one partial derivative of a potential: ``phi_I``
for the scalar potential phi with a nonempty sorted multi-index I, and
``psi_J`` for the conformal factor psi where J may be empty (the
undifferentiated factor occurs in products).  Distinct jet variables are
algebraically independent; the only relation built into the representation
is the symmetry of mixed partials, enforced by keeping multi-indices sorted.

A JetPolynomial is a sparse rational polynomial in jet variables, a ring
class on the sparse core of ``starq.polynomials`` (integer numerators over
one denominator).  Its monomial keys are sorted tuples of jet variables, so
structural equality is dict and denominator equality.
The total x-derivative acts by prolongation, d/dx_a phi_I = phi_{I+a},
extended as a derivation to products.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .multiindex import MultiIndex, format_index, merge, parse_index, splits
from .polynomials import RatVec, SparsePoly, XPoly

PHI = "phi"
PSI = "psi"

# Substitution modes for Poisson components.
NABLA_PHI = "nabla-phi"
PSI_NABLA_PHI = "psi-nabla-phi"

JetVar = tuple[str, MultiIndex]
Monomial = tuple[JetVar, ...]


def jet_var(tag: str, index: MultiIndex) -> JetVar:
    """Validated jet variable; phi requires at least one derivative."""
    index = tuple(sorted(index))
    if tag == PHI:
        if len(index) < 1:
            raise ValueError("phi jets carry at least one derivative")
    elif tag == PSI:
        pass
    else:
        raise ValueError(f"unknown potential tag {tag!r}")
    if any(a not in (1, 2, 3) for a in index):
        raise ValueError(f"coordinate label out of range in {index!r}")
    return (tag, index)


def phi_jet(*index: int) -> JetVar:
    return jet_var(PHI, tuple(index))


def psi_jet(*index: int) -> JetVar:
    return jet_var(PSI, tuple(index))


def _var_key(v: JetVar):
    tag, index = v
    return (tag, len(index), index)


def monomial_key(factors: Iterable[JetVar]) -> Monomial:
    return tuple(sorted(factors, key=_var_key))


def format_var(v: JetVar) -> str:
    tag, index = v
    return f"{tag}_{format_index(index)}"


def parse_var(text: str) -> JetVar:
    if not isinstance(text, str):
        raise ValueError(f"malformed jet variable {text!r}")
    tag, sep, digits = text.partition("_")
    if not sep:
        raise ValueError(f"malformed jet variable {text!r}")
    return jet_var(tag, parse_index(digits))


class JetPolynomial(SparsePoly):
    """Sparse rational polynomial in jet variables; a monomial is a sorted
    tuple of jet variables."""

    __slots__ = ()

    _unit: Monomial = ()

    @staticmethod
    def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
        return tuple(sorted(m1 + m2, key=_var_key))

    @staticmethod
    def _term_key(mono: Monomial):
        return (len(mono), mono)  # factor count, then factor keys

    _text_key = _term_key

    @staticmethod
    def _factors(mono: Monomial) -> list[str]:
        return [format_var(v) for v in mono]

    @staticmethod
    def _parse_factors(names) -> Monomial:
        return monomial_key(parse_var(name) for name in names)

    @staticmethod
    def variable(v: JetVar) -> "JetPolynomial":
        return JetPolynomial.from_numerators({(v,): 1})

    def x_derivative(self, direction: int) -> "JetPolynomial":
        """Total derivative: prolongation on each factor, Leibniz over products."""
        out: dict[Monomial, int] = {}
        get = out.get
        for mono, c in self.terms.items():
            for pos, (tag, index) in enumerate(mono):
                lifted = (tag, merge(index, (direction,)))
                key = monomial_key(mono[:pos] + (lifted,) + mono[pos + 1:])
                s = get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return JetPolynomial.from_numerators(out, self.den)

    def eval_jets(self, phi: XPoly | None, psi: XPoly | None = None) -> XPoly:
        """Substitute explicit potentials for the jet variables.

        Each jet variable becomes the corresponding iterated partial
        derivative of the given polynomial; the substitution is a ring
        homomorphism.
        """
        total = RatVec()
        for mono, c in self.terms.items():
            value = XPoly.const(c)
            for tag, index in mono:
                if value.is_zero:
                    break
                if tag == PHI:
                    if phi is None:
                        raise ValueError("phi jets present but no phi given")
                    value = value * phi.derivative(index)
                else:
                    if psi is None:
                        raise ValueError("psi jets present but no psi given")
                    value = value * psi.derivative(index)
            total.add(value.terms, value.den)
        return XPoly.from_numerators(total.terms, total.den * self.den)

    def max_jet_order(self) -> int:
        """Largest derivative order among all jet factors; 0 if constant."""
        orders = [len(index) for mono in self.terms for _, index in mono]
        return max(orders, default=0)


_EPSILON = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (1, 3, 2): -1, (2, 1, 3): -1, (3, 2, 1): -1,
}


def epsilon(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol on {1,2,3}, normalized to eps(1,2,3)=1."""
    return _EPSILON.get((i, j, k), 0)


@cache
def substitute_factor(index: MultiIndex, i: int, j: int, mode: str) -> JetPolynomial:
    """Rewrite d_I P^{ij} into jet variables for the chosen structure family.

    Gradient family: P^{ij} = eps^{ijk} phi_k, so the derivative lands on a
    single phi jet.  Conformal family: P^{ij} = eps^{ijk} psi*phi_k, and the
    derivative distributes over the product.  Memoized: ring elements are immutable.
    """
    index = tuple(sorted(index))
    out = JetPolynomial.zero()
    for k in (1, 2, 3):
        sign = epsilon(i, j, k)
        if not sign:
            continue
        if mode == NABLA_PHI:
            out = out + JetPolynomial.from_monomial(
                (jet_var(PHI, merge(index, (k,))),), sign)
        elif mode == PSI_NABLA_PHI:
            for (left, right), count in splits(index, 2):
                mono = monomial_key((jet_var(PSI, left), jet_var(PHI, merge(right, (k,)))))
                out = out + JetPolynomial.from_monomial(mono, sign * count)
        else:
            raise ValueError(f"unknown substitution mode {mode!r}")
    return out

