"""Formal jet variables of the potentials and polynomials in them.

A jet variable stands for one partial derivative of a potential: ``phi_I``
for the scalar potential phi with a nonempty sorted multi-index I, and
``psi_J`` for the conformal factor psi where J may be empty (the
undifferentiated factor occurs in products).  Distinct jet variables are
algebraically independent; the only relation built into the representation
is the symmetry of mixed partials, enforced by keeping multi-indices sorted.

A JetPolynomial is a sparse rational polynomial in jet variables, a ring
class on the sparse core of ``starq.polynomials`` (integer numerators over
one denominator).  Each jet variable is its small int ``code``, and a
monomial an int id into the monomial table, the ring's one cache, which only
grows: ``factor_codes`` gives an id's sorted codes, ``intern`` the id of such
a tuple; id 0 is the constant.  Products of ids and x-derivatives of an id
are memoized.  Ids follow the order monomials were first met, so no output,
sort or pivot may depend on an id's value.
``var`` decodes a code back to the public ``(tag, index)`` pair, and
``decode`` an id to its factors, phi before psi, then by index length, then
by index.  That decoding is worked out once per id and read by all the
rest: the term key (the factor count, then the decoded factors as
``(tag, index)`` pairs compare), the factor names that JSON and printing
use and the grading, each also kept per id, and LaTeX.  At the JSON
boundary a name's code and a name list's id are each worked out once and
looked up after.
The total x-derivative acts by prolongation, d/dx_a phi_I = phi_{I+a},
extended as a derivation to products; ``lift`` prolongs a code, and
``relabelings`` gives a monomial's images under the permutations of the
coordinate indices 1..3 (``S3``), and ``exponent_relabelings`` an x-monomial's.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .multiindex import MultiIndex, format_index, merge, mi, multiplicities, parse_index, splits
from .polynomials import RatVec, SparsePoly, XPoly

PHI = "phi"
PSI = "psi"

# Substitution modes for Poisson components.
NABLA_PHI = "nabla-phi"
PSI_NABLA_PHI = "psi-nabla-phi"
MODES = (NABLA_PHI, PSI_NABLA_PHI)

# The largest order built or loaded: the cost of a build and of a verify's
# associator scan grows steeply with it.  A level-k term carries jets of order
# at most 2k - 1, and an R_k at most 2k - 2, so a stored jet name whose index
# is longer than 2 * MAX_ORDER is rejected before it is coded.
MAX_ORDER = 8

JetVar = tuple[str, MultiIndex]
Monomial = int  # an id into the monomial table


def jet_var(tag: str, index: MultiIndex) -> JetVar:
    """Validated jet variable; phi requires at least one derivative."""
    index = mi(*index)
    if tag not in (PHI, PSI):
        raise ValueError(f"unknown potential tag {tag!r}")
    if tag == PHI and not index:
        raise ValueError("phi jets carry at least one derivative")
    return (tag, index)


def phi_jet(*index: int) -> JetVar:
    return jet_var(PHI, tuple(index))


def psi_jet(*index: int) -> JetVar:
    return jet_var(PSI, tuple(index))


@cache
def code(v: JetVar) -> int:
    """The int a monomial stores for a jet variable: the index digits in
    base 4 behind a leading 1, doubled, plus 1 for psi.  Codes of one tag
    sort by index length, then by index, since a longer index has more
    digits."""
    tag, index = v
    n = 1
    for a in index:
        n = 4 * n + a
    return 2 * n + (tag == PSI)


@cache
def var(c: int) -> JetVar:
    """The jet variable of a code."""
    n, psi_bit = divmod(c, 2)
    index = []
    while n > 1:
        n, a = divmod(n, 4)
        index.append(a)
    return (PSI if psi_bit else PHI, tuple(reversed(index)))


@cache
def lift(c: int, direction: int) -> int:
    """The code of the prolongation d/dx_direction of a jet variable."""
    tag, index = var(c)
    return code((tag, merge(index, (direction,))))


_codes: list[tuple[int, ...]] = [()]  # the monomial table: id -> sorted codes
_ids: dict[tuple[int, ...], Monomial] = {(): 0}  # and back
_loaded: dict[tuple, Monomial] = {}  # a list of JSON names already read -> id
factor_codes = _codes.__getitem__  # the sorted codes of a monomial's factors


def intern(codes: tuple[int, ...]) -> Monomial:
    """The id of the monomial with these sorted codes, appended if new."""
    if codes not in _ids:
        _ids[codes] = len(_codes)
        _codes.append(codes)
    return _ids[codes]


def monomial_key(factors: Iterable[JetVar]) -> Monomial:
    return intern(tuple(sorted(map(code, factors))))


def is_psi(c: int) -> int:
    """1 for the code of a psi jet, 0 for a phi jet."""
    return c & 1


@cache
def decode(mono: Monomial) -> tuple[JetVar, ...]:
    """The factors of a monomial, phi before psi, worked out once per id; the
    codes of one tag already sort by index length, then by index."""
    return tuple(map(var, sorted(_codes[mono], key=is_psi)))


@cache
def grading(mono: Monomial) -> tuple[int, int, int]:
    """The phi count, the psi count and the jet-order total of a monomial."""
    factors = decode(mono)
    n_psi = sum(tag == PSI for tag, _ in factors)
    return len(factors) - n_psi, n_psi, sum(len(index) for _, index in factors)


def format_var(v: JetVar) -> str:
    tag, index = v
    return f"{tag}_{format_index(index)}"


def parse_var(text: str) -> JetVar:
    if not isinstance(text, str):
        raise ValueError(f"malformed jet variable {text!r}")
    tag, sep, digits = text.partition("_")
    if not sep:
        raise ValueError(f"malformed jet variable {text!r}")
    if len(digits) > 2 * MAX_ORDER:
        raise ValueError(f"jet index of {len(digits)} digits, above {2 * MAX_ORDER}")
    return jet_var(tag, parse_index(digits))


@cache
def name_code(text: str) -> int:
    """The code of a jet-variable name; an invalid name raises, and nothing
    is cached for it.  The caller rejects a non-string before the lookup."""
    return code(parse_var(text))


class JetPolynomial(SparsePoly):
    """Sparse rational polynomial in jet variables; a monomial is an id into
    the monomial table."""

    __slots__ = ()

    _unit: Monomial = 0

    @staticmethod
    @cache
    def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
        return intern(tuple(sorted(_codes[m1] + _codes[m2])))

    @staticmethod
    @cache
    def _term_key(mono: Monomial):  # factor count, then the decoded factors
        factors = decode(mono)
        return len(factors), factors

    _text_key = _term_key

    @staticmethod
    @cache
    def _factors(mono: Monomial) -> list[str]:
        return list(map(format_var, decode(mono)))

    @staticmethod
    def _parse_factors(names) -> Monomial:
        names = tuple(names)
        try:
            return _loaded[names]
        except (KeyError, TypeError):  # names not read before; parse_var rejects a non-string
            codes = [name_code(n) if isinstance(n, str) else parse_var(n) for n in names]
        return _loaded.setdefault(names, intern(tuple(sorted(codes))))

    @staticmethod
    def variable(v: JetVar) -> "JetPolynomial":
        return JetPolynomial.from_numerators({intern((code(v),)): 1})

    @staticmethod
    @cache
    def _leibniz(mono: Monomial, direction: int) -> dict[Monomial, int]:
        """d/dx_direction of a monomial, one term per factor, as {id: multiplicity}."""
        codes, out = _codes[mono], {}
        for pos, c in enumerate(codes):
            key = intern(tuple(sorted(codes[:pos] + (lift(c, direction),) + codes[pos + 1:])))
            out[key] = out.get(key, 0) + 1
        return out

    def x_derivative(self, direction: int) -> "JetPolynomial":
        """Total derivative: prolongation on each factor, Leibniz over products."""
        out, leibniz = RatVec(), self._leibniz
        for mono, c in self.terms.items():
            out.add_scaled(leibniz(mono, direction), c)
        return JetPolynomial.from_numerators(out.terms, self.den)

    def eval_jets(self, phi: XPoly | None, psi: XPoly | None) -> XPoly:
        """Substitute explicit potentials for the jet variables.

        Each jet variable becomes the corresponding iterated partial
        derivative of the given polynomial; the substitution is a ring
        homomorphism.
        """
        total = RatVec()
        for mono, c in self.terms.items():
            value = XPoly.const(c)
            for tag, index in map(var, _codes[mono]):
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


_EPSILON = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (1, 3, 2): -1, (2, 1, 3): -1, (3, 2, 1): -1,
}


def epsilon(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol on {1,2,3}, normalized to eps(1,2,3)=1."""
    return _EPSILON.get((i, j, k), 0)


# The relabelings sigma of the coordinate indices, as (sigma(1), sigma(2),
# sigma(3)) with their signs, the identity first: eps^{sigma(i) sigma(j) sigma(k)}
# is sign * eps^{ijk}.
S3 = tuple(_EPSILON.items())


@cache
def index_relabelings(index: MultiIndex) -> tuple[MultiIndex, ...]:
    """The multi-index with every a replaced by sigma(a), one per sigma of S3,
    in its order."""
    return tuple(tuple(sorted(sigma[a - 1] for a in index)) for sigma, _ in S3)


@cache
def relabelings(mono: Monomial) -> tuple[Monomial, ...]:
    """The ids of a monomial with the index of every jet relabeled by each
    sigma of S3, in its order."""
    images = [[code((tag, image)) for image in index_relabelings(index)]
              for tag, index in map(var, _codes[mono])]
    return tuple(intern(tuple(sorted(image[s] for image in images))) for s in range(len(S3)))


@cache
def exponent_relabelings(e: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """The exponents of x^e with every x_a replaced by x_sigma(a), one per sigma
    of S3, in its order."""
    return tuple(map(multiplicities, index_relabelings((1,) * e[0] + (2,) * e[1] + (3,) * e[2])))


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
                monomial_key((jet_var(PHI, merge(index, (k,))),)), sign)
        elif mode == PSI_NABLA_PHI:
            for (left, right), count in splits(index, 2):
                mono = monomial_key((jet_var(PSI, left), jet_var(PHI, merge(right, (k,)))))
                out = out + JetPolynomial.from_monomial(mono, sign * count)
        else:
            raise ValueError(f"unknown substitution mode {mode!r}")
    return out

