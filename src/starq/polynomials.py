"""Exact sparse polynomials over the rationals, and the ring in x1, x2, x3.

``SparsePoly`` is the one sparse core.  A polynomial holds integer
numerators per monomial over one positive integer denominator (the layout of
FLINT's ``fmpq_poly``), kept reduced: the denominator shares no factor with
all numerators together, and zero has denominator 1.  Equality of
polynomials is therefore equality of dicts and denominators, and no floating
point appears anywhere.  ``Fraction`` appears only where a coefficient
leaves the core: ``monomials``, ``coefficient`` and printing.  JSON writes
each coefficient's text from its integers and reads it back with ``int``.
``RatVec`` is the running sum the kernels accumulate into.

The ring classes say what a monomial is: ``XPoly`` here, with exponent
triples, and ``JetPolynomial`` in ``starq.jets``.  XPoly polynomials serve as
explicit potentials, as evaluation arguments for multidifferential
operators, and as the coefficient ring of explicitly instantiated cochains.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .multiindex import mi, multiplicities

Exponent = tuple[int, int, int]


class RatVec:
    """A rational vector under construction: nonzero integer numerators over
    one positive denominator, which rises to the lcm only when a
    contribution's denominator does not divide it.  Keys are anything
    hashable (monomials, slot tuples, row keys); the sum is not kept reduced.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict | None = None, den: int = 1):
        self.terms: dict = {} if terms is None else terms
        self.den = den

    def add(self, terms: Mapping, den: int, mul: int = 1) -> None:
        """Add ``mul * terms / den`` in place (nonzero integer numerators in
        ``terms``), dropping cancelled entries.  ``self.den`` first rises to a
        multiple of ``den / gcd(mul, den)`` if it is not one already."""
        if not mul:
            return
        own = self.den
        if own % den:
            g = gcd(mul, den)
            mul, den = mul // g, den // g
            rise = den // gcd(own, den)
            if rise != 1:
                out = self.terms
                for k in out:
                    out[k] *= rise
                self.den = own = own * rise
        self.add_scaled(terms, mul * (own // den))

    def add_scaled(self, terms: Mapping, mul: int) -> None:
        """Add ``mul * terms`` to the numerators over ``self.den``, in place;
        ``mul`` must be nonzero, and cancelled entries are dropped."""
        out = self.terms
        get = out.get
        for k, c in terms.items():
            s = get(k, 0) + c * mul
            if s:
                out[k] = s
            else:
                del out[k]

    def reduce(self) -> "RatVec":
        """Divide numerators and denominator by their gcd, in place."""
        terms = self.terms
        g = gcd(self.den, *terms.values())
        if g != 1:
            for k in terms:
                terms[k] //= g
            self.den //= g
        return self

    def fractions(self) -> dict:
        den = self.den
        return {k: Fraction(c, den) for k, c in self.terms.items()}


class SparsePoly:
    """Sparse polynomial with rational coefficients over the monomials of
    one ring, as integer numerators over one reduced denominator.

    Everything here is independent of what a monomial is; each ring subclass
    supplies ``_unit`` (the monomial of the constants), ``_mono_mul`` (the
    product of two monomials), ``_term_key`` (the canonical order, used by
    ``monomials`` and JSON), ``_text_key`` (the order ``str`` prints),
    ``_factors`` and ``_parse_factors`` (the JSON factor names of a monomial
    and back), ``_format`` when a monomial does not print as its factor names
    joined by "*", and ``x_derivative``.  Every element is made by
    ``from_numerators``, directly or through the constructors built on it.
    """

    __slots__ = ("terms", "den")

    @classmethod
    def from_numerators(cls, terms: dict, den: int = 1):
        """From nonzero integer numerators over ``den > 0``, reduced by one gcd."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        p = object.__new__(cls)
        p.terms = terms
        p.den = den
        return p

    @classmethod
    def zero(cls):
        return cls.from_numerators({})

    @classmethod
    def one(cls):
        return cls.from_numerators({cls._unit: 1})

    @classmethod
    def const(cls, value: Fraction | int):
        return cls.from_monomial(cls._unit, value)

    @classmethod
    def from_monomial(cls, key, coeff: Fraction | int = 1):
        n = coeff.numerator
        return cls.from_numerators({key: n} if n else {}, coeff.denominator if n else 1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _plus(self, other, sign: int):
        acc = RatVec(dict(self.terms), self.den)
        acc.add(other.terms, other.den, sign)
        return self.from_numerators(acc.terms, acc.den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.from_numerators({m: -c for m, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        return self.from_numerators(self.product_terms(other), self.den * other.den)

    def product_terms(self, other) -> dict:
        """self * other as nonzero numerators over self.den * other.den, unreduced."""
        mono_mul, rest, short = self._mono_mul, self.terms, other.terms
        if len(rest) < len(short):  # the ring is commutative
            rest, short = short, rest
        if len(short) == 1:  # multiplying by one monomial is injective: nothing cancels
            [(m2, c2)] = short.items()
            return {mono_mul(m1, m2): c1 * c2 for m1, c1 in rest.items()}
        out: dict = {}
        get = out.get
        for m1, c1 in rest.items():
            for m2, c2 in short.items():
                key = mono_mul(m1, m2)
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return out

    def scale(self, q: Fraction | int):
        n = q.numerator
        if not n:
            return self.zero()
        return self.from_numerators({m: c * n for m, c in self.terms.items()},
                                    self.den * q.denominator)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def coefficient(self, key) -> Fraction:
        return Fraction(self.terms.get(key, 0), self.den)

    def derivative(self, index: Iterable[int]):
        """Iterated x-derivative along a multi-index."""
        p = self
        for a in index:
            if not p.terms:
                break
            p = p.x_derivative(a)
        return p

    def _ordered(self, key) -> list:
        terms, den = self.terms, self.den
        return [(m, Fraction(terms[m], den)) for m in sorted(terms, key=key)]

    def monomials(self) -> list:
        """(monomial, Fraction) pairs in the ring's canonical order."""
        return self._ordered(self._term_key)

    def _format(self, mono) -> str:
        return "*".join(self._factors(mono))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self._ordered(self._text_key):
            body = self._format(mono)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        """Terms in the canonical order; each coefficient is written as
        str(Fraction) writes it, from its numerator and the denominator
        reduced by one gcd; each factor list is a copy, as a ring may cache it."""
        terms, den, factors = self.terms, self.den, self._factors
        out = []
        for m in sorted(terms, key=self._term_key):
            n = terms[m]
            g = gcd(n, den)
            out.append({"coeff": str(n // g) if g == den else f"{n // g}/{den // g}",
                        "factors": list(factors(m))})
        return out

    @classmethod
    def from_json(cls, data: list[dict]):
        total = RatVec()
        for item in data:
            key = cls._parse_factors(item["factors"])
            n, d = json_coefficient(item["coeff"])
            if n:
                total.add({key: n}, d)
        return cls.from_numerators(total.terms, total.den)


# The JSON factor names of the coordinates, with their exponent positions.
_COORDINATES = {"x1": 0, "x2": 1, "x3": 2}


class XPoly(SparsePoly):
    """Polynomial in x1, x2, x3; a monomial is its exponent triple."""

    __slots__ = ()

    _unit: Exponent = (0, 0, 0)

    @staticmethod
    def _mono_mul(e1: Exponent, e2: Exponent) -> Exponent:
        return (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])

    @staticmethod
    def _term_key(exp: Exponent):
        return (sum(exp), exp)  # graded, then lexicographic

    @staticmethod
    def _text_key(exp: Exponent):
        return (-sum(exp), exp)  # printed from the highest degree down

    @staticmethod
    def _format(exp: Exponent) -> str:
        return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp, 1) if e)

    @staticmethod
    def _factors(exp: Exponent) -> list[str]:
        return [f"x{i}" for i, e in enumerate(exp, 1) for _ in range(e)]

    @staticmethod
    def _parse_factors(names) -> Exponent:
        exp = [0, 0, 0]
        for name in names:
            if not isinstance(name, str):
                raise ValueError(
                    f"expected string or bytes-like object, got {type(name).__name__!r}")
            i = _COORDINATES.get(name)
            if i is None:
                raise ValueError(f"unknown coordinate factor {name!r}")
            exp[i] += 1
        return tuple(exp)

    @staticmethod
    def var(direction: int) -> "XPoly":
        return XPoly.from_numerators({multiplicities(mi(direction)): 1})

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def x_derivative(self, direction: int) -> "XPoly":
        """Partial derivative with respect to x_direction; distinct monomials
        have distinct derivatives, so nothing cancels."""
        i = direction - 1
        out: dict[Exponent, int] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                out[exp[:i] + (e - 1,) + exp[i + 1:]] = c * e
        return XPoly.from_numerators(out, self.den)


_COEFFICIENT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def json_coefficient(text) -> tuple[int, int]:
    """A stored rational coefficient, in the form str(Fraction) writes, such
    as "-3/4", as its numerator and positive denominator (not necessarily
    reduced).  A JSON number is rejected rather than converted, and any
    other string before int parses it, so an exponent such as "1e999999"
    costs nothing."""
    if not isinstance(text, str):
        raise ValueError(f"coefficients are stored as strings, got {text!r}")
    if not _COEFFICIENT_RE.fullmatch(text):
        raise ValueError(f"coefficient {text!r} is not an integer or a fraction such as '-3/4'")
    num, _, den = text.partition("/")
    n, d = int(num), int(den or 1)
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")  # as Fraction(text) words it
    return n, d


# Largest total degree (and exponent) a parsed expression may reach; a power
# or product beyond it is rejected before it is expanded.
MAX_PARSE_DEGREE = 64

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|(x[123])|(\*\*|[-+*^()]))")


class _Parser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: rational coefficients, the variables x1 x2 x3, the operators
    + - * ^ and parentheses.  '**' is accepted as a synonym for '^'.  '^'
    binds tighter than a prefix sign, so -x1^2 is -(x1^2).
    Exponents and the total degree of every power and product are bounded
    by MAX_PARSE_DEGREE, so the work a string can ask for is bounded too.
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> XPoly:
        value = self._sum()
        if self._peek() is not None:
            raise ValueError(f"unexpected token {self._peek()!r}")
        return value

    def _sum(self) -> XPoly:
        value = self._product()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _product(self) -> XPoly:
        value = self._signed()
        while True:
            tok = self._peek()
            if tok == "*":
                self._next()
            elif tok is None or not (tok.startswith("x") or tok[0].isdigit() or tok == "("):
                return value
            # "*", or implicit multiplication, e.g. "2x1" or "x1(x2+1)"
            factor = self._signed()
            _check_degree(value.total_degree() + factor.total_degree())
            value = value * factor

    def _signed(self) -> XPoly:
        """A prefix sign applies to the whole power: -x1^2 is -(x1^2)."""
        if self._peek() == "-":
            self._next()
            return -self._signed()
        if self._peek() == "+":
            self._next()
            return self._signed()
        return self._power()

    def _power(self) -> XPoly:
        base = self._atom()
        if self._peek() in ("^", "**"):
            self._next()
            exponent_tok = self._next()
            if not exponent_tok.isdigit():
                raise ValueError(f"exponent must be a nonnegative integer, got {exponent_tok!r}")
            n = int(exponent_tok)
            _check_degree(max(n, base.total_degree() * n))
            out = XPoly.one()
            for _ in range(n):
                out = out * base
            return out
        return base

    def _atom(self) -> XPoly:
        tok = self._next()
        if tok == "(":
            inner = self._sum()
            if self._next() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if tok.startswith("x"):
            return XPoly.var(int(tok[1]))
        if tok[0].isdigit():
            return XPoly.const(Fraction(tok))
        raise ValueError(f"unexpected token {tok!r}")


def _check_degree(degree: int) -> None:
    if degree > MAX_PARSE_DEGREE:
        raise ValueError(f"exponent or total degree above {MAX_PARSE_DEGREE}")


def parse_poly(text: str) -> XPoly:
    """Parse a polynomial expression in x1, x2, x3 with rational coefficients."""
    return _Parser(text).parse()
