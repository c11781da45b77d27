"""Exact polynomials in the coordinates x1, x2, x3 over the rationals.

The representation is a sparse mapping from exponent triples to nonzero
Fraction coefficients, so equality of polynomials is equality of dicts and
no floating point appears anywhere.  These polynomials serve as explicit
potentials, as evaluation arguments for multidifferential operators, and as
the coefficient ring of explicitly instantiated cochains.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator

Exponent = tuple[int, int, int]

_ZERO_EXP: Exponent = (0, 0, 0)
_ZERO = Fraction(0)


class XPoly:
    """Polynomial in x1, x2, x3 with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exponent, Fraction] | None = None):
        self.terms: dict[Exponent, Fraction] = terms or {}

    @staticmethod
    def zero() -> "XPoly":
        return XPoly()

    @staticmethod
    def one() -> "XPoly":
        return XPoly({_ZERO_EXP: Fraction(1)})

    @staticmethod
    def const(value: Fraction | int) -> "XPoly":
        q = Fraction(value)
        return XPoly({_ZERO_EXP: q}) if q else XPoly()

    @staticmethod
    def var(direction: int) -> "XPoly":
        if direction not in (1, 2, 3):
            raise ValueError(f"coordinate label out of range: {direction!r}")
        exp = [0, 0, 0]
        exp[direction - 1] = 1
        return XPoly({tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(exp: Exponent, coeff: Fraction | int = 1) -> "XPoly":
        q = Fraction(coeff)
        return XPoly({exp: q}) if q else XPoly()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __add__(self, other: "XPoly") -> "XPoly":
        out = dict(self.terms)
        add_into(out, other)
        return XPoly(out)

    def __sub__(self, other: "XPoly") -> "XPoly":
        out = dict(self.terms)
        add_into(out, other, -1)
        return XPoly(out)

    def __neg__(self) -> "XPoly":
        return XPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(exp, _ZERO) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return XPoly(out)

    __rmul__ = __mul__

    def scale(self, q: Fraction | int) -> "XPoly":
        q = Fraction(q)
        if not q:
            return XPoly()
        return XPoly({e: c * q for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, XPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def x_derivative(self, direction: int) -> "XPoly":
        """Partial derivative with respect to x_direction."""
        i = direction - 1
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            key = tuple(new)
            s = out.get(key, _ZERO) + c * exp[i]
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return XPoly(out)

    def derivative(self, index: Iterable[int]) -> "XPoly":
        """Iterated partial derivative along a multi-index."""
        p = self
        for a in index:
            if p.is_zero:
                break
            p = p.x_derivative(a)
        return p

    def monomials(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order (graded, then lexicographic)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    @staticmethod
    def from_monomial(key: Exponent, coeff: Fraction) -> "XPoly":
        return XPoly.monomial(key, coeff)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        out = []
        for exp, c in self.monomials():
            factors = []
            for i, e in enumerate(exp):
                factors.extend([f"x{i + 1}"] * e)
            out.append({"coeff": str(c), "factors": factors})
        return out

    @staticmethod
    def from_json(data: list[dict]) -> "XPoly":
        total: dict = {}
        for item in data:
            exp = [0, 0, 0]
            for name in item["factors"]:
                if not re.fullmatch(r"x[123]", name):
                    raise ValueError(f"unknown coordinate factor {name!r}")
                exp[int(name[1]) - 1] += 1
            add_into(total, XPoly.monomial(tuple(exp), json_coefficient(item["coeff"])))
        return XPoly(total)


def add_into(out: dict, poly, scale: Fraction | int = 1) -> None:
    """Add ``scale * poly`` to the term dict ``out`` in place, dropping
    cancelled terms, so ``XPoly(out)`` is the sum without copying ``out``.

    Only the term dict of ``poly`` is read, so the jet ring's polynomials
    accumulate the same way into ``JetPolynomial(out)``.
    """
    get = out.get
    if scale == 1 or scale == -1:
        subtract = scale == -1
        for mono, c in poly.terms.items():
            s = get(mono, _ZERO) - c if subtract else get(mono, _ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    else:
        for mono, c in poly.terms.items():
            s = get(mono, _ZERO) + c * scale
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)


def json_coefficient(text) -> Fraction:
    """A stored rational coefficient; only a string such as "-3/4" is exact,
    so a JSON number is rejected rather than converted."""
    if not isinstance(text, str):
        raise ValueError(f"coefficients are stored as strings, got {text!r}")
    return Fraction(text)


def monomials_up_to(total_degree: int) -> list[XPoly]:
    """All monic monomials of total degree <= total_degree, constants first."""
    out = []
    for d in range(total_degree + 1):
        for e1 in range(d + 1):
            for e2 in range(d - e1 + 1):
                out.append(XPoly.monomial((e1, e2, d - e1 - e2)))
    return sorted(out, key=lambda p: next(iter(p.terms)))


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
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        if text[pos:].strip():
            raise ValueError(f"trailing input {text[pos:]!r}")
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
