"""Presentation-only LaTeX rendering of polynomials, operators, and star
products.  No parser exists for this output; the JSON serialization is the
round-trip format."""

from __future__ import annotations

from fractions import Fraction

from .cochains import JET_RING, X_RING, Cochain
from .jets import decode
from .star import StarProduct


def _frac_latex(q: Fraction, lead: bool) -> tuple[str, str]:
    sign = "-" if q < 0 else ("" if lead else "+")
    q = abs(q)
    if q.denominator == 1:
        body = "" if q == 1 else str(q.numerator)
    else:
        body = rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"
    return sign, body


def _join(sign: str, body: str, symbols: str) -> str:
    if not symbols:
        body = body or "1"
    if body and symbols:
        return f"{sign}{body}\\,{symbols}"
    return f"{sign}{body}{symbols}"


def _x_symbols(exp: tuple[int, int, int]) -> str:
    return "".join(f"x_{i}" if e == 1 else f"x_{i}^{{{e}}}" for i, e in enumerate(exp, 1) if e)


def _jet_symbols(mono) -> str:
    factors = decode(mono)
    symbols = ""
    for tag, index in dict.fromkeys(factors):
        rendered = rf"\{tag}_{{{''.join(map(str, index))}}}" if index else rf"\{tag}"
        power = factors.count((tag, index))
        symbols += rendered if power == 1 else f"{rendered}^{{{power}}}"
    return symbols


# ring -> the LaTeX symbols of one monomial
_SYMBOLS = {X_RING: _x_symbols, JET_RING: _jet_symbols}


def ring_latex(p, symbols) -> str:
    """A ring element in LaTeX, its monomials in the ring's canonical order;
    ``symbols`` renders one monomial."""
    if p.is_zero:
        return "0"
    parts = []
    for mono, coeff in p.monomials():
        sign, body = _frac_latex(coeff, lead=not parts)
        parts.append(_join(sign, body, symbols(mono)))
    return " ".join(parts)


def _slot_latex(s: tuple[int, ...]) -> str:
    if not s:
        return r"\mathrm{id}"
    digits = "".join(map(str, s))
    return rf"\partial_{{{digits}}}"


def cochain_latex(c: Cochain) -> str:
    if c.is_zero:
        return "0"
    symbols = _SYMBOLS[c.ring]
    parts = []
    for slots, coeff in c.sorted_terms():
        ops = r" \otimes ".join(_slot_latex(s) for s in slots)
        body = ring_latex(coeff, symbols)
        if " " in body:  # more than one monomial needs grouping
            body = rf"\bigl({body}\bigr)"
        if body == "1":
            body = ""
        lead = "" if not parts else "+ "
        if body.startswith("-"):
            lead = "- " if parts else "-"
            body = body[1:]
        piece = f"{body}\\,{ops}" if body else ops
        parts.append(lead + piece)
    return " ".join(parts)


def star_latex(star: StarProduct) -> str:
    lines = [
        r"% star product levels; the deformation parameter multiplies level k",
        r"\begin{align*}",
    ]
    for k, level in enumerate(star.levels):
        body = cochain_latex(level)
        lines.append(rf"B_{{{k}}}(f,g) &= {body} \\")
    lines[-1] = lines[-1].rstrip(" \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"
