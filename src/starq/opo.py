"""Contraction-diagram representation of operators built from Poisson factors.

An abstract term stands for a product of derivatives of Poisson-structure
components contracted with derivatives of the arguments, for example
``dP(r;i,s) dP(s;j,r) @1(i) @2(j)`` for d_r P^{is} d_s P^{jr} d_i f d_j g.
Because derivative multi-indices and argument slots are symmetric, a term
is fully described by where each factor's two upper indices land: on an
argument or on another factor (as a derivative).  The upper pair is
antisymmetric, so each factor's two targets are stored sorted with the
swap sign absorbed into the coefficient; two uppers landing on the same
place contract a symmetric slot and the term is zero.

Orderability is a property of the representation: a term is rightward
orderable when the factors admit a total order in which every factor's
uppers land only on later factors or on arguments.  That holds exactly
when the factor-to-factor contraction graph is acyclic, and the witness
arrangement is its smallest topological order.  Enumeration yields only
orderable diagrams, generated in such a labeling instead of filtered out of
every wiring: they span the levels the construction re-selects.
Concretization expands one diagram over the coordinate index assignments
that eps^{ijk} does not kill, walking one assignment per orbit of the
relabelings of the indices 1..3 into one orbit sum and adding the rest by
relabeling it; a sum of diagrams is a linear combination of their
concretizations.  ``mirror_term`` reverses a diagram's argument wiring.
The diagram-level coboundary and insertion, the full enumeration and the
named example diagrams are test oracles, and live in ``tests/helpers.py``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations, product
import re
from typing import Sequence

from .cochains import Cochain, JET_RING, relabel
from .jets import S3, JetPolynomial, substitute_factor
from .polynomials import RatVec

# A target is ("arg", argument position) or ("fac", factor position).
Target = tuple[str, int]
Pair = tuple[Target, Target]

ARG = "arg"
FAC = "fac"

# The ordered upper index pairs (i, j) with i != j; eps^{ijk} vanishes on the rest.
_UPPER_PAIRS = tuple(permutations((1, 2, 3), 2))


class AbstractTerm:
    """One contraction diagram with a rational coefficient, in canonical form."""

    __slots__ = ("coeff", "pairs", "n_args")

    def __init__(self, coeff: Fraction, pairs: tuple[Pair, ...], n_args: int):
        self.coeff = coeff
        self.pairs = pairs
        self.n_args = n_args

    @property
    def n_factors(self) -> int:
        return len(self.pairs)

    def key(self) -> tuple:
        return (self.n_args, self.pairs)

    def arg_degree(self, a: int) -> int:
        return sum(1 for pair in self.pairs for t in pair if t == (ARG, a))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbstractTerm) and self.coeff == other.coeff
                and self.pairs == other.pairs and self.n_args == other.n_args)

    def __repr__(self) -> str:
        return f"{self.coeff} * {term_to_text(self)}"


def _sorted_pair(a: Target, b: Target) -> tuple[Pair, int] | None:
    """Store an upper pair sorted; swapping flips the sign, equal kills it."""
    if a == b:
        return None
    return ((a, b), 1) if a < b else ((b, a), -1)


def canonical_term(coeff: Fraction | int, raw_pairs: Sequence[tuple[Target, Target]],
                   n_args: int) -> AbstractTerm | None:
    """Canonical form over factor relabelings and upper-pair orderings.

    Returns None when the term is forced to vanish: a pair with equal
    targets, or a diagram mapped to itself by a relabeling with odd sign.
    """
    coeff = Fraction(coeff)
    if not coeff:
        return None
    n = len(raw_pairs)
    best: tuple[Pair, ...] | None = None
    best_sign = 1
    zero = False
    for perm in permutations(range(n)):
        sign = 1
        relabeled: list[Pair] = [None] * n  # type: ignore[list-item]
        ok = True
        for old, pair in enumerate(raw_pairs):
            mapped = []
            for kind, pos in pair:
                mapped.append((kind, perm[pos]) if kind == FAC else (kind, pos))
            packed = _sorted_pair(mapped[0], mapped[1])
            if packed is None:
                return None
            relabeled[perm[old]] = packed[0]
            sign *= packed[1]
        encoding = tuple(relabeled)
        if best is None or encoding < best:
            best, best_sign = encoding, sign
        elif encoding == best and sign != best_sign:
            zero = True
    if zero or best is None:
        return None
    return AbstractTerm(coeff * best_sign, best, n_args)


# -- orderability -------------------------------------------------------------

def is_opo(term: AbstractTerm) -> tuple[bool, tuple[int, ...] | None]:
    """Rightward orderability of the factors, with the smallest witnessing
    arrangement when one exists.

    Factor u must stand left of factor v whenever an upper of u lands on v,
    so an arrangement exists iff the contraction graph is acyclic; a factor
    differentiating itself can never be ordered.
    """
    n = term.n_factors
    out_edges: list[set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for u, pair in enumerate(term.pairs):
        for kind, v in pair:
            if kind != FAC:
                continue
            if v == u:
                return False, None
            if v not in out_edges[u]:
                out_edges[u].add(v)
                indegree[v] += 1
    order: list[int] = []
    ready = [u for u in range(n) if indegree[u] == 0]
    while ready:
        u = heappop(ready)  # the smallest ready factor; a sorted list is a heap
        order.append(u)
        for v in out_edges[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heappush(ready, v)
    if len(order) != n:
        return False, None
    return True, tuple(order)


# -- concretization ------------------------------------------------------------

def concretize(term: AbstractTerm, mode: str) -> Cochain:
    """Expand a diagram over coordinate indices 1..3 into a jet-ring cochain.

    Each factor's upper pair runs over the six (i, j) with i != j, where
    eps^{ijk} picks one k, so every walked assignment is nonzero and the
    others vanish.  Relabeling every index of an assignment by a permutation
    sigma of 1..3 multiplies each factor's eps by sgn(sigma) and relabels
    its jets (``cochains.relabel``) in both families, so the assignments fall
    into free orbits of six, each with one member in which the first walked
    factor has uppers (1, 2).  Only those are walked, depth first, along a
    witnessing order if there is one, multiplying a factor in once its
    uppers and every wire onto it are fixed; they add into one orbit sum
    per slot tuple, which is then added relabeled by each sigma, with sign
    sgn(sigma)^n for the factor count n.  A factorless diagram has no orbit.
    """
    num, den, n = term.coeff.numerator, term.coeff.denominator, term.n_factors
    order = is_opo(term)[1] or tuple(range(n))
    ready: list[list[int]] = [[] for _ in range(n)]  # factors complete after each step
    for w in range(n):
        ready[max(order.index(u) for u in range(n)
                  if u == w or (FAC, w) in term.pairs[u])].append(w)
    lowers, slots = [[] for _ in range(n)], [[] for _ in range(term.n_args)]
    uppers: list[tuple[int, int]] = [(0, 0)] * n
    orbit: dict[tuple, RatVec] = defaultdict(RatVec)

    def walk(step: int, coeff: JetPolynomial) -> None:
        if step == n:
            orbit[tuple(tuple(sorted(s)) for s in slots)].add(coeff.terms, coeff.den * den, num)
            return
        u = order[step]
        ends = [(lowers if kind == FAC else slots)[pos] for kind, pos in term.pairs[u]]
        for i, j in _UPPER_PAIRS if step else _UPPER_PAIRS[:1]:
            uppers[u] = (i, j)
            ends[0].append(i)
            ends[1].append(j)
            prefix = coeff
            for w in ready[step]:
                prefix = prefix * substitute_factor(tuple(sorted(lowers[w])), *uppers[w], mode)
            walk(step + 1, prefix)
            ends[0].pop()
            ends[1].pop()

    walk(0, JetPolynomial.one())
    if not n:
        return Cochain._from_sums(term.n_args, JET_RING, orbit)
    sums: dict[tuple, RatVec] = defaultdict(RatVec)
    for key, acc in orbit.items():
        for s, (_, sign) in enumerate(S3):
            image, terms = relabel(JET_RING, s, key, acc.terms, sign ** n)
            sums[image].add(terms, acc.den)
    return Cochain._from_sums(term.n_args, JET_RING, sums)


def mirror_term(term: AbstractTerm) -> AbstractTerm:
    """The diagram with its argument wiring reversed, in canonical form.

    Its coefficient is term.coeff times the sign eps the canonical form
    absorbs, so it concretizes to the term's concretization with the
    arguments reversed.  Reversal is an involution that commutes with
    factor relabelings, so the mirror of a nonzero canonical diagram is
    nonzero, and the mirror's own mirror is the term, with the same eps.
    """
    last = term.n_args - 1
    flip = [tuple((kind, last - pos) if kind == ARG else (kind, pos) for kind, pos in pair)
            for pair in term.pairs]
    return canonical_term(term.coeff, flip, term.n_args)


# -- enumeration ----------------------------------------------------------------

def enumerate_terms(n_factors: int) -> list[AbstractTerm]:
    """All canonical unit-coefficient rightward-orderable bidifferential
    diagrams with the given factor count, sorted by key.

    Diagrams are deduplicated under factor relabeling; each argument must
    receive at least one wire.  Each is generated in a labeling in which
    factor u points only at the arguments and at factors v > u, so factor u
    picks its pair among those C(n + 1 - u, 2) targets and every candidate
    is acyclic.
    """
    def pairs(u: int) -> list[Pair]:
        later = [(FAC, v) for v in range(u + 1, n_factors)]
        return list(combinations([(ARG, 0), (ARG, 1)] + later, 2))

    seen: dict[tuple, AbstractTerm] = {}
    for assignment in product(*(pairs(u) for u in range(n_factors))):
        term = canonical_term(Fraction(1), assignment, 2)
        if term is not None and term.arg_degree(0) and term.arg_degree(1):
            seen.setdefault(term.key(), AbstractTerm(Fraction(1), term.pairs, term.n_args))
    return [seen[k] for k in sorted(seen)]


# -- text grammar -----------------------------------------------------------------

# term_to_text names the two upper indices of each factor with these letters,
# so a parsed term has at most seven factors (and 7! relabelings to canonicalize)
_UPPER_NAMES = "ijklmnpqrstuvw"
MAX_TERM_FACTORS = len(_UPPER_NAMES) // 2

_FACTOR_RE = re.compile(r"^d?P\(([^)]*)\)$")
_ARG_RE = re.compile(r"^@(\d+)\(([^)]*)\)$")


def parse_term(text: str) -> AbstractTerm:
    """Parse the wiring grammar, e.g. "dP(r;i,s) dP(s;j,r) @1(i) @2(j)".

    Factors list lower (derivative) names before ';' and the two upper
    names after it; "P(i,j)" is an underived factor.  @k(...) lists the
    names landing on argument k; every argument from 1 to the largest must be
    written, an unwired one as "@k()".  Every upper name must appear exactly
    once as a lower name somewhere.  A term has at most MAX_TERM_FACTORS
    factors.
    """
    factor_lowers: list[list[str]] = []
    factor_uppers: list[tuple[str, str]] = []
    arg_lowers: dict[int, list[str]] = {}
    max_arg = 0
    for token in text.split():
        fm = _FACTOR_RE.match(token)
        if fm:
            body = fm.group(1)
            if ";" in body:
                lower_part, upper_part = body.split(";", 1)
            else:
                lower_part, upper_part = "", body
            lowers = [s.strip() for s in lower_part.split(",") if s.strip()]
            uppers = [s.strip() for s in upper_part.split(",") if s.strip()]
            if len(uppers) != 2:
                raise ValueError(f"factor needs exactly two upper names: {token!r}")
            factor_lowers.append(lowers)
            factor_uppers.append((uppers[0], uppers[1]))
            continue
        am = _ARG_RE.match(token)
        if am:
            pos = int(am.group(1))
            if pos < 1:
                raise ValueError(f"argument numbers start at 1: {token!r}")
            names = [s.strip() for s in am.group(2).split(",") if s.strip()]
            arg_lowers.setdefault(pos - 1, []).extend(names)
            max_arg = max(max_arg, pos)
            continue
        raise ValueError(f"cannot parse token {token!r}")
    if not factor_uppers:
        raise ValueError("term has no Poisson factors")
    if len(factor_uppers) > MAX_TERM_FACTORS:
        raise ValueError(f"term has more than {MAX_TERM_FACTORS} Poisson factors")
    if max_arg == 0:
        raise ValueError("term has no arguments")
    if len(arg_lowers) != max_arg:
        # the first gap is at most one past the arguments written
        gap = next(a for a in range(1, max_arg + 1) if a - 1 not in arg_lowers)
        raise ValueError(f"argument {gap} is not written; an unwired one is @{gap}()")

    # lower names land on factors, in order, then on arguments as written
    sites = [((FAC, u), lowers) for u, lowers in enumerate(factor_lowers)]
    sites += [((ARG, a), names) for a, names in arg_lowers.items()]
    where: dict[str, Target] = {}
    for target, names in sites:
        for name in names:
            if name in where:
                raise ValueError(f"lower name {name!r} used twice")
            where[name] = target

    used: set[str] = set()
    raw_pairs: list[tuple[Target, Target]] = []
    for i_name, j_name in factor_uppers:
        for name in (i_name, j_name):
            if name not in where:
                raise ValueError(f"upper name {name!r} has no landing site")
            if name in used:
                raise ValueError(f"upper name {name!r} used twice")
            used.add(name)
        raw_pairs.append((where[i_name], where[j_name]))
    unused = set(where) - used
    if unused:
        raise ValueError(f"lower names never contracted: {sorted(unused)}")

    term = canonical_term(Fraction(1), raw_pairs, max_arg)
    if term is None:
        raise ValueError("term vanishes identically by antisymmetry")
    return term


def term_to_text(term: AbstractTerm) -> str:
    """Render a diagram in the wiring grammar with generated index names."""
    names = iter(_UPPER_NAMES)
    upper_names: list[tuple[str, str]] = [(next(names), next(names))
                                          for _ in range(term.n_factors)]
    lowers: dict[Target, list[str]] = {}
    for u, pair in enumerate(term.pairs):
        for name, target in zip(upper_names[u], pair):
            lowers.setdefault(target, []).append(name)
    chunks = []
    for u in range(term.n_factors):
        mine = ",".join(lowers.get((FAC, u), []))
        i, j = upper_names[u]
        chunks.append(f"dP({mine};{i},{j})" if mine else f"P({i},{j})")
    for a in range(term.n_args):
        mine = ",".join(lowers.get((ARG, a), []))
        chunks.append(f"@{a + 1}({mine})")
    return " ".join(chunks)
