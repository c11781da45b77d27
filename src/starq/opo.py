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
arrangement is its smallest topological order; enumeration generates the
orderable diagrams in such a labeling instead of filtering all of them.
The Hochschild coboundary and the insertion product act on diagrams,
treating every upper endpoint as an individually reassignable wire;
multiplicities reappear when diagrams are concretized over the coordinate
index assignments that eps^{ijk} does not kill.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations, product
import re
from typing import Iterable, Iterator, Sequence

from .cochains import Cochain, JET_RING
from .jets import JetPolynomial, substitute_factor
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

    def scale(self, q: Fraction | int) -> "AbstractTerm":
        return AbstractTerm(self.coeff * q, self.pairs, self.n_args)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbstractTerm) and self.coeff == other.coeff
                and self.pairs == other.pairs and self.n_args == other.n_args)

    def __hash__(self):
        return hash((self.coeff, self.pairs, self.n_args))

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


def combine(terms: Iterable[AbstractTerm]) -> list[AbstractTerm]:
    """Merge canonical terms with equal diagrams, dropping cancellations."""
    acc: dict[tuple, AbstractTerm] = {}
    for t in terms:
        if t is None or not t.coeff:
            continue
        key = t.key()
        hit = acc.get(key)
        if hit is None:
            acc[key] = AbstractTerm(t.coeff, t.pairs, t.n_args)
        else:
            total = hit.coeff + t.coeff
            if total:
                acc[key] = AbstractTerm(total, t.pairs, t.n_args)
            else:
                del acc[key]
    return [acc[k] for k in sorted(acc)]


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


# -- diagram-level Hochschild coboundary and insertion ------------------------

def _retarget(pairs: Sequence[Pair], mapping) -> list[tuple[Target, Target]]:
    return [(mapping(a), mapping(b)) for a, b in pairs]


def _endpoint_choices(pairs: Sequence[Pair], hits) -> Iterator[list[tuple[Target, Target]]]:
    """All rewirings of the endpoints selected by hits(target) -> list of
    replacement targets; other endpoints stay put."""
    slots: list[list[Target]] = []
    for a, b in pairs:
        slots.append(hits(a))
        slots.append(hits(b))
    for choice in product(*slots):
        it = iter(choice)
        yield [(next(it), next(it)) for _ in pairs]


def abstract_delta(term: AbstractTerm) -> list[AbstractTerm]:
    """Hochschild coboundary of a diagram, one arity higher."""
    n = term.n_args
    results: list[AbstractTerm] = []

    def shift_from(i: int):
        def mapping(t: Target) -> Target:
            if t[0] == ARG and t[1] >= i:
                return (ARG, t[1] + 1)
            return t
        return mapping

    # outer boundaries: a fresh undifferentiated argument at either end
    results.append(canonical_term(
        term.coeff, _retarget(term.pairs, shift_from(0)), n + 1))
    results.append(canonical_term(
        term.coeff * (-1) ** (n - 1), list(term.pairs), n + 1))

    # middle terms: endpoints on argument i go independently left or right
    for i in range(n):
        sign = -Fraction((-1) ** i)

        def hits(t: Target, i=i) -> list[Target]:
            if t[0] == ARG:
                if t[1] == i:
                    return [(ARG, i), (ARG, i + 1)]
                if t[1] > i:
                    return [(ARG, t[1] + 1)]
            return [t]

        for rewired in _endpoint_choices(term.pairs, hits):
            results.append(canonical_term(term.coeff * sign, rewired, n + 1))
    return combine(results)


def abstract_insert(outer: AbstractTerm, inner: AbstractTerm) -> list[AbstractTerm]:
    """Insertion product on diagrams: inner replaces one argument of outer,
    and every outer endpoint on that argument reattaches to an inner factor
    or an inner argument."""
    m_args, n_args = outer.n_args, inner.n_args
    offset = outer.n_factors
    inner_degree = n_args - 1
    results: list[AbstractTerm] = []
    for i in range(m_args):
        sign = Fraction((-1) ** (i * inner_degree))

        def inner_map(t: Target, i=i) -> Target:
            if t[0] == FAC:
                return (FAC, t[1] + offset)
            return (ARG, t[1] + i)

        inner_pairs = _retarget(inner.pairs, inner_map)
        landing: list[Target] = [(FAC, offset + v) for v in range(inner.n_factors)]
        landing += [(ARG, i + a) for a in range(n_args)]

        def hits(t: Target, i=i, landing=landing) -> list[Target]:
            if t[0] == ARG:
                if t[1] == i:
                    return landing
                if t[1] > i:
                    return [(ARG, t[1] + n_args - 1)]
            return [t]

        for rewired in _endpoint_choices(outer.pairs, hits):
            results.append(canonical_term(
                outer.coeff * inner.coeff * sign, rewired + inner_pairs,
                m_args + n_args - 1))
    return combine(results)


def abstract_bracket(left: AbstractTerm, right: AbstractTerm) -> list[AbstractTerm]:
    m, n = left.n_args - 1, right.n_args - 1
    swap_sign = -Fraction((-1) ** (m * n))
    swapped = [t.scale(swap_sign) for t in abstract_insert(right, left)]
    return combine(list(abstract_insert(left, right)) + swapped)


# -- concretization ------------------------------------------------------------

def concretize(terms: AbstractTerm | Iterable[AbstractTerm], mode: str) -> Cochain:
    """Expand diagrams over coordinate indices 1..3 into a jet-ring cochain.

    Each factor's upper pair runs over the six (i, j) with i != j, where
    eps^{ijk} picks one k, so every walked assignment is nonzero and the
    others vanish.  The walk is depth first, along a witnessing order if
    there is one, and multiplies a factor in once its uppers and every wire
    onto it are fixed; assignments add into one running sum per slot tuple.
    """
    if isinstance(terms, AbstractTerm):
        terms = [terms]
    arity = None
    sums: dict[tuple, RatVec] = defaultdict(RatVec)
    for term in terms:
        if arity is None:
            arity = term.n_args
        elif term.n_args != arity:
            raise ValueError("mixed arities in concretization")
        num, den, n = term.coeff.numerator, term.coeff.denominator, term.n_factors
        order = is_opo(term)[1] or tuple(range(n))
        ready: list[list[int]] = [[] for _ in range(n)]  # factors complete after each step
        for w in range(n):
            ready[max(order.index(u) for u in range(n)
                      if u == w or (FAC, w) in term.pairs[u])].append(w)
        lowers, slots = [[] for _ in range(n)], [[] for _ in range(arity)]
        uppers: list[tuple[int, int]] = [(0, 0)] * n

        def walk(step: int, coeff: JetPolynomial) -> None:
            if step == n:
                sums[tuple(tuple(sorted(s)) for s in slots)].add(coeff.terms, coeff.den * den, num)
                return
            u = order[step]
            ends = [(lowers if kind == FAC else slots)[pos] for kind, pos in term.pairs[u]]
            for i, j in _UPPER_PAIRS:
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
    if arity is None:
        raise ValueError("no terms to concretize")
    return Cochain._from_sums(arity, JET_RING, sums)


# -- enumeration ----------------------------------------------------------------

def enumerate_terms(n_factors: int, require_opo: bool = False) -> list[AbstractTerm]:
    """All canonical unit-coefficient bidifferential diagrams with the given
    factor count, sorted by key.

    Diagrams are deduplicated under factor relabeling; each argument must
    receive at least one wire.  With require_opo only rightward-orderable
    diagrams are generated: each has a labeling in which factor u points
    only at the arguments and at factors v > u, so factor u picks its pair
    among those C(n + 1 - u, 2) targets and every candidate is acyclic.
    """
    def pairs(u: int) -> list[Pair]:
        later = range(u + 1, n_factors) if require_opo else range(n_factors)
        return list(combinations([(ARG, 0), (ARG, 1)] + [(FAC, v) for v in later], 2))

    seen: dict[tuple, AbstractTerm] = {}
    for assignment in product(*(pairs(u) for u in range(n_factors))):
        term = canonical_term(Fraction(1), assignment, 2)
        if term is not None and term.arg_degree(0) and term.arg_degree(1):
            seen.setdefault(term.key(), AbstractTerm(Fraction(1), term.pairs, term.n_args))
    return [seen[k] for k in sorted(seen)]


# -- text grammar -----------------------------------------------------------------

_FACTOR_RE = re.compile(r"^d?P\(([^)]*)\)$")
_ARG_RE = re.compile(r"^@(\d+)\(([^)]*)\)$")


def parse_term(text: str) -> AbstractTerm:
    """Parse the wiring grammar, e.g. "dP(r;i,s) dP(s;j,r) @1(i) @2(j)".

    Factors list lower (derivative) names before ';' and the two upper
    names after it; "P(i,j)" is an underived factor.  @k(...) lists the
    names landing on argument k.  Every upper name must appear exactly once
    as a lower name somewhere.
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
    if max_arg == 0:
        raise ValueError("term has no arguments")

    where: dict[str, Target] = {}
    for u, lowers in enumerate(factor_lowers):
        for name in lowers:
            if name in where:
                raise ValueError(f"lower name {name!r} used twice")
            where[name] = (FAC, u)
    for a, names in arg_lowers.items():
        for name in names:
            if name in where:
                raise ValueError(f"lower name {name!r} used twice")
            where[name] = (ARG, a)

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
    names = iter("ijklmnpqrstuvw")
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


# -- reference diagrams -------------------------------------------------------------

def poisson_term() -> AbstractTerm:
    """P^{ij} d_i f d_j g."""
    return parse_term("P(i,j) @1(i) @2(j)")


def non_orderable_example() -> AbstractTerm:
    """d_r P^{is} d_s P^{jr} d_i f d_j g: mutually leftward in every arrangement."""
    return parse_term("dP(r;i,s) dP(s;j,r) @1(i) @2(j)")


def double_bracket_terms() -> list[AbstractTerm]:
    """The three diagrams of the iterated bracket {{f,g},h}."""
    return [
        parse_term("dP(k;i,j) P(k,l) @1(i) @2(j) @3(l)"),
        parse_term("P(i,j) P(k,l) @1(i,k) @2(j) @3(l)"),
        parse_term("P(i,j) P(k,l) @1(i) @2(j,k) @3(l)"),
    ]


def jacobi_example_terms() -> list[AbstractTerm]:
    """Six diagrams of the contracted-Jacobi operator that sums to zero.

    The cyclic combination P^{kr} d_r P^{lm} + P^{lr} d_r P^{mk}
    + P^{mr} d_r P^{kl} is differentiated by d_i coming from d_k P^{ij},
    with d_j d_l f d_m g; the Leibniz expansion gives two diagrams per
    cyclic summand.
    """
    texts = [
        # cycl. 1: d_k P^{ij} * d_i(P^{kr} d_r P^{lm}) * d_j d_l f * d_m g
        "dP(k;i,j) dP(i;k,r) dP(r;l,m) @1(j,l) @2(m)",
        "dP(k;i,j) P(k,r) dP(r,i;l,m) @1(j,l) @2(m)",
        # cycl. 2: d_k P^{ij} * d_i(P^{lr} d_r P^{mk}) * d_j d_l f * d_m g
        "dP(k;i,j) dP(i;l,r) dP(r;m,k) @1(j,l) @2(m)",
        "dP(k;i,j) P(l,r) dP(r,i;m,k) @1(j,l) @2(m)",
        # cycl. 3: d_k P^{ij} * d_i(P^{mr} d_r P^{kl}) * d_j d_l f * d_m g
        "dP(k;i,j) dP(i;m,r) dP(r;k,l) @1(j,l) @2(m)",
        "dP(k;i,j) P(m,r) dP(r,i;k,l) @1(j,l) @2(m)",
    ]
    return [parse_term(t) for t in texts]


def jacobi_example_opo_term() -> AbstractTerm:
    """The single rightward-orderable diagram among the six."""
    return parse_term("dP(k;i,j) P(k,r) dP(r,i;l,m) @1(j,l) @2(m)")
