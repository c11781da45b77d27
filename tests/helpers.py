"""Shared generators for randomized tests, and the reference kernels and
oracles the tests compare the package against."""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial, lcm
from random import Random
from typing import Iterable, Iterator, Sequence

from starq import cochains
from starq.cochains import (Cochain, JET_RING, X_RING, linear_combination, relabel, ring_class,
                            slot_total)
from starq.jets import (NABLA_PHI, S3, JetPolynomial, code, decode, format_var, lift,
                        monomial_key, phi_jet, psi_jet, substitute_factor, var)
from starq.multiindex import all_indices, merge, multiplicities, splits
from starq.opo import (ARG, FAC, AbstractTerm, Pair, Target, canonical_term, concretize,
                       enumerate_terms, is_opo, parse_term)
from starq.polynomials import RatVec, XPoly
from starq.star import StarProduct, base_levels, level_step
from starq.verify import POISSON_PAIRS

_DIRS = (1, 2, 3)


def random_index(rng: Random, max_len: int, min_len: int = 0):
    return tuple(sorted(rng.choice(_DIRS) for _ in range(rng.randint(min_len, max_len))))


def random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def monomials_up_to(total_degree: int) -> list[XPoly]:
    """All monic monomials of total degree <= total_degree, constants first."""
    return [XPoly.from_monomial(exp) for exp in sorted(
        multiplicities(index) for d in range(total_degree + 1) for index in all_indices(d))]


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
        total = total + XPoly.from_monomial(exp, random_fraction(rng))
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


# -- the insertion product and the Gerstenhaber bracket -----------------------------
# Both go through the package's insertion kernel, looked up on the module at
# each call so that a test can count its calls.

def insert(a: Cochain, b: Cochain, degrees: tuple[int, ...] | None = None) -> Cochain:
    """The Gerstenhaber insertion a o b; with slot lengths ``degrees``, its
    part with those slot lengths."""
    return cochains.insertion_sum(a.arity + b.arity - 1, a.ring, [(1, a, b)],
                                  None if degrees is None else {degrees})


def bracket(a: Cochain, b: Cochain, degrees: tuple[int, ...] | None = None) -> Cochain:
    """Gerstenhaber bracket on shifted degrees (arity minus one), [a, a] by
    one insertion; with ``degrees``, only its part with those slot lengths."""
    sign = (-1) ** ((a.arity - 1) * (b.arity - 1))
    pairs = [(1 - sign, a, a)] if b is a else [(1, a, b), (-sign, b, a)]
    return cochains.insertion_sum(a.arity + b.arity - 1, a.ring, pairs,
                                  None if degrees is None else {degrees})


# -- reference cochain kernels --------------------------------------------------------
# Each contribution is a scaled copy added term by term through add_term: the
# formulas the accumulating kernels in starq.cochains replace.

def reference_delta_terms(slots):
    """The full Leibniz expansion of the coboundary of one slot tuple, with
    every boundary term and every split of a slot, empty pieces included."""
    n = len(slots)
    yield ((),) + slots, 1
    for i in range(n):
        for (left, right), count in splits(slots[i], 2):
            yield slots[:i] + (left, right) + slots[i + 1:], -(-1) ** i * count
    yield slots + ((),), (-1) ** (n - 1)


def reference_hochschild_delta(c: Cochain) -> Cochain:
    out = Cochain(c.arity + 1, c.ring)
    for slots, coeff in c.terms.items():
        for new_slots, q in reference_delta_terms(slots):
            out.add_term(new_slots, coeff.scale(q))
    return out


def reference_combination(arity: int, ring: str, pairs) -> Cochain:
    """Sum of q * cochain over (q, cochain) pairs, added one scaled term at a
    time with add_term: the formula linear_combination accumulates in place."""
    total = Cochain(arity, ring)
    for q, cochain in pairs:
        for slots, c in cochain.terms.items():
            total.add_term(slots, c.scale(q))
    return total


def reference_insert(a: Cochain, b: Cochain) -> Cochain:
    p, q = a.arity, b.arity
    out = Cochain(p + q - 1, a.ring)
    for i in range(p):
        sign = Fraction((-1) ** (i * (q - 1)))
        for slots_m, c_m in a.terms.items():
            for pieces, count in splits(slots_m[i], q + 1):
                on_coeff, on_slots = pieces[0], pieces[1:]
                for slots_n, c_n in b.terms.items():
                    inner = c_n.derivative(on_coeff)
                    if inner.is_zero:
                        continue
                    new_slots = (slots_m[:i]
                                 + tuple(merge(t, d) for t, d in zip(slots_n, on_slots))
                                 + slots_m[i + 1:])
                    out.add_term(new_slots, (c_m * inner).scale(sign * count))
    return out


def reference_rhs(levels, k: int) -> Cochain:
    """(1/2) sum over l of [M_l, M_{k-l}], every bracket built and the sum
    folded copy by copy and halved at the end: the copy-based form of the
    right-hand side the verifier checks as one running difference."""
    brackets = [(1, bracket(levels[l], levels[k - l])) for l in range(1, k)]
    return reference_combination(3, levels[1].ring, brackets).scale(Fraction(1, 2))


# -- relabeling the coordinates --------------------------------------------------------

def relabeled(c: Cochain, s: int) -> Cochain:
    """c with every term relabeled by the s-th sigma of S3, by ``relabel``."""
    make = ring_class(c.ring).from_numerators
    images = (relabel(c.ring, s, slots, coeff.terms, 1) + (coeff.den,)
              for slots, coeff in c.terms.items())
    return Cochain(c.arity, c.ring, {slots: make(terms, den) for slots, terms, den in images})


def symmetrized(c: Cochain, k: int) -> Cochain:
    """The sum over sigma of S3 of sgn(sigma)^k sigma . c, which is covariant:
    tau . X = sgn(tau)^k X for every tau."""
    return linear_combination(c.arity, c.ring, ((sign ** k, relabeled(c, s))
                                                for s, (_, sign) in enumerate(S3)))


def reference_relabeled(c: Cochain, sigma: tuple[int, int, int]) -> Cochain:
    """c with every index a of its slots, its jets and its x-exponents
    replaced by sigma(a) (sigma given as (sigma(1), sigma(2), sigma(3))),
    term by term through the public constructors."""
    def index(i):
        return tuple(sorted(sigma[a - 1] for a in i))

    out = Cochain(c.arity, c.ring)
    for slots, coeff in c.terms.items():
        image = ring_class(c.ring).zero()
        for mono, q in coeff.monomials():
            if c.ring == JET_RING:
                key = monomial_key((tag, index(i)) for tag, i in decode(mono))
            else:
                key = tuple(mono[sigma.index(a)] for a in (1, 2, 3))
            image = image + type(coeff).from_monomial(key, q)
        out.add_term(tuple(map(index, slots)), image)
    return out


def reference_is_covariant(c: Cochain, k: int) -> bool:
    """sigma . c = sgn(sigma)^k c for all six sigma."""
    return all(reference_relabeled(c, sigma) == c.scale(sign ** k) for sigma, sign in S3)


def reference_antisymmetrize(c: Cochain) -> Cochain:
    out = Cochain(3, c.ring)
    for slots, coeff in c.terms.items():
        for perm in permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            out.add_term(tuple(slots[p] for p in perm), coeff.scale(Fraction(sign, 6)))
    return out


# -- reference associator scan ------------------------------------------------------

def eval_args(cochain: Cochain, args) -> XPoly:
    """Apply an x-ring operator to explicit polynomial arguments."""
    if cochain.ring != X_RING:
        raise ValueError("eval_args applies to x-ring cochains")
    if len(args) != cochain.arity:
        raise ValueError("argument count does not match arity")
    total = XPoly.zero()
    for slots, c in cochain.terms.items():
        value = c
        for s, f in zip(slots, args):
            if value.is_zero:
                break
            value = value * f.derivative(s)
        total = total + value
    return total


def reference_associator(levels, f: XPoly, g: XPoly, h: XPoly) -> list[XPoly]:
    """Coefficients of (f*g)*h - f*(g*h), every inner product re-evaluated
    through eval_args for every term: the unmemoized formula."""
    out = []
    for j in range(len(levels)):
        total = XPoly.zero()
        for a in range(j + 1):
            b = j - a
            left = eval_args(levels[a], (eval_args(levels[b], (f, g)), h))
            right = eval_args(levels[a], (f, eval_args(levels[b], (g, h))))
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


def commutator(levels, f: XPoly, g: XPoly) -> list[XPoly]:
    """Coefficients of f * g - g * f; odd levels double, even levels cancel
    when the parity invariant holds."""
    return [eval_args(level, (f, g)) - eval_args(level, (g, f)) for level in levels]


# -- the Moyal reference -------------------------------------------------------------

def moyal_level(p: tuple, k: int) -> Cochain:
    """Level k of the Weyl product for a constant vector (P^{23}, P^{31},
    P^{12}), from the closed exponential formula: all index chains of
    length k, weight 1/(2^k k!)."""
    comps = {}
    for (i, j), c in zip(POISSON_PAIRS, p):
        if c.total_degree() > 0:
            raise ValueError("the closed formula needs a constant vector")
        q = c.coefficient((0, 0, 0))
        if q:
            comps[(i, j)] = q
            comps[(j, i)] = -q
    out = Cochain(2, X_RING)
    if k == 0:
        return Cochain.multiplication(X_RING)
    weight = Fraction(1, 2 ** k * factorial(k))
    for chain in product(sorted(comps), repeat=k):
        coeff = weight
        for pair in chain:
            coeff *= comps[pair]
        left = tuple(sorted(i for i, _ in chain))
        right = tuple(sorted(j for _, j in chain))
        out.add_term((left, right), XPoly.const(coeff))
    return out


# -- reference ring arithmetic on Fraction coefficient dicts ---------------------------
# The formulas of the sparse core before it held integer numerators: every
# coefficient a Fraction, every result term by term.

def ratvec(values: dict) -> RatVec:
    """The vector of a mapping to ints and Fractions, over the lcm of their
    denominators."""
    den = lcm(*(q.denominator for q in values.values()))
    return RatVec({k: q.numerator * (den // q.denominator) for k, q in values.items() if q}, den)


def poly(ring, coeffs: dict):
    """The element of a ring class with the given rational coefficients."""
    vec = ratvec(coeffs)
    return ring.from_numerators(vec.terms, vec.den)


def _put(out: dict, key, value: Fraction) -> None:
    total = out.get(key, Fraction(0)) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def fraction_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        _put(out, key, sign * c)
    return out


def fraction_mul(a: dict, b: dict, mono_mul) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _put(out, mono_mul(m1, m2), c1 * c2)
    return out


def fraction_scale(a: dict, q: Fraction) -> dict:
    return {m: c * q for m, c in a.items()} if q else {}


def fraction_x_derivative(a: dict, direction: int, ring) -> dict:
    out: dict = {}
    for mono, c in a.items():
        if ring is XPoly:
            if mono[direction - 1]:
                key = tuple(e - (i == direction - 1) for i, e in enumerate(mono))
                _put(out, key, c * mono[direction - 1])
        else:
            factors = list(decode(mono))
            for pos, (tag, index) in enumerate(factors):
                lifted = (tag, merge(index, (direction,)))
                _put(out, monomial_key(factors[:pos] + [lifted] + factors[pos + 1:]), c)
    return out


def max_jet_order(p: JetPolynomial) -> int:
    """Largest derivative order among the jet factors of p; 0 if constant."""
    return max((len(index) for mono in p.terms for _, index in decode(mono)), default=0)


# -- reference jet monomials ----------------------------------------------------------
# A monomial as the sorted tuple of its factors' codes, merged, sorted and
# decoded again on every use: the representation the monomial table interns.

def random_codes(rng: Random, max_factors: int = 4, max_len: int = 3) -> tuple[int, ...]:
    """The sorted codes of a random monomial with phi and psi factors."""
    factors = [phi_jet(*random_index(rng, max_len, min_len=1)) if rng.random() < 0.5
               else psi_jet(*random_index(rng, max_len)) for _ in range(rng.randint(0, max_factors))]
    return tuple(sorted(map(code, factors)))


def tuple_mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def tuple_leibniz(codes: tuple, direction: int) -> list[tuple]:
    """The monomials of d/dx_direction of a monomial, one per factor."""
    return [tuple(sorted(codes[:pos] + (lift(c, direction),) + codes[pos + 1:]))
            for pos, c in enumerate(codes)]


def _shown_vars(codes: tuple) -> list:
    """The factors in printed order: phi before psi, then by index length and index."""
    return sorted(map(var, codes), key=lambda v: (v[0], len(v[1]), v[1]))


def tuple_term_key(codes: tuple) -> tuple:
    return (len(codes), tuple(_shown_vars(codes)))


def tuple_factors(codes: tuple) -> list[str]:
    return [format_var(v) for v in _shown_vars(codes)]


def tuple_grading(codes: tuple) -> tuple[int, int, int]:
    """The phi count, psi count and jet-order total, recounted from the factors."""
    factors = list(map(var, codes))
    return (sum(tag == "phi" for tag, _ in factors), sum(tag == "psi" for tag, _ in factors),
            sum(len(index) for _, index in factors))


# -- reference linear solver ----------------------------------------------------------

class FractionReducer:
    """The column reducer with every entry a Fraction: unit-lead pivots and
    their combinations as Fraction dicts, reduced term by term."""

    def __init__(self):
        self.pivots: dict = {}

    @staticmethod
    def _axpy(target: dict, coeff: Fraction, source: dict) -> None:
        for key, value in source.items():
            _put(target, key, -coeff * value)

    def _reduce(self, vec: dict, combo: dict) -> dict:
        while vec:
            lead = min(vec)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            coeff = vec.pop(lead)
            pivot_vec, pivot_combo = hit
            self._axpy(vec, coeff, {k: v for k, v in pivot_vec.items() if k != lead})
            self._axpy(combo, -coeff, pivot_combo)
        return vec

    def add_column(self, key, vec: dict) -> bool:
        work = {k: Fraction(v) for k, v in vec.items() if v}
        combo = {key: Fraction(-1)}
        work = self._reduce(work, combo)
        if not work:
            return False
        lead = min(work)
        inv = 1 / work[lead]
        self.pivots[lead] = ({k: v * inv for k, v in work.items()},
                             {k: -v * inv for k, v in combo.items()})
        return True

    def solve(self, rhs: dict):
        combo: dict = {}
        if self._reduce({k: Fraction(v) for k, v in rhs.items() if v}, combo):
            return None
        return combo


# -- reference shape solver -----------------------------------------------------------
# One shape system per slot total and parity over every canonical pair of that
# total, solved in Fractions: the systems that star.shape_system splits by content.

def reference_shape_pairs(total: int, parity: int) -> list:
    out = []
    for size_a in range(1, total):
        size_b = total - size_a
        if size_a > size_b:
            continue
        for a in all_indices(size_a):
            for b in all_indices(size_b):
                if (len(a), a) > (len(b), b) or (a == b and parity < 0):
                    continue
                out.append((a, b))
    out.sort(key=lambda p: ((len(p[0]), p[0]), (len(p[1]), p[1])))
    return out


@cache
def reference_shape_system(total: int, parity: int, kept_rows: bool = False) -> FractionReducer:
    """With ``kept_rows``, only the rows whose first slot comes no later than
    the last, by length and then by index, the rows star.shape_system keeps."""
    reducer = FractionReducer()
    for a, b in reference_shape_pairs(total, parity):
        vec: dict = {}
        for pair, sign in [((a, b), 1)] + ([((b, a), parity)] if a != b else []):
            for slots, q in reference_delta_terms(pair):
                vec[slots] = vec.get(slots, 0) + q * sign
        if kept_rows:
            vec = {s: q for s, q in vec.items() if (len(s[0]), s[0]) <= (len(s[2]), s[2])}
        reducer.add_column((a, b), vec)
    return reducer


def reference_delta_solve(rhs: Cochain, k: int) -> Cochain:
    """The canonical solution of delta(M) = rhs, one (slot total, monomial)
    block at a time against its slot total's system."""
    parity = (-1) ** k
    blocks: dict = {}
    for slots, coeff in rhs.terms.items():
        for mono in coeff.terms:
            blocks.setdefault((slot_total(slots), mono), {})[slots] = coeff.coefficient(mono)
    out = Cochain(2, rhs.ring)
    for (total, mono), block in blocks.items():
        combo = reference_shape_system(total, parity).solve(block)
        assert combo is not None, "outside the coboundary span"
        for (a, b), q in combo.items():
            term = ring_class(rhs.ring).from_monomial(mono, q)
            out.add_term((a, b), term)
            if a != b:
                out.add_term((b, a), term.scale(parity))
    return out


def pivot_gauge_star(order: int) -> StarProduct:
    """The symbolic gradient-family product through ``order`` with no level
    in the orderable-diagram span: levels from 2 on are the ``solve_level``
    solutions, "pivot" at even and "unique" at odd levels.  Its level-4
    obstruction is nonzero, so order 4 raises ObstructionError."""
    levels = base_levels(NABLA_PHI, JET_RING, "sym", None)
    gauges = {0: "base", 1: "base"}
    for k in range(2, order + 1):
        level, gauges[k] = level_step(levels, k, NABLA_PHI, span=False)
        levels.append(level)
    return StarProduct(NABLA_PHI, "sym", None, levels, gauges)


# -- reference diagram kernels ------------------------------------------------------
# Brute force: every pair assignment filtered by is_opo, and every 3^(2n)
# index assignment of a diagram added through add_term with an unmemoized
# factor substitution.

def reference_enumerate(n_factors: int, require_opo: bool = False) -> list:
    targets = [(ARG, 0), (ARG, 1)] + [(FAC, v) for v in range(n_factors)]
    pairs = [tuple(sorted(pair)) for pair in combinations(targets, 2)]
    seen: dict = {}
    for assignment in product(pairs, repeat=n_factors):
        term = canonical_term(Fraction(1), list(assignment), 2)
        if term is None or not (term.arg_degree(0) and term.arg_degree(1)):
            continue
        if require_opo and not is_opo(term)[0]:
            continue
        seen.setdefault(term.key(), AbstractTerm(Fraction(1), term.pairs, term.n_args))
    return [seen[k] for k in sorted(seen)]


def concretize_sum(terms, mode: str) -> Cochain:
    """A sum of diagrams of one arity: their concretizations, one diagram at a
    time, added by one linear_combination."""
    return linear_combination(terms[0].n_args, JET_RING,
                              ((1, concretize(t, mode)) for t in terms))


def scaled_term(term: AbstractTerm, q: Fraction | int) -> AbstractTerm:
    return AbstractTerm(term.coeff * q, term.pairs, term.n_args)


def reference_concretize(terms, mode: str) -> Cochain:
    arity = terms[0].n_args
    out = Cochain(arity, JET_RING)
    for term in terms:
        endpoints = [(u, t) for u, pair in enumerate(term.pairs) for t in pair]
        for values in product((1, 2, 3), repeat=len(endpoints)):
            lowers: list[list[int]] = [[] for _ in range(term.n_factors)]
            slots: list[list[int]] = [[] for _ in range(arity)]
            uppers: list[list[int]] = [[] for _ in range(term.n_factors)]
            for (u, (kind, pos)), v in zip(endpoints, values):
                uppers[u].append(v)
                (lowers if kind == FAC else slots)[pos].append(v)
            coeff = JetPolynomial.const(term.coeff)
            for u in range(term.n_factors):
                i, j = uppers[u]
                coeff = coeff * substitute_factor.__wrapped__(tuple(lowers[u]), i, j, mode)
            out.add_term(tuple(tuple(s) for s in slots), coeff)
    return out


def reference_projections(k: int, mode: str) -> list:
    """star.opo_projections without the mirror rule: every diagram, mirror
    partners included, concretized, projected and cobounded on its own."""
    half = Fraction(1, 2)
    weights = (half, half * (-1) ** k)
    out = []
    for idx, term in enumerate(enumerate_terms(k)):
        c = concretize(term, mode)
        proj = linear_combination(2, JET_RING, zip(weights, (c, c.reverse_args())))
        if not proj.is_zero:
            out.append((idx, proj, proj.hochschild_delta()))
    return out


# -- diagram-level Hochschild coboundary and insertion ----------------------------
# The coboundary and the insertion product on diagrams, treating every upper
# endpoint as an individually reassignable wire: the closure of the
# orderable span is checked with them, before any concretization.

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
    """Hochschild coboundary of a diagram, one arity higher: -[D, m] for the
    multiplication diagram m, which has no factors and two arguments."""
    return [scaled_term(t, -1) for t in abstract_bracket(term, AbstractTerm(Fraction(1), (), 2))]


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
    swapped = [scaled_term(t, swap_sign) for t in abstract_insert(right, left)]
    return combine(list(abstract_insert(left, right)) + swapped)


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
