"""Shared generators for randomized tests."""

from fractions import Fraction
from itertools import combinations, permutations, product
from random import Random

from starq.cochains import Cochain, JET_RING, X_RING
from starq.jets import JetPolynomial, monomial_key, phi_jet, psi_jet, substitute_factor
from starq.multiindex import merge, splits
from starq.opo import ARG, FAC, AbstractTerm, canonical_term, is_opo
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


# -- reference cochain kernels --------------------------------------------------------
# Each contribution is a scaled copy added term by term through add_term: the
# formulas the accumulating kernels in starq.cochains replace.

def reference_hochschild_delta(c: Cochain) -> Cochain:
    out = Cochain(c.arity + 1, c.ring)
    n = c.arity
    for slots, coeff in c.terms.items():
        out.add_term(((),) + slots, coeff)
        for i in range(n):
            for (left, right), count in splits(slots[i], 2):
                out.add_term(slots[:i] + (left, right) + slots[i + 1:],
                             coeff.scale(-Fraction((-1) ** i) * count))
        out.add_term(slots + ((),), coeff.scale((-1) ** (n - 1)))
    return out


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
    """(1/2) sum over l of [M_l, M_{k-l}], the sum folded copy by copy and
    halved at the end: the verifier's formula before it added half of every
    bracket into one accumulator."""
    total = Cochain(3, levels[1].ring)
    for l in range(1, k):
        total = total + levels[l].bracket(levels[k - l])
    return total.scale(Fraction(1, 2))


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


# -- reference ring arithmetic on Fraction coefficient dicts ---------------------------
# The formulas of the sparse core before it held integer numerators: every
# coefficient a Fraction, every result term by term.

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
            for pos, (tag, index) in enumerate(mono):
                lifted = (tag, merge(index, (direction,)))
                _put(out, monomial_key(mono[:pos] + (lifted,) + mono[pos + 1:]), c)
    return out


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

    def residual(self, rhs: dict) -> dict:
        return self._reduce({k: Fraction(v) for k, v in rhs.items() if v}, {})


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
