"""Multidifferential operators on polynomials, with exact coefficients.

A cochain of arity m is a finite sum of terms ``c * d_{I_1} x ... x d_{I_m}``
acting on m polynomial arguments, where each I_j is a sorted derivative
multi-index (a "slot") and the coefficient c lives in one of two rings: the
polynomial ring in x1..x3, or the formal jet ring of the potentials.  The
representation is a dict from slot tuples to coefficients, so operator
equality is structural equality.

The module implements the operations the deformation recursion needs: the
Hochschild coboundary, whose middle terms expand argument products by the
Leibniz rule; the Gerstenhaber insertion product, whose insertions
differentiate inner coefficients through the total x-derivative of the
ring; argument-degree filtering; argument reversal; and the alternating
average over the arguments of a trilinear operator.  Coboundaries,
combinations and insertion sums accumulate into one ``RatVec`` running sum
of integer numerators per output slot, over one denominator common to the
call (the lcm of the inputs' and weights'), so each contribution is an
integer multiple and an insertion's products stay unreduced.  A cochain
reduces each coefficient once; an equation delta(m) = target + insertions
is checked as one running difference (``coboundary_defect``), neither side
built.

Empty slots (an argument multiplied without differentiation) occur in the
bare multiplication, in insertions with it, and in terms that carry one.
In the coboundary of a term whose slots are all nonempty, the items with
an empty slot cancel in pairs within the term, so they are never formed;
a term with an empty slot keeps its full expansion.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import lcm
from operator import sub
from typing import Iterable, Iterator

from .jets import JetPolynomial, epsilon, exponent_relabelings, index_relabelings, relabelings
from .multiindex import MultiIndex, merge, mi, multiplicities, splits
from .polynomials import RatVec, XPoly

Slots = tuple[MultiIndex, ...]

JET_RING = "jet"
X_RING = "x"

_RINGS = {JET_RING: JetPolynomial, X_RING: XPoly}

# the orderings of three arguments, each with its sign
_S3 = tuple((perm, epsilon(*(p + 1 for p in perm))) for perm in permutations((0, 1, 2)))


def ring_class(ring: str):
    try:
        return _RINGS[ring]
    except KeyError:
        raise ValueError(f"unknown coefficient ring {ring!r}") from None


def _lengths(slots: Slots) -> tuple[int, ...]:
    return tuple(map(len, slots))


def _slot_order(slots: Slots) -> tuple:
    """The canonical order of slot tuples: by slot lengths, then by the slots."""
    return (_lengths(slots), slots)


def slot_total(slots: Slots) -> int:
    return sum(len(s) for s in slots)


def _content(slots: Slots) -> tuple[int, int, int]:
    """The counts (n_1, n_2, n_3) of each index over all slots."""
    return multiplicities(sum(slots, ()))


def _representative(slots: Slots) -> bool:
    """n_1 >= n_2 >= n_3 for the content; every S3 orbit of contents holds one."""
    n1, n2, n3 = _content(slots)
    return n1 >= n2 >= n3


def relabel(ring: str, s: int, slots: Slots, terms: dict, mul: int) -> tuple[Slots, dict]:
    """A term relabeled by the s-th sigma of ``jets.S3``: each index a of its
    slots and of its coefficient's monomials (jets or x-exponents) becomes
    sigma(a), and the numerators ``terms``, times ``mul``, move with their
    monomials.  Relabeling commutes with the coboundary and the insertion."""
    images = relabelings if ring == JET_RING else exponent_relabelings
    return (tuple(index_relabelings(index)[s] for index in slots),
            {images(mono)[s]: c * mul for mono, c in terms.items()})


def _common_den(cochain: "Cochain") -> int:
    return lcm(*(c.den for c in cochain.terms.values()))


def delta_terms(slots: Slots) -> Iterator[tuple[Slots, int]]:
    """Slot expansion of the Hochschild coboundary for one input term, with
    signed integer multiplicities.

    Coefficients are untouched by the coboundary, so the expansion depends
    on the slots alone; ``star.shape_system`` builds its columns from it.

    When every slot is nonempty, the items with an empty slot cancel in
    pairs: ``((),) + slots`` with the ``((), s_0)`` split, the ``(s_i, ())``
    split with the ``((), s_{i+1})`` split, and the ``(s_{n-1}, ())`` split
    with ``slots + ((),)``; such a tuple yields only the middle of
    ``splits``, whose first and last items are ``((), s)`` and ``(s, ())``.
    """
    n, full = len(slots), not all(slots)
    if full:
        yield ((),) + slots, 1
    for i in range(n):
        sign = -(-1) ** i
        pieces = splits(slots[i], 2)
        for (left, right), count in pieces if full else pieces[1:-1]:
            yield slots[:i] + (left, right) + slots[i + 1:], sign * count
    if full:
        yield slots + ((),), (-1) ** (n - 1)


class Cochain:
    """Finite multidifferential operator with exact ring coefficients."""

    __slots__ = ("arity", "ring", "terms")

    def __init__(self, arity: int, ring: str, terms: dict[Slots, object] | None = None):
        if arity < 1:
            raise ValueError("cochain arity must be at least 1")
        ring_class(ring)
        self.arity = arity
        self.ring = ring
        self.terms: dict[Slots, object] = terms or {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def multiplication(ring: str) -> "Cochain":
        """The pointwise product as a bilinear operator."""
        return Cochain(2, ring, {((), ()): ring_class(ring).one()})

    @staticmethod
    def _from_sums(arity: int, ring: str, sums: dict[Slots, RatVec]) -> "Cochain":
        """Cochain from per-slot running sums (sorted slot keys), each ring
        element built and reduced once; slots whose sum cancelled are dropped."""
        make = ring_class(ring).from_numerators
        return Cochain(arity, ring, {slots: make(acc.terms, acc.den)
                                     for slots, acc in sums.items() if acc.terms})

    def add_term(self, slots: Slots, coeff) -> None:
        if len(slots) != self.arity:
            raise ValueError(f"slot tuple {slots!r} does not match arity {self.arity}")
        slots = tuple(tuple(sorted(s)) for s in slots)
        current = self.terms.get(slots)
        total = coeff if current is None else current + coeff
        if total.is_zero:
            self.terms.pop(slots, None)
        else:
            self.terms[slots] = total

    # -- linear structure --------------------------------------------------

    def scale(self, q: Fraction | int) -> "Cochain":
        if not q:
            return Cochain(self.arity, self.ring)
        return Cochain(self.arity, self.ring,
                       {slots: c.scale(q) for slots, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.arity == other.arity
                and self.ring == other.ring and self.terms == other.terms)

    def coefficient(self, slots: Slots):
        slots = tuple(tuple(sorted(s)) for s in slots)
        return self.terms.get(slots, ring_class(self.ring).zero())

    def sorted_terms(self) -> list[tuple[Slots, object]]:
        return sorted(self.terms.items(), key=lambda kv: _slot_order(kv[0]))

    def first_difference(self, other: "Cochain") -> tuple | None:
        """(self - other).sorted_terms()[0] from one coefficient, for a cochain
        of the same arity and ring; None when the two are equal."""
        a, b = self.terms, other.terms
        slots = min((s for s in a.keys() | b.keys() if a.get(s) != b.get(s)),
                    key=_slot_order, default=None)
        return None if slots is None else (
            slots, self.coefficient(slots) - other.coefficient(slots))

    # -- structure of slots -------------------------------------------------

    def is_normalized(self) -> bool:
        """True when no term applies an argument without differentiating it."""
        return all(len(s) >= 1 for slots in self.terms for s in slots)

    def degree_part(self, degrees: tuple[int, ...]) -> "Cochain":
        """Terms whose slot lengths match the given argument degrees."""
        if len(degrees) != self.arity:
            raise ValueError("degree tuple does not match arity")
        picked = {slots: c for slots, c in self.terms.items()
                  if _lengths(slots) == degrees}
        return Cochain(self.arity, self.ring, picked)

    def reverse_args(self) -> "Cochain":
        """The operator with its arguments in reverse order; a reversal is a
        bijection on slot tuples, so terms move by assignment."""
        return Cochain(self.arity, self.ring,
                       {slots[::-1]: c for slots, c in self.terms.items()})

    # -- differential and bracket -------------------------------------------

    def hochschild_delta(self) -> "Cochain":
        """Hochschild coboundary; raises arity by one, never touches coefficients."""
        sums, _ = _running_sums(self.arity + 1, self.ring, self)
        return Cochain._from_sums(self.arity + 1, self.ring, sums)

    # -- trilinear alternation ------------------------------------------------

    def antisymmetrize(self) -> "Cochain":
        """Signed average over all orderings of the three arguments."""
        if self.arity != 3:
            raise ValueError("alternation is defined for trilinear operators")
        return linear_combination(3, self.ring, (
            (Fraction(sign, 6), Cochain(3, self.ring, {tuple(slots[p] for p in perm): c
                                                       for slots, c in self.terms.items()}))
            for perm, sign in _S3))

    # -- evaluation -----------------------------------------------------------

    def specialize(self, phi: XPoly | None, psi: XPoly | None) -> "Cochain":
        """Substitute explicit potentials into jet coefficients."""
        if self.ring != JET_RING:
            raise ValueError("specialize applies to jet-ring cochains")
        images = ((slots, c.eval_jets(phi, psi)) for slots, c in self.terms.items())
        return Cochain(self.arity, X_RING,
                       {slots: image for slots, image in images if not image.is_zero})

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "ring": self.ring,
            "terms": [
                {"coeff": c.to_json(), "slots": [list(s) for s in slots]}
                for slots, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Cochain":
        cls = ring_class(data["ring"])
        if type(data["arity"]) is not int:
            raise ValueError(f"arity must be an integer, got {data['arity']!r}")
        out = Cochain(data["arity"], data["ring"])
        for item in data["terms"]:
            slots = tuple(mi(*v) for v in item["slots"])
            out.add_term(slots, cls.from_json(item["coeff"]))
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for slots, c in self.sorted_terms():
            shape = " x ".join("d_" + ("".join(map(str, s)) or "0") for s in slots)
            parts.append(f"({c}) {shape}")
        return "  +  ".join(parts)

    __repr__ = __str__


def linear_combination(arity: int, ring: str,
                       pairs: Iterable[tuple[Fraction | int, "Cochain"]]) -> "Cochain":
    """Sum of q * cochain over (q, cochain) pairs, accumulated in place."""
    return Cochain._from_sums(arity, ring, _running_sums(arity, ring, pairs=pairs)[0])


def insertion_sum(arity: int, ring: str, insertions: Iterable[tuple],
                  degrees: set[tuple[int, ...]] | None = None) -> "Cochain":
    """Sum of weight * outer o inner (the Gerstenhaber insertion) over (weight,
    outer, inner) triples; with a set ``degrees`` of slot-length tuples, the
    sum of its degree_part on each, from one pass that shares its memos."""
    if degrees is not None and any(len(d) != arity for d in degrees):
        raise ValueError("degree tuple does not match arity")
    sums, _ = _running_sums(arity, ring, insertions=insertions, degrees=degrees)
    return Cochain._from_sums(arity, ring, sums)


def coboundary_defect(m: Cochain, target: Cochain | None = None,
                      insertions: Iterable[tuple] = (),
                      representatives: bool = False) -> tuple | None:
    """The first term of delta(m) - target - sum of weight * outer o inner over
    (weight, outer, inner) insertion triples, in ``sorted_terms`` order, as
    (slots, coefficient); None when that difference is zero.  No side is
    built as a cochain: only the returned coefficient becomes a ring element.
    With ``representatives``, only the slot tuples of representative content
    are summed and searched."""
    if target is not None and (target.arity, target.ring) != (m.arity + 1, m.ring):
        raise ValueError("target does not match the coboundary's arity and ring")
    sums, den = _running_sums(m.arity + 1, m.ring, m, [] if target is None else [(-1, target)],
                              [(-weight, outer, inner) for weight, outer, inner in insertions],
                              representatives=representatives)
    slots = min((s for s, acc in sums.items() if acc.terms), key=_slot_order, default=None)
    return None if slots is None else (
        slots, ring_class(m.ring).from_numerators(sums[slots].terms, den))


def _running_sums(arity: int, ring: str, delta_of: Cochain | None = None, pairs=(),
                  insertions=(), degrees: set[tuple[int, ...]] | None = None,
                  representatives: bool = False) -> tuple[dict, int]:
    """One running sum per output slot of delta(delta_of), of q * c over (q, c)
    pairs and of weight * outer o inner over (weight, outer, inner)
    insertions, with their one denominator, the lcm of the parts'.  With a
    set ``degrees`` of slot-length tuples an insertion visits only what lands
    on one of them: at each outer position, the inner slot lengths that
    complete the lengths of the outer slots around it to a tuple of the set.
    With ``representatives``, only output slot tuples of representative
    content are summed: the coboundary keeps a term's content, and an
    insertion's output content is the outer term's, less the piece on the
    inner coefficient, plus the inner term's, for every spread.

    A slot of the outer operator distributes over the composite argument:
    one piece differentiates the inner coefficient, the others (a spread)
    land on the inner slots, with multinomial multiplicities.  Per outer
    term, each product c_outer * d(c_inner) is formed once per (piece, inner
    term), unreduced, and kept by the inner term's position; each spread has
    one list of the inner positions it lands on, with the merged slots and
    their lengths, and with ``degrees`` an outer position passes over the
    entries whose lengths do not complete it."""
    pairs, insertions = [(q, c) for q, c in pairs if q], list(insertions)
    # a product c_outer * d(c_inner) has a denominator dividing the product of theirs
    den = lcm(1 if delta_of is None else _common_den(delta_of),
              *(q.denominator * _common_den(c) for q, c in pairs),
              *(weight.denominator * _common_den(outer) * _common_den(inner)
                for weight, outer, inner in insertions))
    sums = defaultdict(lambda: RatVec(None, den))  # per-slot running sums over den
    for slots, c in () if delta_of is None else delta_of.terms.items():
        if representatives and not _representative(slots):
            continue
        terms, mul = c.terms, den // c.den
        for new_slots, q in delta_terms(slots):
            sums[new_slots].add_scaled(terms, q * mul)
    for q, cochain in pairs:
        num, q_den = q.numerator, q.denominator
        for slots, c in cochain.terms.items():
            if not representatives or _representative(slots):
                sums[slots].add_scaled(c.terms, num * (den // (q_den * c.den)))
    for weight, outer, inner in insertions:
        if outer.ring != ring or inner.ring != ring:
            raise ValueError("cochain ring mismatch")
        p, q = outer.arity, inner.arity
        if p + q - 1 != arity:
            raise ValueError("insertion arity does not match")
        if not weight:
            continue
        inner_slots, inner_coeffs = list(inner.terms), list(inner.terms.values())
        inner_contents = representatives and list(map(_content, inner_slots))
        merged: dict = {}  # spread -> [(inner position, merged slots, their lengths)]
        derivative = cache(lambda j, piece: inner_coeffs[j].derivative(piece))
        if degrees is not None:
            # (position, head lengths, tail lengths) -> the inner lengths that complete them
            completions = defaultdict(set)
            for d in degrees:
                for i in range(p):
                    completions[i, d[:i], d[i + q:]].add(d[i:i + q])
            completions = {key: frozenset(inner) for key, inner in completions.items()}
        for slots_m, c_m in outer.terms.items():
            m_den = den // (c_m.den * weight.denominator)
            products: dict = {}  # piece -> by inner position: (product, multiplier)
            lengths_m, content_m = _lengths(slots_m), representatives and _content(slots_m)
            for i in range(p):
                head, tail = slots_m[:i], slots_m[i + 1:]
                inner_degrees = None
                if degrees is not None:
                    inner_degrees = completions.get((i, lengths_m[:i], lengths_m[i + 1:]))
                    if inner_degrees is None:
                        continue
                scale = weight.numerator * (-1) ** (i * (q - 1))
                for on_coeff, spread in _split_groups(slots_m[i], q + 1):
                    row = products.get(on_coeff)
                    if row is None:
                        row = products[on_coeff] = [None] * len(inner_slots)
                        if representatives:  # a pruned position holds an empty product
                            n1, n2, n3 = map(sub, content_m, multiplicities(on_coeff))
                            for j, (m1, m2, m3) in enumerate(inner_contents):
                                if not n1 + m1 >= n2 + m2 >= n3 + m3:
                                    row[j] = ((), 0)
                    for on_slots, count in spread:
                        targets = merged.get(on_slots)
                        if targets is None:
                            targets = merged[on_slots] = []
                            for j, n in enumerate(inner_slots):
                                middle = tuple(map(merge, n, on_slots))
                                targets.append((j, middle, _lengths(middle)))
                        mul = scale * count
                        for j, middle, lengths in targets:
                            if inner_degrees is not None and lengths not in inner_degrees:
                                continue
                            hit = row[j]
                            if hit is None:
                                d_n = derivative(j, on_coeff)
                                hit = row[j] = (c_m.product_terms(d_n), m_den // d_n.den)
                            terms, m_mul = hit
                            if terms:
                                sums[head + middle + tail].add_scaled(terms, m_mul * mul)
    return sums, den


@cache
def _split_groups(index: MultiIndex, parts: int) -> tuple:
    """``splits(index, parts)`` grouped by the first piece, in first-seen
    order: (first piece, ((the other pieces, count), ...)) pairs."""
    grouped: dict = {}
    for pieces, count in splits(index, parts):
        grouped.setdefault(pieces[0], []).append((pieces[1:], count))
    return tuple((first, tuple(rest)) for first, rest in grouped.items())


def epsilon_cochain(ring: str) -> "Cochain":
    """Fully antisymmetric first-order trilinear operator, determinant of
    first derivatives; unit coefficient on the identity slot ordering."""
    one = ring_class(ring).one()
    out = Cochain(3, ring)
    for perm, sign in _S3:
        slots = ((perm[0] + 1,), (perm[1] + 1,), (perm[2] + 1,))
        out.add_term(slots, one.scale(sign))
    return out
