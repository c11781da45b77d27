"""Inputs made by the benchmark: seeded mutants and malformed star files."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from math import comb, factorial


def mutant(star: dict, rng: random.Random, level: int) -> dict:
    """A copy of ``star`` with one rational coefficient of ``level`` changed by
    a seeded amount.

    The first term of the level whose two slots differ is changed, in its
    first monomial, so the swapped term keeps its coefficient and the level
    loses its parity: every mutant is a genuinely corrupted product.  The
    location is fixed because the verifier's associator scan stops at the
    first failing triple, so its time depends on where the change sits.
    """
    out = copy.deepcopy(star)
    terms = [t for t in out["levels"][level]["terms"] if t["slots"][0] != t["slots"][1]]
    mono = terms[0]["coeff"][0]
    old = Fraction(mono["coeff"])
    step = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    if old + step == 0:  # keep the monomial, so every mutant costs the verifier alike
        step = -step
    mono["coeff"] = str(old + step)
    return out


def weyl_level(k: int) -> dict:
    """Level k of the Weyl product for P^{12} = 1 (the potential x3).

    M_k = (1/(2^k k!)) P^{i1 j1}...P^{ik jk} d_{i1..ik} x d_{j1..jk}; with
    P^{12} = -P^{21} = 1 the terms group by how many factors pick (1, 2).
    Returns {(slot_a, slot_b): Fraction}.
    """
    out = {}
    for m in range(k + 1):
        a = (1,) * m + (2,) * (k - m)
        b = (1,) * (k - m) + (2,) * m
        out[(a, b)] = Fraction(comb(k, m) * (-1) ** (k - m), 2 ** k * factorial(k))
    return out


def weyl_star(order: int = 2) -> dict:
    """The Weyl product of the potential x3 in starq's stored format."""
    levels = []
    for k in range(order + 1):
        terms = [{"coeff": [{"coeff": str(q), "factors": []}], "slots": [list(a), list(b)]}
                 for (a, b), q in sorted(weyl_level(k).items())]
        levels.append({"arity": 2, "ring": "x", "terms": terms})
    return {"mode": "nabla-phi", "ring": "x", "order": order, "phi": "x3", "psi": None,
            "levels": levels, "obstructionReports": [], "gauges": {}}


def malformed_files() -> list[tuple[str, str]]:
    """Nine broken star files, (name, text); the CLI should reject each with exit 2."""
    base = weyl_star()

    def edited(fn) -> str:
        star = copy.deepcopy(base)
        fn(star)
        return json.dumps(star, indent=2)

    def first_coeff(star):
        return star["levels"][1]["terms"][0]["coeff"][0]

    return [
        ("empty-levels", edited(lambda s: s.update(levels=[]))),
        ("slot-label-7", edited(lambda s: s["levels"][1]["terms"][0].update(slots=[[7], [2]]))),
        ("order-beyond-levels", edited(lambda s: s.update(order=5))),
        ("unparsable-phi", edited(lambda s: s.update(phi="x1+*"))),
        ("zero-denominator", edited(lambda s: first_coeff(s).update(coeff="1/0"))),
        ("mixed-ring", edited(lambda s: s["levels"][2].update(ring="jet"))),
        ("invalid-json", json.dumps(base, indent=2)[:200]),
        ("missing-mode", edited(lambda s: s.pop("mode"))),
        ("factor-x9", edited(lambda s: first_coeff(s).update(factors=["x9"]))),
    ]
