"""Pinned sha256 digests of serialized products, LaTeX exports, verify
reports and diagram columns: the bytes the ring classes print, and the
diagrams the enumeration yields, must not drift under refactoring."""

import hashlib
import json

import pytest

from starq.jets import NABLA_PHI, PSI_NABLA_PHI
from starq.latex import star_latex
from starq.opo import enumerate_terms
from starq.polynomials import parse_poly
from starq.star import StarProduct, build_star, opo_projections
from starq.verify import verify_star

PRODUCTS = {
    "sym_star3": (
        "441e2d8c51665dd8dd8edc3f6a0a3db284396ee18c4c108e540e4000bf68ac7e",
        "55878318020d982d613d4e9334c1d5cca06b4e53c4ce6e8579929755fc14e968"),
    "cubic_star": (
        "d454c8047d58e2a7d67b13fbc5b355e341c68ad933e6ceba2d120bf97b07cfa4",
        "6b5f88c8894f5ffef92ba82294c32679b55ce85ab35c14ae6c85b04a2e881a34"),
    "x3_star4": (
        "317eaca894f5f3dc8f1ec2afcd22c6679f7dcd2e2bc20c423242c45756617b4f",
        "45ed0ae811a7f320ebb515ec9c0b8e40511b939b3aef62ecc765a8ac0fe12915"),
    "sphere_star": (
        "bc39f8244f679db76614d1b2a2a1c649e59126dc94603952dcbf7a3726a9111f",
        "81e5c30357f329fb5b4b5376449de361282d9b79f80a3c9517168f5a89ef7064"),
}

# Verify reports of a product whose level 2 has its first coefficient set to
# 7/5: the failing residuals print ring elements of either ring.
MUTANTS = {
    "cubic_star": "f0973c8a7ce3be40666359a22755cd05e8934de976b1c245e4c7cb2cc02402c3",
    "sym_star3": "b8c615f07608ab7281ce869a2423db0b3acf6649dbe393c97ba48fc30fbe79f5",
}

# JSON of builds through the restricted span at every level (the conformal
# one concretizes non-monomial factors) and through the explicit conformal
# recursion with its jet-ring shadow.
BUILDS = {
    "opo-restrict": (
        lambda: build_star(NABLA_PHI, 3, opo_restrict=True),
        "5d11d27198fe2d09956529b665cd95ad345dba93d999126aa4f348353725b4ba"),
    "opo-restrict-conformal": (
        lambda: build_star(PSI_NABLA_PHI, 3, "sym", "sym", opo_restrict=True),
        "78d7c66d703becb4376d1b6ad818f277751ee1dfca3c9b848c3716f7cd22d4de"),
    "conformal": (
        lambda: build_star(PSI_NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"), psi=parse_poly("1+x1")),
        "6fd702ea0ea128118108cc8a9a3ab62c97f294e3acff464a112efe68b5d2dc67"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_json_and_latex_digests(name, request):
    star = request.getfixturevalue(name)
    json_digest, latex_digest = PRODUCTS[name]
    assert _sha(json.dumps(star.to_json(), indent=2)) == json_digest
    assert _sha(star_latex(star)) == latex_digest


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_json_digests(name):
    build, digest = BUILDS[name]
    assert _sha(json.dumps(build().to_json(), indent=2)) == digest


def test_orderable_enumeration_digest():
    keys = [term.key() for term in enumerate_terms(4, require_opo=True)]
    assert _sha(repr(keys)) == (
        "d68157cc64d4bdb2f338db3a0dbb9f9e228b8600dafc83b86ed29a3c64174bd4")


# JSON of every parity-projected 3-factor column, with its diagram index.
PROJECTIONS = {
    NABLA_PHI: "d8a9c7256ed23ea5d99f22a2bad7057e57b9c2609cb76db1d6c496b3a3231250",
    PSI_NABLA_PHI: "a2fbe4936c05363291f5a664727717ff17d54c6dcf7e6ebeb15fc39123c2d1e1",
}


@pytest.mark.parametrize("mode", sorted(PROJECTIONS))
def test_projection_digests(mode):
    columns = [[idx, proj.to_json()] for idx, proj in opo_projections(3, mode)]
    assert _sha(json.dumps(columns, indent=2)) == PROJECTIONS[mode]


def test_verify_report_digest(cubic_star):
    report = verify_star(cubic_star)
    assert _sha(json.dumps(report, indent=2)) == (
        "9f490d449b5c686536a8fecd026a4e165eebc9785a63f5f0b197312fc5a5197c")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_verify_report_digest(name, request):
    data = request.getfixturevalue(name).to_json()
    data["levels"][2]["terms"][0]["coeff"][0]["coeff"] = "7/5"
    report = verify_star(StarProduct.from_json(data))
    assert not report["pass"]
    assert _sha(json.dumps(report, indent=2)) == MUTANTS[name]
