"""Pinned sha256 digests of serialized products, LaTeX exports, verify
reports and diagram columns: the bytes the ring classes print, and the
diagrams the enumeration yields, must not drift under refactoring."""

import hashlib
import json
from fractions import Fraction

import pytest

from starq.cli import main
from starq.jets import NABLA_PHI, PSI_NABLA_PHI
from starq.latex import star_latex
from starq.opo import enumerate_terms
from starq.polynomials import parse_poly
from starq.star import StarProduct, build_star, opo_projections
from starq.verify import verify_star

from helpers import pivot_gauge_star
from records import opo_audit, psi_opo_experiment

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
    "cubic_star": "39c3fd52d97eaf269c2cb1250d295cd00f51552f7a6e9b2d9bdb059974e7fa1b",
    "sym_star3": "06c38243b210f94da21143a8c4dce0dbb141a4a4bc453055719442e18ecc7673",
}

# JSON of builds through the restricted span at every level (the conformal
# one concretizes non-monomial factors), symbolic and explicit, through the
# explicit conformal recursion, whose level 2 specializes its family's, and
# of the symbolic order-4 build, whose level 4 is solved in the pivot gauge;
# of the Moyal products of the potential x3 at orders 6 and 8, whose
# levels above 2 are solved by the shape solver; and of the cubic product
# at order 4.
BUILDS = {
    "symbolic-order-4": (
        lambda: build_star(NABLA_PHI, 4),
        "c225a84ba9eaf6b87508487289c8478ee0f590ad5d2657055cb6458969797636"),
    "opo-restrict": (
        lambda: build_star(NABLA_PHI, 3, opo_restrict=True),
        "5d11d27198fe2d09956529b665cd95ad345dba93d999126aa4f348353725b4ba"),
    "opo-restrict-conformal": (
        lambda: build_star(PSI_NABLA_PHI, 3, "sym", "sym", opo_restrict=True),
        "78d7c66d703becb4376d1b6ad818f277751ee1dfca3c9b848c3716f7cd22d4de"),
    "opo-restrict-cubic": (
        lambda: build_star(NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"), opo_restrict=True),
        "07c111ea3ea689e5a6b4b08a990c0857def1f7af794794cdcdf852885f53ab88"),
    "opo-restrict-explicit-conformal": (
        lambda: build_star(PSI_NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"), psi=parse_poly("1+x1"),
                           opo_restrict=True),
        "ad577be633d37590e079b628f6763f88b3ba3ddd6913c1f652c7933111ba9357"),
    "conformal": (
        lambda: build_star(PSI_NABLA_PHI, 3, phi=parse_poly("x1*x2*x3"), psi=parse_poly("1+x1")),
        "6fd702ea0ea128118108cc8a9a3ab62c97f294e3acff464a112efe68b5d2dc67"),
    "moyal-order-6": (
        lambda: build_star(NABLA_PHI, 6, phi=parse_poly("x3")),
        "f024f672cc848162a21efa45f55acaee4fe245938403b4501ec8ebe5c010006d"),
    "moyal-order-8": (
        lambda: build_star(NABLA_PHI, 8, phi=parse_poly("x3")),
        "4e4430eb30283aff2be16964ed0bab864e2356d817cce0e7ef443358f49acbaf"),
    "cubic-order-4": (
        lambda: build_star(NABLA_PHI, 4, phi=parse_poly("x1*x2*x3")),
        "7ed9853ecf53cde8d6bc330ed5be57f7abe077efb10d861b99c247aa7dcb3def"),
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


@pytest.mark.slow
def test_symbolic_order_5_json_digest(sym_star5):
    # level 5 is solved by the shape solver from its 43,895-term right-hand side
    assert _sha(json.dumps(sym_star5.to_json(), indent=2)) == (
        "9c33c4e613d353554f05cc9ddf1250cc3b0bf823334a30bb6f40adfb14fb2108")


def test_orderable_enumeration_digest():
    keys = [term.key() for term in enumerate_terms(4)]
    assert _sha(repr(keys)) == (
        "d68157cc64d4bdb2f338db3a0dbb9f9e228b8600dafc83b86ed29a3c64174bd4")


# JSON of every parity-projected 3-factor column, one per mirror pair (7 of
# the 12 diagrams), with its diagram index.
PROJECTIONS = {
    NABLA_PHI: "cd3e86dcc2fee6c05ab404a280745711b9ce1726a25b42376932b7bb7128d11a",
    PSI_NABLA_PHI: "d8d9fb77b8d6c02c707346c7793d58f9a6a4c8d08a8e789f3629e92c7ef1da36",
}


@pytest.mark.parametrize("mode", sorted(PROJECTIONS))
def test_projection_digests(mode):
    columns = [[idx, proj.to_json()] for idx, proj, _ in opo_projections(3, mode)]
    assert _sha(json.dumps(columns, indent=2)) == PROJECTIONS[mode]


# The same for the 4-factor columns, one per mirror pair (40 of the 74 diagrams).
PROJECTIONS_4 = {
    NABLA_PHI: "37d02fa2e73a264865347b3375adfff4d958cd9bdeb76416ab860ba0b975d08e",
    PSI_NABLA_PHI: "58f5555be92c69d685c9f3c8ed428915dfc4127ca125820479fb310b7522947f",
}


@pytest.mark.parametrize("mode", [NABLA_PHI, pytest.param(PSI_NABLA_PHI, marks=pytest.mark.slow)])
def test_four_factor_projection_digests(mode):
    # the text of json.dumps(columns, indent=2), hashed as it is encoded: the
    # conformal one is 151 MB and takes seconds
    columns = [[idx, proj.to_json()] for idx, proj, _ in opo_projections(4, mode)]
    digest = hashlib.sha256()
    for chunk in json.JSONEncoder(indent=2).iterencode(columns):
        digest.update(chunk.encode())
    assert digest.hexdigest() == PROJECTIONS_4[mode]


# JSON of the diagram audits of the symbolic order-3 product, in the
# orderable gauge and in the pivot gauge (no lift at levels 2 and 3, so the
# full span is searched), and of the conformal experiment record.
RECORDS = {
    "audit-orderable": (
        lambda: opo_audit(build_star(NABLA_PHI, 3)),
        "a778570c5042fc77396b3014ec550e9a07d3a4d7407fd5220f8f5ca2cbaef41c"),
    "audit-pivot": (
        lambda: opo_audit(pivot_gauge_star(3)),
        "ca4e0d1cc153779f81f329990c8be73a406cc72981a9c83f74eda509d26a39e2"),
    "experiment": (
        psi_opo_experiment,
        "b4fe46c07ceeaa5f1c2f684d2dd963583910f544d093d826d91d104f2a806119"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_digests(name):
    record, digest = RECORDS[name]
    assert _sha(json.dumps(record(), indent=2)) == digest


def test_verify_report_digest(cubic_star):
    report = verify_star(cubic_star)
    assert _sha(json.dumps(report, indent=2)) == (
        "811a46e654f9843ad5ad1b6f0242b948ae45acc4268685ab2a4ff2f10ea549ca")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_verify_report_digest(name, request):
    data = request.getfixturevalue(name).to_json()
    data["levels"][2]["terms"][0]["coeff"][0]["coeff"] = "7/5"
    report = verify_star(StarProduct.from_json(data))
    assert not report["pass"]
    assert _sha(json.dumps(report, indent=2)) == MUTANTS[name]


# Verify reports of passing products: the explicit ones, those built as in
# BUILDS among them, print every check, the associator scan included; the
# symbolic ones print the unit, parity, residual and level-1 checks, and at
# order 4 residual-4 brackets the pair (1, 3) and the self pair (2, 2).  The Moyal
# products at orders 6 and 8 are the largest scans pinned here, and the
# cubic one at order 4 the largest whose levels have non-constant
# coefficients.
REPORTS = {
    "sym_star3": "8f665bd10524cfd21a7ffd2288646b307fda0b8b7b7c9e76c911b77f546dfcee",
    "sym_star4": "3f9ae942784f19edefb3c40abf8c5806728e8f3cca517282ce7200489bfddbe8",
    "x3_star4": "77fd1a7f3c14537150dbf9511fe3b146041de04122540485ba45e8649eab2827",
    "sphere_star": "c6285f43b5e393c5f3af490544d0122de4c1a5ab54eb014e3078bdbb1b813230",
    "conformal": "7a76825b4a0b0c8097da64d6a14e4b87aeaab09bafc78941fa97c6fbfcf37f17",
    "moyal-order-6": "59c2c81153b47f51e04154c720e9762ba56c53ff1f08c9b5882f7615bcea6f01",
    "moyal-order-8": "080bf7a3942f73b8362e30ef09f03a8656eb974efdb68273b61c6e442555fb22",
    "cubic-order-4": "3d961f3eefb93c74529209122ab7b2f23b4c9513cda6d7979880d2ecc9ae5ed6",
}


@pytest.mark.slow
def test_cubic_order_5_json_and_verify_report_digests():
    # the largest explicit product whose associator scan is pinned
    star = build_star(NABLA_PHI, 5, phi=parse_poly("x1*x2*x3"))
    assert _sha(json.dumps(star.to_json(), indent=2)) == (
        "43cdbfb091d8dce905a9425de2da4a58abe10292926607cd8b596f462f49f007")
    assert _sha(json.dumps(verify_star(star), indent=2)) == (
        "2b98c4b3d90c5cb315557891169b9000bf64219a3398f0a77ddcdea863f39b24")


def _product(name: str, request) -> StarProduct:
    """A product of BUILDS, built afresh, or a session fixture."""
    return BUILDS[name][0]() if name in BUILDS else request.getfixturevalue(name)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_passing_verify_report_digests(name, request):
    report = verify_star(_product(name, request))
    assert report["pass"]
    assert _sha(json.dumps(report, indent=2)) == REPORTS[name]


# Verify reports of the benchmark's kind of mutant: 3/7 added to the first
# monomial of the first term of a level whose two slots differ, so the level
# loses its parity and the scan stops at a failing triple.
ASYMMETRIC_MUTANTS = {
    ("cubic_star", 1): "f0ab7e774461626ac713f13962dbf2b2c2a02cb19a383f2b599ec73ff1a72d0c",
    ("cubic_star", 2): "350d5b8a9cd351cc830fc9345922ece4ca4f56672a49f227f5271533821e9e7c",
    ("x3_star4", 1): "1296d1de846a8d1605d6ffa75fb7a44e42743e4978b35f05b02d281e30ed0306",
    ("x3_star4", 2): "0d12021ae8160ed4b32720d3f89c33699f8140b496b5c0512f6dc5fa305fc207",
    ("moyal-order-6", 1): "6996d017c1f56df44f59905c6add9905b221b33ffa2de9aa750a684ada8a6ed9",
    ("moyal-order-6", 2): "3e0a4abc90b6a4e05fb4ce287e2a3de944e31f6666453599a5758f84d4cfdf51",
    # the top levels of the cubic product at order 4: both mutants first fail
    # at order 4, the level-3 one at (x2, x1, x1*x2), the level-4 one at
    # (x1, x2, x1)
    ("cubic-order-4", 3): "50e0ca6149bd417cb85eee3473a6fa289c7657e62f897631e3c49d6976421a9a",
    ("cubic-order-4", 4): "4adb3f3eeadfdf35b71eb8000dea9b8cc2c3fba0812b3ae3a77d7402a9cb75df",
}


def _asymmetric_mutant_report(star: StarProduct, level: int) -> dict:
    data = star.to_json()
    term = next(t for t in data["levels"][level]["terms"] if t["slots"][0] != t["slots"][1])
    mono = term["coeff"][0]
    mono["coeff"] = str(Fraction(mono["coeff"]) + Fraction(3, 7))
    return verify_star(StarProduct.from_json(data))


@pytest.mark.parametrize("name, level", sorted(ASYMMETRIC_MUTANTS))
def test_asymmetric_mutant_verify_report_digests(name, level, request):
    report = _asymmetric_mutant_report(_product(name, request), level)
    assert any(c["name"] == "associator" and not c["pass"] for c in report["checks"])
    assert _sha(json.dumps(report, indent=2)) == ASYMMETRIC_MUTANTS[name, level]


# The same mutants of the symbolic product: the level loses its parity, and
# both residuals print jet-ring coefficients; level 1 is no longer half the
# Poisson bracket either.
SYMBOLIC_MUTANTS = {
    1: "efc98283c3f343d5b030b8d46c563a245017fa7acdce4f967b8435bc7c3d00ff",
    2: "a509b516df3eb43c21fe95d9df8411ad2e86b54a0d03c2dce486cfc26a062d80",
}


@pytest.mark.parametrize("level", sorted(SYMBOLIC_MUTANTS))
def test_symbolic_asymmetric_mutant_verify_report_digests(level, sym_star3):
    report = _asymmetric_mutant_report(sym_star3, level)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == [f"parity-{level}", "residual-2", "residual-3"] + (
        ["commutator-bracket"] if level == 1 else [])
    assert _sha(json.dumps(report, indent=2)) == SYMBOLIC_MUTANTS[level]


# Mutants of the symbolic order-4 product at its top two levels: residual-4
# fails in both, on the side of delta(M_4) for the level-4 mutant and on the
# side of the brackets [M_1, M_3] for the level-3 one.
SYMBOLIC_ORDER_4_MUTANTS = {
    3: (["parity-3", "residual-3", "residual-4"],
        "cad24962192387dca119087ee9c244b296fdcb393c6016b354e47b016dd91672"),
    4: (["parity-4", "residual-4"],
        "5ff9625043ff11b2edc0fa5784c1ddb58960e4b33c06f2a2e83f42e5ed8d69e3"),
}


@pytest.mark.parametrize("level", sorted(SYMBOLIC_ORDER_4_MUTANTS))
def test_symbolic_order_4_mutant_verify_report_digests(level, sym_star4):
    report = _asymmetric_mutant_report(sym_star4, level)
    failed, digest = SYMBOLIC_ORDER_4_MUTANTS[level]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == failed
    assert _sha(json.dumps(report, indent=2)) == digest


def test_symbolic_json_reloads_byte_for_byte(sym_star3):
    text = json.dumps(sym_star3.to_json(), indent=2)
    reloaded = StarProduct.from_json(json.loads(text))
    assert json.dumps(reloaded.to_json(), indent=2) == text


# Stdout of the command line: the summary lines of construct and the check
# lines of verify for the cubic product, and the obstruction report, whose
# summary line goes to stderr under --emit json.
CLI_OUTPUTS = [
    (["construct", "--phi", "x1*x2*x3", "--order", "3", "--out", "{star}"],
     "40dba278a4521c8b5c88544c3dc3d65959e458a8c78f1d557b878e3d27f16e47"),
    (["verify", "{star}"],
     "17b113a1af28ecac3484d42f8ef6fbcba0393b7eb825661eece30d99c255a42c"),
    (["obstruction", "--phi", "sym", "--k", "4", "--emit", "json"],
     "9750c174134abba67eabf534aa9aff318e111fee24b73bc84091a1ae10a7f0f0"),
]


def test_cli_stdout_digests(tmp_path, capsys):
    star = str(tmp_path / "cubic.json")
    for argv, digest in CLI_OUTPUTS:
        assert main([a.format(star=star) for a in argv]) == 0
        assert _sha(capsys.readouterr().out) == digest, argv[0]


# Verify reports of mutants that keep the Weyl parity: 3/7 added to the first
# monomial of the first term of a level whose two slots differ, and
# (-1)^k 3/7 to the same monomial of its mirror term, so every parity check
# passes and the scan's mirror skip stays on; and one mutant that adds the
# pair 3/7 (d_12 x 1 + 1 x d_12) to level 2, which keeps the parity and breaks
# the unit law, so the scan's unit skip is off.
SYMMETRIC_MUTANTS = {
    ("cubic_star", 2, False):
        "d48c4d7993dab1a7529471ff9f2522727a959a0db643a08c49c1feee79e2cf6e",
    ("cubic_star", 3, False):
        "e3d1b44dd371536ea12be40f28119d31c18e1c2dd5df8e8b4ccdcf42e964045f",
    ("cubic_star4", 3, False):
        "bc75445c1ea8fc6eaa26a0c4bc55a06f65df83827361d946edfdc4770b5146f7",
    ("cubic_star4", 4, False):
        "81273794fba3038c0ed8a81e6308febfbfc0cde9d25ebef7d0ceaee75242685c",
    ("cubic_star", 2, True):
        "cc2c73329202b24be1864d827f216701d2c4d72b74365a0b9766aa35d517f58f",
}


def _symmetric_mutant(star: StarProduct, level: int, empty_slot: bool) -> StarProduct:
    data = star.to_json()
    terms = data["levels"][level]["terms"]
    step = Fraction(3, 7)
    if empty_slot:
        for slots in ([[], [1, 2]], [[1, 2], []]):
            terms.append({"slots": slots, "coeff": [{"coeff": str(step), "factors": []}]})
        return StarProduct.from_json(data)
    term = next(t for t in terms if t["slots"][0] != t["slots"][1])
    mirror = next(t for t in terms if t["slots"] == term["slots"][::-1])
    factors = term["coeff"][0]["factors"]
    for t, bump in ((term, step), (mirror, (-1) ** level * step)):
        mono = next(m for m in t["coeff"] if m["factors"] == factors)
        mono["coeff"] = str(Fraction(mono["coeff"]) + bump)
    return StarProduct.from_json(data)


@pytest.mark.parametrize("name, level, empty_slot", sorted(SYMMETRIC_MUTANTS))
def test_symmetric_mutant_verify_report_digests(name, level, empty_slot, request):
    report = verify_star(_symmetric_mutant(_product(name, request), level, empty_slot))
    checks = {c["name"]: c for c in report["checks"]}
    assert all(c["pass"] for n, c in checks.items() if n.startswith("parity-"))
    assert checks["units"]["pass"] is not empty_slot
    assert not checks["associator"]["pass"]
    assert _sha(json.dumps(report, indent=2)) == SYMMETRIC_MUTANTS[name, level, empty_slot]
