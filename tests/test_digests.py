"""Pinned sha256 digests of serialized products, LaTeX exports, verify
reports and diagram columns: the bytes the ring classes print, and the
diagrams the enumeration yields, must not drift under refactoring."""

import hashlib
import json
from fractions import Fraction

import pytest

from starq.cli import main
from starq.experiment import opo_audit, psi_opo_experiment
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
def test_symbolic_order_5_json_digest():
    # level 5 is solved by the shape solver from its 43,895-term right-hand side
    assert _sha(json.dumps(build_star(NABLA_PHI, 5).to_json(), indent=2)) == (
        "9c33c4e613d353554f05cc9ddf1250cc3b0bf823334a30bb6f40adfb14fb2108")


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
    columns = [[idx, proj.to_json()] for idx, proj, _ in opo_projections(3, mode)]
    assert _sha(json.dumps(columns, indent=2)) == PROJECTIONS[mode]


# JSON of the diagram audits of the symbolic order-3 product, in the
# orderable gauge and in the pivot gauge (no lift at levels 2 and 3, so the
# full span is searched), and of the conformal experiment record.
RECORDS = {
    "audit-orderable": (
        lambda: opo_audit(build_star(NABLA_PHI, 3)),
        "a778570c5042fc77396b3014ec550e9a07d3a4d7407fd5220f8f5ca2cbaef41c"),
    "audit-pivot": (
        lambda: opo_audit(build_star(NABLA_PHI, 3, opo_gauge_limit=0)),
        "ca4e0d1cc153779f81f329990c8be73a406cc72981a9c83f74eda509d26a39e2"),
    "experiment": (
        psi_opo_experiment,
        "c5b87b626d35da5a3b2b0a93364579db801b10f3ea1d7ae1007421d955b229f7"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_digests(name):
    record, digest = RECORDS[name]
    assert _sha(json.dumps(record(), indent=2)) == digest


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


# Verify reports of passing products: the explicit ones, those built as in
# BUILDS among them, print every check of the associator scan and the probes;
# the symbolic one prints the unit, parity and residual checks.  The Moyal
# products at orders 6 and 8 are the largest scans pinned here, and the
# cubic one at order 4 the largest whose levels have non-constant
# coefficients.
REPORTS = {
    "sym_star3": "9302d1b683fa469db1c52de3dc008ee56416fa00a44e2b3242b17250ebf4fb45",
    "x3_star4": "f8ef177724a29144e164d521b45fdb876ca40cd01280026619641c32cbfa0970",
    "sphere_star": "8211460e391fef14ad14e457d993f153b81964d7249256304c5895d507518548",
    "conformal": "2c3751c7bf26bd5301f8af45a483bd791675881b75672ccfff583f31ef4569ec",
    "moyal-order-6": "fe5ec3a6d590fb466ad94b9f2fcec945d6ac176290cd90469909ad6010defd3b",
    "moyal-order-8": "3d33324a2e481449a06b2dbc09db64feed49cdd82cf10af290322d4847763695",
    "cubic-order-4": "02f30eabbe1ce0d5d35d6bdaddc755b0c0c5675bb785fd50a4e2451ec696e144",
}


@pytest.mark.slow
def test_cubic_order_5_json_and_verify_report_digests():
    # the largest explicit product whose associator scan is pinned
    star = build_star(NABLA_PHI, 5, phi=parse_poly("x1*x2*x3"))
    assert _sha(json.dumps(star.to_json(), indent=2)) == (
        "43cdbfb091d8dce905a9425de2da4a58abe10292926607cd8b596f462f49f007")
    assert _sha(json.dumps(verify_star(star), indent=2)) == (
        "0176b89e15e2357b20cf10e7ae48f22fd2bed89efa816f85683db909ed2beb93")


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
    ("cubic_star", 1): "1c44db15c7972d17bb096bcc9bc8b9535cdde62189986a13bb00aa7988f54b83",
    ("cubic_star", 2): "e1011180df0aba99cb64068abea028ff7671014c52819b3b6265c48517ca0c07",
    ("x3_star4", 1): "9e67d3844a79ff5f465d76953f5b1d6b017d124a7baac0433fb3f04f23e80e29",
    ("x3_star4", 2): "c2c315abc647edaf805bd52d357ef3d24e5d61ba3a918f407f60e83a7c37d99e",
    ("moyal-order-6", 1): "efdb9d07f2721d91452847f6d55c2dbcee6479e5ac5f7296b7ca85a7b7ebbf39",
    ("moyal-order-6", 2): "afcd622c46df72dec6e30a98433fd579e1a060615dc35201eb9aec225fbacd7b",
    # the top levels of the cubic product at order 4: both mutants first fail
    # at order 4, the level-3 one at (x2, x1, x1*x2), the level-4 one at
    # (x1, x2, x1)
    ("cubic-order-4", 3): "d8a8715d5e0e9ff15e2de78693369ab40d352dd65e8cccd93a4b857a077f269f",
    ("cubic-order-4", 4): "eddbe03be564c9353b5845b386ef47a1aa064bcbfe7b4fcc106a509ddb30bab2",
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
# both residuals print jet-ring coefficients.
SYMBOLIC_MUTANTS = {
    1: "31d8bfc2eff11e28e8c9ef2bf3fe0af6d664394d8e795d43b0e6e07385947f93",
    2: "316444c3f83d9cf0ad99bd2740fea04b65bad563e0f5d8f1b47f855d8388314c",
}


@pytest.mark.parametrize("level", sorted(SYMBOLIC_MUTANTS))
def test_symbolic_asymmetric_mutant_verify_report_digests(level, sym_star3):
    report = _asymmetric_mutant_report(sym_star3, level)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == [f"parity-{level}", "residual-2", "residual-3"]
    assert _sha(json.dumps(report, indent=2)) == SYMBOLIC_MUTANTS[level]


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
     "707c4c31089efd47e7088895743e28aa2da93896429d54bc3105aabe72b29251"),
    (["obstruction", "--phi", "sym", "--k", "4", "--emit", "json"],
     "9750c174134abba67eabf534aa9aff318e111fee24b73bc84091a1ae10a7f0f0"),
]


def test_cli_stdout_digests(tmp_path, capsys):
    star = str(tmp_path / "cubic.json")
    for argv, digest in CLI_OUTPUTS:
        assert main([a.format(star=star) for a in argv]) == 0
        assert _sha(capsys.readouterr().out) == digest, argv[0]
