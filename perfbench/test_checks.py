"""Tests of the benchmark's own checks: each must reject a corrupted product.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import oracles  # noqa: E402
from corpus import malformed_files, mutant, weyl_star  # noqa: E402
from speed import Speedometer  # noqa: E402


@pytest.fixture(scope="module")
def main():
    return run.import_starq()


def build(main, tmp_path, *args) -> dict:
    path = tmp_path / "star.json"
    rc, _, err = run.call(main, ["construct", *args, "--out", str(path)])
    assert rc == 0, err
    return json.loads(path.read_text())


def scale_level(star: dict, k: int, factor: int) -> dict:
    """Multiply a whole level by a constant: parity and grading survive."""
    out = copy.deepcopy(star)
    for term in out["levels"][k]["terms"]:
        for mono in term["coeff"]:
            mono["coeff"] = str(factor * Fraction(mono["coeff"]))
    return out


def test_symbolic_oracle(main, tmp_path):
    star = build(main, tmp_path, "--phi", "sym", "--order", "2")
    oracles.check_symbolic(star, random.Random(0))
    with pytest.raises(oracles.OracleError, match="parity"):
        oracles.check_symbolic(mutant(star, random.Random(1), level=1), random.Random(0))
    with pytest.raises(oracles.OracleError, match="parity"):
        oracles.check_symbolic(mutant(star, random.Random(1), level=2), random.Random(0))
    with pytest.raises(oracles.OracleError, match="associator"):
        oracles.check_symbolic(scale_level(star, 1, 2), random.Random(0))
    bad = copy.deepcopy(star)
    bad["levels"][2]["terms"][0]["coeff"][0]["factors"].append("phi_1")
    with pytest.raises(oracles.OracleError, match="jet factors"):
        oracles.check_grading(bad)


def test_gauge_oracle(main, tmp_path):
    star = build(main, tmp_path, "--phi", "sym", "--order", "2", "--opo-restrict")
    oracles.check_gauges(star, "opo", [2])
    star["gauges"]["2"] = "pivot"
    with pytest.raises(oracles.OracleError, match="gauge"):
        oracles.check_gauges(star, "opo", [2])


def test_explicit_oracles(main, tmp_path):
    star = build(main, tmp_path, "--phi", "x3", "--order", "4")
    oracles.check_parity(star)
    oracles.check_bracket(star, "x3", None)
    oracles.check_weyl(star)
    with pytest.raises(oracles.OracleError, match="parity"):
        oracles.check_parity(mutant(star, random.Random(2), level=1))
    with pytest.raises(oracles.OracleError, match="Poisson"):
        oracles.check_bracket(scale_level(star, 1, 2), "x3", None)
    with pytest.raises(oracles.OracleError, match="Weyl"):
        oracles.check_weyl(scale_level(star, 3, 2))
    # d_11 x d_11 is symmetric but not a cocycle; d_1 x d_1 is both
    assert oracles.is_cocycle({((1,), (1,)): Fraction(1)})
    broken = copy.deepcopy(star)
    broken["levels"][4]["terms"].append(
        {"coeff": [{"coeff": "1", "factors": []}], "slots": [[1, 1], [1, 1]]})
    with pytest.raises(oracles.OracleError, match="cocycle"):
        oracles.check_weyl(broken)


def test_conformal_bracket(main, tmp_path):
    star = build(main, tmp_path, "--mode", "psi-nabla-phi", "--phi", "x1*x2*x3",
                 "--psi", "1+x1", "--order", "1")
    oracles.check_bracket(star, "x1*x2*x3", "1+x1")
    with pytest.raises(oracles.OracleError, match="stored psi"):
        oracles.check_bracket(star, "x1*x2*x3", "1+x2")
    star["psi"] = "1+x2"
    with pytest.raises(oracles.OracleError, match="stored psi"):
        oracles.check_bracket(star, "x1*x2*x3", "1+x1")


def test_bracket_uses_the_arguments_not_the_stored_potential(main, tmp_path):
    # a product that agrees with its own stored phi, built from another potential
    star = build(main, tmp_path, "--phi", "x1*x2", "--order", "1")
    oracles.check_bracket(star, "x1*x2", None)
    with pytest.raises(oracles.OracleError, match="stored phi"):
        oracles.check_bracket(star, "x1*x2*x3", None)
    # the stored text names the argument, but the levels are another potential's
    star["phi"] = "x1*x2*x3"
    with pytest.raises(oracles.OracleError, match="Poisson"):
        oracles.check_bracket(star, "x1*x2*x3", None)


def test_rejected_product_fails_its_constructs():
    products = run.WORKLOADS["explicit-potentials"]
    star = scale_level(weyl_star(order=4), 1, 2)
    texts = {p.name: json.dumps(star) for p in products}
    results = run.check_products(products, texts, seed=0)
    assert all(error for error in results.values())
    ops = [run.Op("construct", p.name, 0, 1.0, 1.0, 1.0, True) for p in products]
    assert run.fail_rejected(ops, results) == {p.name for p in products}
    assert not any(op.ok for op in ops)


def test_mutant_and_malformed_classification(main, tmp_path):
    products = [run.Product("linear", ["--phi", "x3", "--order", "2"], "explicit")]
    ctx = run.Context(main=main, work=tmp_path, products=products)
    for name, text in malformed_files():
        path = tmp_path / f"malformed-{name}.json"
        path.write_text(text)
        ctx.malformed.append(path)
    ops = run.Round(ctx, rng_seed=3, clock=Speedometer(sampling=False)).run()
    by_label = {op.label: op for op in ops}
    assert by_label["linear"].ok and by_label["linear"].phase == "verify"
    for label in ("mutant-linear-1", "mutant-linear-2"):
        assert by_label[label].ok and by_label[label].rc == 3
    malformed = [op for op in ops if op.label.startswith("malformed-")]
    assert len(malformed) == 9
    for op in malformed:
        assert op.phase == "load" and op.rc != 0
        assert op.ok == (op.rc == 2)


def test_witness_check_refuses_a_passing_verify(main, tmp_path):
    build(main, tmp_path, "--phi", "x3", "--order", "2")
    rc, out, _ = run.call(main, ["verify", str(tmp_path / "star.json"), "--emit", "json"])
    assert rc == 0
    assert run._passes(out) == (True, "")
    assert run._witnessed(out)[0] is False
