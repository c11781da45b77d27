import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from starq.cli import MAX_DEGREE, MAX_K, MAX_ORDER, JobConfig, main
from starq.polynomials import parse_poly
from starq.star import StarProduct


def test_construct_writes_star_file(tmp_path, capsys):
    out = tmp_path / "star.json"
    rc = main(["construct", "--phi", "x1*x2*x3", "--order", "3",
               "--out", str(out)])
    assert rc == 0
    star = StarProduct.from_json(json.loads(out.read_text()))
    assert star.order == 3
    assert star.phi_source == "x1*x2*x3"


def test_construct_rejects_zero_order(capsys):
    assert main(["construct", "--order", "0"]) == 2
    assert "order" in capsys.readouterr().err


def test_construct_rejects_small_jet_cap(capsys):
    assert main(["construct", "--order", "3", "--jet-cap", "3"]) == 2


def test_construct_rejects_bad_expression(capsys):
    assert main(["construct", "--phi", "x9+", "--order", "2"]) == 2


def test_construct_rejects_huge_exponent_at_once(capsys):
    assert main(["construct", "--phi", "(x1+x2+x3)^500", "--order", "2"]) == 2
    assert "degree" in capsys.readouterr().err


def test_construct_psi_requires_conformal_mode(capsys):
    assert main(["construct", "--phi", "x3", "--psi", "x1", "--order", "2"]) == 2


def test_jacobi_reference_cases(capsys):
    rc = main(["jacobi", "--P", "x3,x1,x2"])
    out = capsys.readouterr().out
    assert rc == 3
    assert parse_poly(out.split(":", 1)[1].strip()) == parse_poly("x1+x2+x3")

    rc = main(["jacobi", "--phi", "x1*x2*x3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("0")

    rc = main(["jacobi", "--phi", "x2", "--psi", "x1"])
    assert rc == 0


def test_jacobi_rejects_bad_vector(capsys):
    assert main(["jacobi", "--P", "x1,x2"]) == 2
    assert main(["jacobi", "--P", "x1,x2,sym"]) == 2
    assert main(["jacobi"]) == 2
    assert main(["jacobi", "--phi", "x1", "--psi", "sym"]) == 2
    assert "explicit --psi" in capsys.readouterr().err


def test_obstruction_symbolic_parity(capsys):
    rc = main(["obstruction", "--phi", "sym", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "parity" in out


def test_obstruction_level_validation(capsys):
    assert main(["obstruction", "--phi", "sym", "--k", "1"]) == 2


def test_obstruction_jet_cap_must_exceed_k(monkeypatch, capsys):
    # only the rejection is exercised: the build below level k never runs
    monkeypatch.setattr("starq.cli.build_star", _no_build)
    assert main(["obstruction", "--phi", "sym", "--k", "5", "--jet-cap", "2"]) == 2
    assert "obstruction level" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["obstruction", "--phi", "sym", "--k", "5", "--jet-cap", "7"],
    ["construct", "--phi", "sym", "--order", "4", "--jet-cap", "5"],
])
def test_jet_cap_must_cover_the_top_right_hand_side(argv, monkeypatch, capsys):
    # R_k reaches jet order 2k - 2 (R_5 of the symbolic levels reaches 8), so
    # a cap that only exceeds the level would stop the build at a grading check
    monkeypatch.setattr("starq.cli.build_star", _no_build)
    assert main(argv) == 2
    assert "jet truncation" in capsys.readouterr().err


def test_jet_cap_at_the_bound_passes_validation():
    JobConfig(command="obstruction", k=5, jet_cap=8).validate()
    JobConfig(command="construct", order=4, jet_cap=6).validate()


def test_obstruction_offers_text_and_json_only():
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", "--phi", "sym", "--k", "2", "--emit", "latex"])
    assert exc.value.code == 2


def test_opo_check_examples(capsys):
    rc = main(["opo-check", "dP(r;i,s) dP(s;j,r) @1(i) @2(j)"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "NOT OPO" in out

    rc = main(["opo-check", "P(i,j) @1(i) @2(j)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("OPO")

    assert main(["opo-check", "garbage(("]) == 2


def test_verify_roundtrip_and_mutation(tmp_path, capsys):
    out = tmp_path / "star.json"
    assert main(["construct", "--phi", "x1*x2*x3", "--order", "2",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()

    data = json.loads(out.read_text())
    # bump one serialized coefficient of the first level
    entry = data["levels"][1]["terms"][0]
    entry["coeff"][0]["coeff"] = "9/7"
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(data))
    rc = main(["verify", str(bad)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "witness" in captured.err or "witness" in captured.out


def test_verify_missing_and_corrupt_files(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


def test_verify_order_one_star_passes(tmp_path, capsys):
    out = tmp_path / "tiny.json"
    assert main(["construct", "--phi", "x3", "--order", "1",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_export_latex(tmp_path, capsys):
    out = tmp_path / "star.json"
    main(["construct", "--phi", "x3", "--order", "2", "--out", str(out)])
    tex = tmp_path / "star.tex"
    assert main(["export-latex", str(out), "--out", str(tex)]) == 0
    text = tex.read_text()
    assert text.startswith("%")
    assert "\\otimes" in text


def test_emit_json_construct(capsys):
    rc = main(["construct", "--phi", "x3", "--order", "1", "--emit", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 1


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "export-latex"])
def test_directory_as_star_file_exits_two(command, tmp_path, capsys):
    assert main([command, str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def _no_build(*args, **kwargs):
    raise AssertionError("the build ran although its arguments were rejected")


def test_missing_out_directory_is_rejected_before_the_build(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("starq.cli.build_star", _no_build)
    out = tmp_path / "missing" / "x.json"
    assert main(["construct", "--order", "1", "--out", str(out)]) == 2
    assert "output directory" in capsys.readouterr().err


def test_failed_write_exits_two(tmp_path, capsys):
    # the output path is an existing directory, so replacing it fails
    assert main(["construct", "--phi", "x3", "--order", "1", "--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["construct", "--order", str(MAX_ORDER + 1)], "order"),
    (["obstruction", "--k", str(MAX_K + 1)], "obstruction level"),
    (["verify", "star.json", "--degree", str(MAX_DEGREE + 1)], "degree"),
])
def test_resource_bounds_are_rejected_before_any_work(argv, what, monkeypatch, capsys):
    # only the rejection is exercised; nothing is computed at or near a cap
    monkeypatch.setattr("starq.cli.build_star", _no_build)
    monkeypatch.setattr("starq.cli.verify_star", _no_build)
    assert main(argv) == 2
    assert what in capsys.readouterr().err


def _truncate(text: str) -> str:
    return text[:200]


def _edit(fn):
    def apply(text: str) -> str:
        data = json.loads(text)
        fn(data)
        return json.dumps(data)
    return apply


def _first_coeff(data) -> dict:
    return data["levels"][1]["terms"][0]["coeff"][0]


MALFORMED = {
    "empty-levels": _edit(lambda d: d.update(levels=[])),
    "slot-label-7": _edit(lambda d: d["levels"][1]["terms"][0].update(slots=[[7], [2]])),
    "order-beyond-levels": _edit(lambda d: d.update(order=5)),
    "unparsable-phi": _edit(lambda d: d.update(phi="x1+*")),
    "zero-denominator": _edit(lambda d: _first_coeff(d).update(coeff="1/0")),
    "mixed-ring": _edit(lambda d: d["levels"][2].update(ring="jet")),
    "invalid-json": _truncate,
    "missing-mode": _edit(lambda d: d.pop("mode")),
    "factor-x9": _edit(lambda d: _first_coeff(d).update(factors=["x9"])),
    "deeply-nested": lambda text: "[" * 100000 + "]" * 100000,
    "float-arity": _edit(lambda d: d["levels"][1].update(arity=2.0)),
    "gauges-list": _edit(lambda d: d.update(gauges=[1])),
    "number-coefficient": _edit(lambda d: _first_coeff(d).update(coeff=0.5)),
    "report-level-text": _edit(lambda d: d["obstructionReports"][0].update(level="two")),
    "report-level-99": _edit(lambda d: d["obstructionReports"][0].update(level=99)),
    "report-arity-2": _edit(lambda d: d["obstructionReports"][0]["alternating"].update(arity=2)),
    "report-jet-ring": _edit(lambda d: d["obstructionReports"][0]["alternating"].update(ring="jet")),
    "report-is-zero-text": _edit(lambda d: d["obstructionReports"][0].update(isZero="no")),
}


@pytest.fixture(scope="module")
def weyl_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("weyl") / "star.json"
    assert main(["construct", "--phi", "x3", "--order", "2", "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_rejects_malformed_star_files(name, weyl_text, tmp_path, capsys):
    bad = tmp_path / f"{name}.json"
    bad.write_text(MALFORMED[name](weyl_text))
    assert main(["verify", str(bad)]) == 2
    assert "cannot load star product" in capsys.readouterr().err


def _json_paths(node, path=()):
    """Key paths from the root to every value of a JSON tree, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(-2, 2),
    st.sampled_from(["", "1/2", "x1", "phi_3", "sym", "jet"]),
    st.lists(st.integers(0, 3), max_size=2), st.just({}))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_survives_structural_mutations(data, weyl_text, tmp_path):
    """Dropped keys, values of another type and values nested in a list
    end in a documented exit status, never in a traceback."""
    star = json.loads(weyl_text)
    for _ in range(data.draw(st.integers(1, 3))):
        *head, key = data.draw(st.sampled_from(list(_json_paths(star))[1:]))
        parent = star
        for step in head:
            parent = parent[step]
        op = data.draw(st.sampled_from(("drop", "swap", "nest")))
        if op == "drop":
            del parent[key]
        elif op == "swap":
            parent[key] = data.draw(_JSON_VALUES)
        else:
            parent[key] = [parent[key]]
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(star))
    assert main(["verify", str(path)]) in (0, 2, 3)
