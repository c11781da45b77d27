import argparse
import json
import os
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from starq.cli import (MAX_K, MAX_ORDER, MAX_SYMBOLIC_ORDER, _build_parser, main,
                       write_json)
from starq.cochains import X_RING, epsilon_cochain
from starq.latex import star_latex
from starq.polynomials import parse_poly
from starq.star import GradingError, ObstructionError, ObstructionReport, StarProduct


def test_construct_writes_star_file(tmp_path, capsys):
    out = tmp_path / "star.json"
    rc = main(["construct", "--phi", "x1*x2*x3", "--order", "3",
               "--out", str(out)])
    assert rc == 0
    star = StarProduct.from_json(json.loads(out.read_text()))
    assert star.order == 3
    assert star.phi == parse_poly("x1*x2*x3")


def test_construct_rejects_zero_order(capsys):
    assert main(["construct", "--order", "0"]) == 2
    assert "order" in capsys.readouterr().err


def test_construct_rejects_bad_expression(capsys):
    assert main(["construct", "--phi", "x9+", "--order", "2"]) == 2
    assert main(["construct", "--phi", "", "--order", "2"]) == 2


def test_construct_rejects_huge_exponent_at_once(capsys):
    assert main(["construct", "--phi", "(x1+x2+x3)^500", "--order", "2"]) == 2
    assert "degree" in capsys.readouterr().err


def test_construct_psi_requires_conformal_mode(capsys):
    assert main(["construct", "--phi", "x3", "--psi", "x1", "--order", "2"]) == 2
    assert main(["construct", "--phi", "sym", "--psi", "sym", "--order", "2"]) == 2


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
    assert main(["jacobi", "--psi", "x1"]) == 2
    assert "explicit --phi" in capsys.readouterr().err
    # potentials beside a vector would be ignored, so they are refused
    for extra in (["--psi", "x1"], ["--phi", "x1"], ["--phi", "sym"]):
        assert main(["jacobi", "--P", "x1,x2,x3", *extra]) == 2
        assert "--P takes no --phi or --psi" in capsys.readouterr().err


def test_obstruction_symbolic_parity(capsys):
    rc = main(["obstruction", "--phi", "sym", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "parity" in out


def test_obstruction_level_validation(capsys):
    assert main(["obstruction", "--phi", "sym", "--k", "1"]) == 2


def test_obstruction_offers_text_and_json_only():
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", "--phi", "sym", "--k", "2", "--emit", "latex"])
    assert exc.value.code == 2


def test_jet_cap_is_not_an_option():
    # jets are exact and never truncated, so there is no cap to set
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--order", "3", "--jet-cap", "5"])
    assert exc.value.code == 2


def _readme_command_spans(commands) -> list[str]:
    """Backticked spans of the README, fenced lines included, that show a
    command line or an option."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fenced = re.findall(r"```(.*?)```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    spans += [line.strip() for block in fenced for line in block.splitlines()]
    return [s for s in spans if s.split()
            and (s.startswith(("--", "starq ")) or s.split()[0] in commands)]


def test_readme_names_only_existing_options():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = set(parser._option_string_actions)
    for command in sub.choices.values():
        options.update(command._option_string_actions)
    named = {flag for span in _readme_command_spans(set(sub.choices))
             for flag in re.findall(r"(?<![\w-])--[\w-]+", span)}
    assert "--order" in named  # the README's option spans were found at all
    assert named <= options, f"README names unknown options {sorted(named - options)}"


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
    # every argument up to the largest must be written, so the arity of a
    # term is bounded by the length of its text
    for term in ("P(i,j) @1(i) @200000(j)", "P(i,j) @1(i) @3(j)"):
        assert main(["opo-check", term]) == 2
        assert capsys.readouterr().out == ""


def test_opo_check_bounds_the_factor_count(capsys):
    def term(n):
        return (" ".join(f"P(i{u},j{u})" for u in range(n))
                + " @1(" + ",".join(f"i{u}" for u in range(n)) + ")"
                + " @2(" + ",".join(f"j{u}" for u in range(n)) + ")")

    assert main(["opo-check", term(7)]) == 0
    assert capsys.readouterr().out.startswith("OPO")
    for n in (8, 9):  # term_to_text has names for seven factors only
        assert main(["opo-check", term(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 7 Poisson factors" in captured.err


@pytest.mark.slow
def test_explicit_restricted_build_reports_its_obstructed_family(capsys):
    # the explicit and the family obstructions are both nonzero at level 4;
    # the family's is the one reported
    def construct(phi, psi):
        assert main(["construct", "--mode", "psi-nabla-phi", "--phi", phi, "--psi", psi,
                     "--order", "4", "--opo-restrict"]) == 3
        return json.loads(capsys.readouterr().out)

    expected = construct("sym", "sym")
    assert construct("x1*x2*x3+x2^2", "1+x1*x2*x3+x3^3") == expected
    assert expected["status"] == "obstructed" and expected["report"]["level"] == 4


def _raising(report):
    def build(*args, **kwargs):
        raise ObstructionError(report)
    return build


def _finding(argv, to_file, tmp_path, capsys) -> tuple[str, str]:
    """The status JSON text of a construct that exits 3, from --out or from
    stdout (which then holds it and nothing else), and its stderr."""
    out = tmp_path / "status.json"
    assert main(["construct", *argv] + (["--out", str(out)] if to_file else [])) == 3
    captured = capsys.readouterr()
    if not to_file:
        return captured.out, captured.err
    assert captured.out == ""
    return out.read_text() + "\n", captured.err


@pytest.mark.parametrize("to_file", [False, True])
def test_construct_reports_an_obstructed_build(to_file, pivot_gauge_obstruction, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.setattr("starq.cli.build_star", _raising(pivot_gauge_obstruction))
    text, err = _finding(["--phi", "sym", "--order", "4"], to_file, tmp_path, capsys)
    payload = {"status": "obstructed", "report": pivot_gauge_obstruction.to_json()}
    assert text == json.dumps(payload, indent=2) + "\n"
    assert err == "nonzero obstruction at level 4\n"


@pytest.mark.parametrize("to_file", [False, True])
def test_construct_reports_an_infeasible_restricted_build(to_file, tmp_path, monkeypatch,
                                                          capsys):
    # with no orderable columns the span cannot reach the level-2 right-hand side
    monkeypatch.setattr("starq.star.opo_projections", lambda k, mode: [])
    text, err = _finding(["--phi", "sym", "--order", "2", "--opo-restrict"], to_file,
                         tmp_path, capsys)
    detail = "level 2: orderable-diagram span cannot cobound the recursion right-hand side"
    assert json.loads(text) == {"status": "infeasible", "detail": detail}
    assert err == detail + "\n"


def test_obstruction_names_the_level_that_blocks_the_build(pivot_gauge_obstruction,
                                                           monkeypatch, capsys):
    monkeypatch.setattr("starq.cli.build_star", _raising(pivot_gauge_obstruction))
    assert main(["obstruction", "--phi", "sym", "--k", "5"]) == 3
    assert capsys.readouterr().out == "level 4: NONZERO\n"


def test_text_output_serializes_nothing(monkeypatch, capsys):
    def unused(self):
        raise AssertionError("rendered a JSON document that nothing writes")

    monkeypatch.setattr(StarProduct, "to_json", unused)
    monkeypatch.setattr(ObstructionReport, "to_json", unused)
    assert main(["construct", "--phi", "x3", "--order", "2"]) == 0
    assert main(["construct", "--phi", "x3", "--order", "2", "--emit", "latex"]) == 0
    assert main(["obstruction", "--phi", "x3", "--k", "3"]) == 0


@pytest.mark.parametrize("argv", [["construct", "--phi", "sym", "--order", "3"],
                                  ["obstruction", "--phi", "sym", "--k", "4"]])
def test_grading_violation_exits_four(argv, monkeypatch, capsys):
    def violating(*args, **kwargs):
        raise GradingError("level 3: 2 phi jets in a term, expected 3")

    monkeypatch.setattr("starq.cli.build_star", violating)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grading violation: level 3")


def test_symbolic_conformal_obstruction_needs_a_symbolic_psi(capsys):
    assert main(["obstruction", "--mode", "psi-nabla-phi", "--phi", "sym", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "phi and psi must both be symbolic or both explicit" in captured.err


@pytest.mark.parametrize("term, message", [
    pytest.param("P(i,j) @1(i,j) @2()", "term vanishes identically by antisymmetry",
                 id="vanishes"),
    pytest.param("P(i) @1(i) @2()", "factor needs exactly two upper names", id="one-upper"),
    pytest.param("P(i,j)", "term has no arguments", id="no-arguments"),
    pytest.param("dP(i;j,k) dP(i;l,m) @1(j,l) @2(k,m)", "lower name 'i' used twice",
                 id="lower-twice-factors"),
    pytest.param("P(i,j) @1(i) @2(i)", "lower name 'i' used twice", id="lower-twice-args"),
    pytest.param("dP(i;j,k) @1(i,j) @2(k)", "lower name 'i' used twice",
                 id="lower-twice-factor-and-arg"),
    pytest.param("P(i,j) @1(i,k) @2(j)", "lower names never contracted: ['k']",
                 id="never-contracted"),
])
def test_vanishing_term_is_a_parse_error(term, message, capsys):
    assert main(["opo-check", term]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


@pytest.mark.parametrize("emit", ["text", "json"])
def test_verify_reports_jets_past_the_longest_stored_index(emit, tmp_path, capsys):
    # the stored jet loads; the residuals differentiate it one digit further
    star = tmp_path / "star.json"
    assert main(["construct", "--phi", "sym", "--order", "2", "--out", str(star)]) == 0
    data = json.loads(star.read_text())
    data["levels"][1]["terms"][0]["coeff"][0]["factors"] = ["phi_" + "1" * (2 * MAX_ORDER)]
    star.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(star), "--emit", emit]) == 3
    out = capsys.readouterr().out
    if emit == "text":
        assert "FAIL residual-2" in out
    else:
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert not checks["residual-2"]["pass"]
        assert re.search(rf"phi_\d{{{2 * MAX_ORDER + 1}}}\b", checks["residual-2"]["residual"])


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


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_out_files_follow_the_umask(umask, tmp_path, capsys):
    star, report, tex = (tmp_path / name for name in ("star.json", "report.json", "star.tex"))
    old = os.umask(umask)
    try:
        assert main(["construct", "--phi", "x3", "--order", "1", "--out", str(star)]) == 0
        assert main(["verify", str(star), "--emit", "json", "--out", str(report)]) == 0
        assert main(["export-latex", str(star), "--out", str(tex)]) == 0
    finally:
        os.umask(old)
    for path in (star, report, tex):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_export_latex_prints_without_out(weyl_text, tmp_path, capsys):
    star = tmp_path / "star.json"
    star.write_text(weyl_text)
    assert main(["export-latex", str(star)]) == 0
    captured = capsys.readouterr()
    assert captured.out == star_latex(StarProduct.from_json(json.loads(weyl_text))) + "\n"
    assert captured.err == ""


def test_emit_json_construct(capsys):
    rc = main(["construct", "--phi", "x3", "--order", "1", "--emit", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 1


def test_emit_json_prints_one_document(tmp_path, capsys):
    star = str(tmp_path / "star.json")
    assert main(["construct", "--phi", "x3", "--order", "2", "--out", star]) == 0
    capsys.readouterr()
    assert main(["verify", star, "--emit", "json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is True
    assert err == "verified\n"
    assert main(["obstruction", "--phi", "x3", "--k", "3", "--emit", "json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["level"] == 3
    assert err == "level 3: zero (parity)\n"


# strings with quotes, backslashes, control, non-ASCII and surrogate characters
_JSON_STRINGS = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€\U0001f600\ud800a ')
                        | st.characters(exclude_categories=()), max_size=8)
# the values starq writes: dicts with str keys, lists, str, int, bool and None
_JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCUMENTS)
def test_json_renderer_writes_the_stdlib_indent_2_text(doc):
    chunks = []
    write_json(doc, chunks.append)
    assert "".join(chunks) == json.dumps(doc, indent=2)


def test_json_renderer_refuses_what_starq_does_not_write():
    for value in (0.5, (1, 2), {1: "one"}):
        with pytest.raises(TypeError):
            write_json({"value": value}, [].append)


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


@pytest.mark.parametrize("argv", [["construct", "--phi", "x3", "--order", "1"],
                                  ["verify", "{star}"]])
def test_empty_out_is_rejected_before_any_work(argv, weyl_text, tmp_path, monkeypatch,
                                              capsys):
    star = tmp_path / "star.json"
    star.write_text(weyl_text)
    monkeypatch.setattr("starq.cli.build_star", _no_build)
    monkeypatch.setattr("starq.cli.verify_star", _no_build)
    assert main([a.format(star=star) for a in argv] + ["--out", ""]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and captured.out == ""


def test_failed_write_exits_two(tmp_path, capsys):
    # the output path is an existing directory, so replacing it fails
    assert main(["construct", "--phi", "x3", "--order", "1", "--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["construct", "--order", str(MAX_ORDER + 1)], "order"),
    (["obstruction", "--k", str(MAX_K + 1)], "obstruction level"),
])
def test_resource_bounds_are_rejected_before_any_work(argv, what, monkeypatch, capsys):
    # only the rejection is exercised; nothing is computed at or near a cap
    monkeypatch.setattr("starq.cli.build_star", _no_build)
    monkeypatch.setattr("starq.cli.verify_star", _no_build)
    assert main(argv) == 2
    assert what in capsys.readouterr().err


def test_verify_takes_no_degree(monkeypatch, capsys):
    # the associator scan always runs to the product's order; the option is
    # refused before the file is even opened
    monkeypatch.setattr("starq.cli._load_star", _no_build)
    monkeypatch.setattr("starq.cli.verify_star", _no_build)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "star.json", "--degree", "3"])
    assert exc.value.code == 2
    assert "--degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["construct", "--phi", "sym", "--order", "7"], "order"),
    (["construct", "--mode", "psi-nabla-phi", "--phi", "sym", "--psi", "sym",
      "--order", str(MAX_SYMBOLIC_ORDER + 1)], "order"),
    (["obstruction", "--phi", "sym", "--k", "9"], "obstruction level"),
    # a restricted explicit build builds its symbolic family to the full order
    (["construct", "--phi", "x3", "--order", "6", "--opo-restrict"], "order"),
])
def test_symbolic_orders_are_bounded_before_any_work(argv, what, capsys):
    # nothing is stubbed: the real command must refuse at once
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert f"{what} must be at most {MAX_SYMBOLIC_ORDER} where" in capsys.readouterr().err


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


def _order_12(data) -> None:
    # zero levels up to order 12: the scan would run up to total degree 12
    data["levels"] += [dict(data["levels"][2], terms=[]) for _ in range(12 - data["order"])]
    data["order"] = 12


# one slot with multiplicities (60, 60, 60): the coboundary splits it in
# about 60^3 ways
_SLOT_180 = [1] * 60 + [2] * 60 + [3] * 60


def _forged_level_2(data) -> None:
    # a nonzero level-2 obstruction, 5 times the determinant operator, whose
    # flags and witnesses all follow from it
    data["obstructionReports"][0] = ObstructionReport(
        2, epsilon_cochain(X_RING).scale(5), parse_poly("5")).to_json()


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
    "exponent-coefficient": _edit(lambda d: _first_coeff(d).update(coeff="1e999999")),
    "decimal-coefficient": _edit(lambda d: _first_coeff(d).update(coeff="0.5")),
    "report-level-text": _edit(lambda d: d["obstructionReports"][0].update(level="two")),
    "report-level-99": _edit(lambda d: d["obstructionReports"][0].update(level=99)),
    "report-arity-2": _edit(lambda d: d["obstructionReports"][0]["alternating"].update(arity=2)),
    "report-jet-ring": _edit(lambda d: d["obstructionReports"][0]["alternating"].update(ring="jet")),
    "report-is-zero-text": _edit(lambda d: d["obstructionReports"][0].update(isZero="no")),
    "report-shortcut-agrees-text": _edit(
        lambda d: d["obstructionReports"][0].update(shortcutAgrees="yes")),
    # a report whose flags or witness contradict its alternating part
    "report-is-zero-flipped": _edit(lambda d: d["obstructionReports"][0].update(isZero=False)),
    "report-parity-path-flipped": _edit(
        lambda d: d["obstructionReports"][0].update(parityPath=True)),
    "report-witness-5x1": _edit(lambda d: d["obstructionReports"][0].update(
        coordinateWitness=[{"coeff": "5", "factors": ["x1"]}])),
    "report-alternating-not-alternating": _edit(
        lambda d: d["obstructionReports"][0]["alternating"]["terms"].append(
            {"coeff": [{"coeff": "1", "factors": []}], "slots": [[1], [1], [2]]})),
    "gauge-level-99": _edit(lambda d: d["gauges"].update({"99": "opo"})),
    "gauge-name-unknown": _edit(lambda d: d["gauges"].update({"2": "banana"})),
    # a gauge no build records: each level has exactly one, "base" at levels
    # 0 and 1, then "opo" or the solver's "unique" (odd) or "pivot" (even)
    "gauges-missing": _edit(lambda d: d.pop("gauges")),
    "gauges-empty": _edit(lambda d: d.update(gauges={})),
    "gauge-level-0-opo": _edit(lambda d: d["gauges"].update({"0": "opo"})),
    "gauge-level-1-pivot": _edit(lambda d: d["gauges"].update({"1": "pivot"})),
    "gauge-level-2-unique": _edit(lambda d: d["gauges"].update({"2": "unique"})),
    "conformal-mode-without-psi": _edit(lambda d: d.update(mode="psi-nabla-phi")),
    "psi-in-gradient-mode": _edit(lambda d: d.update(psi="x1")),
    "symbolic-phi-in-x-ring": _edit(lambda d: d.update(phi="sym")),
    "order-12": _edit(_order_12),
    "slot-total-180": _edit(lambda d: d["levels"][2]["terms"][0].update(slots=[_SLOT_180, [1]])),
    "report-slot-total-180": _edit(
        lambda d: d["obstructionReports"][0]["alternating"]["terms"].append(
            {"coeff": [{"coeff": "1", "factors": []}], "slots": [_SLOT_180, [1], [2]]})),
    # every level stands on a zero obstruction, so exactly those reports are stored
    "report-forged-nonzero": _edit(_forged_level_2),
    "reports-missing": _edit(lambda d: d.pop("obstructionReports")),
    "report-level-3-missing": _edit(lambda d: d["obstructionReports"].pop(1)),
    "reports-swapped": _edit(lambda d: d["obstructionReports"].reverse()),
    "report-duplicated": _edit(
        lambda d: d["obstructionReports"].insert(1, d["obstructionReports"][0])),
    "phi-number": _edit(lambda d: d.update(phi=3)),
    "psi-list": _edit(lambda d: d.update(psi=["x1"])),
}

# the reason given for a malformed file, where it is pinned
REASONS = {
    "missing-mode": "missing field 'mode'",
    "reports-missing": "missing field 'obstructionReports'",
    "report-forged-nonzero": "obstructionReports must be the zero report of each level 2..3",
    "phi-number": "phi and psi must be expression strings",
    "psi-list": "phi and psi must be expression strings",
    "gauge-level-2-unique": "level 2 has gauge 'unique', not one of ('opo', 'pivot')",
}


@pytest.fixture(scope="module")
def weyl_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("weyl") / "star.json"
    assert main(["construct", "--phi", "x3", "--order", "3", "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_rejects_malformed_star_files(name, weyl_text, tmp_path, capsys):
    bad = tmp_path / f"{name}.json"
    bad.write_text(MALFORMED[name](weyl_text))
    assert main(["verify", str(bad)]) == 2
    reason = REASONS.get(name, "")
    assert f"cannot load star product from {bad}: {reason}" in capsys.readouterr().err


def _coefficient_2_4(data) -> None:
    # level 1's first coefficient is 1/2 or -1/2
    first = _first_coeff(data)
    first["coeff"] = first["coeff"].replace("1/2", "2/4")


# a stored product spelled otherwise than construct writes it
RESPELLED = {
    "phi-trailing-space": lambda d: d.update(phi="x3 "),
    "phi-unit-factor": lambda d: d.update(phi="1*x3"),
    "coefficient-2/4": _coefficient_2_4,
}


@pytest.mark.parametrize("name", sorted(RESPELLED))
def test_respelled_product_loads_in_canonical_form(name, weyl_text, tmp_path, capsys):
    """Potentials and coefficients are read into canonical form, so a
    respelled product re-serializes to construct's bytes and its digest."""
    path = tmp_path / "star.json"
    path.write_text(weyl_text)
    assert main(["verify", str(path), "--emit", "json"]) == 0
    digest = json.loads(capsys.readouterr().out)["inputsDigest"]
    data = json.loads(weyl_text)
    RESPELLED[name](data)
    path.write_text(json.dumps(data, indent=2))
    assert path.read_text() != weyl_text
    assert json.dumps(StarProduct.from_json(data).to_json(), indent=2) == weyl_text
    assert main(["verify", str(path), "--emit", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputsDigest"] == digest


def test_verify_rejects_reports_without_shortcut(weyl_text, tmp_path, capsys):
    """A build always computes the shortcut witness, so a report stored
    without one is refused, whether or not it claims that the shortcut agrees."""
    data = json.loads(weyl_text)
    path = tmp_path / "star.json"
    for agrees in (None, True):
        data["obstructionReports"][0].update(shortcutWitness=None, shortcutAgrees=agrees)
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        assert "must be the zero report" in capsys.readouterr().err


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


# The error line of a star file with one bad factor name in its first level-1
# coefficient: a jet name in the symbolic product, a coordinate in the Weyl one.
BAD_FACTORS = [
    ("jet", 5, "malformed jet variable 5"),
    ("jet", None, "malformed jet variable None"),
    ("jet", ["phi_1"], "malformed jet variable ['phi_1']"),
    ("jet", {"phi_1": 1}, "malformed jet variable {'phi_1': 1}"),
    ("jet", "phi_", "phi jets carry at least one derivative"),
    ("jet", "phi_4", "coordinate label out of range: 4"),
    ("jet", "chi_1", "unknown potential tag 'chi'"),
    ("jet", "phi1", "malformed jet variable 'phi1'"),
    ("jet", True, "malformed jet variable True"),
    ("x", "x4", "unknown coordinate factor 'x4'"),
    ("x", "X1", "unknown coordinate factor 'X1'"),
    ("x", "x1 ", "unknown coordinate factor 'x1 '"),
    ("x", 1, "expected string or bytes-like object, got 'int'"),
    ("x", ["x1"], "expected string or bytes-like object, got 'list'"),
    ("x", None, "expected string or bytes-like object, got 'NoneType'"),
    # an index longer than any product of order MAX_ORDER carries is rejected
    # before it is coded, so a long name costs no big-integer arithmetic
    ("jet", "phi_" + "1" * 17, "jet index of 17 digits, above 16"),
]


@pytest.fixture(scope="module")
def ring_texts(weyl_text, sym_star3):
    return {"x": weyl_text, "jet": json.dumps(sym_star3.to_json())}


@pytest.mark.parametrize("ring, name, message", BAD_FACTORS)
def test_verify_names_a_bad_factor(ring, name, message, ring_texts, tmp_path, capsys):
    data = json.loads(ring_texts[ring])
    _first_coeff(data)["factors"] = [name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: cannot load star product from {bad}: {message}\n"
