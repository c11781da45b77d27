import json

import pytest

from starq.cochains import Cochain, JET_RING
from starq.jets import NABLA_PHI, PSI_NABLA_PHI
from starq.opo import concretize, term_to_text
from starq.star import InfeasibleError, build_star

import records
from helpers import non_orderable_example, pivot_gauge_star
from records import NO_LIFT, NON_OPO_LIFT, OPO_LIFT, SKIPPED, _solvable, audit_level, opo_audit


def test_audit_of_orderable_gauge_star(sym_star3):
    report = opo_audit(sym_star3)
    assert report["allOrderable"]
    statuses = {audit["level"]: audit["status"] for audit in report["levels"]}
    assert statuses == {0: OPO_LIFT, 1: OPO_LIFT, 2: OPO_LIFT, 3: OPO_LIFT}
    # the audit names the diagrams used by each lift
    level3 = next(a for a in report["levels"] if a["level"] == 3)
    assert level3["combination"] and level3["diagrams"]


def test_audit_detects_non_orderable_gauge():
    pivot = pivot_gauge_star(2)
    assert pivot.gauges[2] == "pivot"
    report = opo_audit(pivot)
    level2 = next(a for a in report["levels"] if a["level"] == 2)
    assert level2["status"] == NO_LIFT
    assert not report["allOrderable"]


def test_audit_concretizes_each_diagram_once(monkeypatch):
    # the pivot gauge has no orderable lift at levels 2 and 3, so the audit
    # also searches the full span there
    star = pivot_gauge_star(3)
    seen = []
    concretize = records.concretize

    def counted(term, mode):
        seen.append(term.key())
        return concretize(term, mode)

    monkeypatch.setattr(records, "concretize", counted)
    report = opo_audit(star)
    assert [a["status"] for a in report["levels"]] == [OPO_LIFT, OPO_LIFT, NO_LIFT, NO_LIFT]
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("mode", [NABLA_PHI, PSI_NABLA_PHI])
def test_audit_lifts_a_non_orderable_diagram_over_the_full_span(mode):
    # the orderable span misses the diagram, so the second pass finds it
    # itself: diagram 8 of the two-factor enumeration, with coefficient 1
    diagram = non_orderable_example()
    audit = audit_level(concretize(diagram, mode), 2, mode)
    assert audit["status"] == NON_OPO_LIFT
    assert audit["nonOrderableUsed"] == [8]
    assert audit["combination"] == {"8": "1"}
    assert audit["diagrams"] == {"8": term_to_text(diagram)}


def test_audit_skips_heavy_levels(x3_star4=None):
    star = build_star(NABLA_PHI, 2)
    report = opo_audit(star, max_factors=1)
    statuses = {a["level"]: a["status"] for a in report["levels"]}
    assert statuses[2] == SKIPPED
    assert report["allOrderable"]  # skip is not a failure


def test_audit_report_serializes(sym_star3):
    data = opo_audit(sym_star3)
    blob = json.dumps(data)
    assert data["allOrderable"] is True
    assert len(data["levels"]) == 4
    assert blob  # fully JSON-serializable


def _stub_solve(feasible: bool):
    def solve(rhs, k):
        if not feasible:
            raise InfeasibleError(f"level {k}: no ansatz combination")
        return Cochain(2, JET_RING)
    return solve


def test_infeasible_unrestricted_solve_is_recorded_not_raised(monkeypatch):
    rhs = Cochain(3, JET_RING)
    monkeypatch.setattr(records, "solve_level", _stub_solve(True))
    assert _solvable(rhs, 3) is True
    monkeypatch.setattr(records, "solve_level", _stub_solve(False))
    assert _solvable(rhs, 3) is False
