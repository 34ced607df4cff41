"""Cross-cutting grading invariants over all six named gradings, and the
pinned report."""

import hashlib
import json

from e6grad import gradings as gr
from e6grad import verify
from e6grad.gradings import GRADING_MODEL, NAMED_GRADINGS
from oracles import is_refinement


def test_all_named_gradings_sum_to_78(ws):
    for name in NAMED_GRADINGS:
        gd = ws.grading(name)
        assert sum(s.dim for _, s in gd.components) == 78, name


def test_isotropy_of_high_order_components(ws):
    for name in NAMED_GRADINGS:
        gd = ws.grading(name)
        k = ws.model(GRADING_MODEL[name]).killing()
        assert gr.isotropic_components_check(gd, k).ok, name


def test_killing_orthogonality_across_components(ws):
    for name in ("gamma3", "gamma12", "gamma13"):
        gd = ws.grading(name)
        k = ws.model(GRADING_MODEL[name]).killing()
        assert gr.killing_orthogonality_check(gd, k).ok, name


def test_supports_generate_their_groups(ws):
    for name in NAMED_GRADINGS:
        gd = ws.grading(name)
        assert gr.support_generates(gd), name


def test_gamma7_refines_the_albert_parity(ws):
    from e6grad.abgroup import FgAbelianGroup
    albert = ws.model("albert")
    parity = albert.meta["parity"]
    z2 = gr.GradedDecomposition.from_degree_map(
        albert.table, FgAbelianGroup(0, (2,)), [(p,) for p in parity])
    assert is_refinement(ws.grading("gamma7"), z2)


def test_universal_groups_computed_once_per_workspace(ws, monkeypatch):
    """Criterion 6 and the Table 1 summary share one group per grading.

    Only those two call ``universal_group``, so ``run_all`` runs criteria 6
    and 7 here; the workspace reuses the session's models and gradings.
    """
    calls = []
    real = verify.universal_group

    def counted(gd):
        calls.append(gd.name)
        return real(gd)

    monkeypatch.setattr(verify, "universal_group", counted)
    monkeypatch.setattr(verify, "CRITERIA", [
        c for c in verify.CRITERIA if c[0] in ("6 gradings", "7 intervals")])
    fresh = verify.Workspace()
    fresh._models = ws._models
    fresh._gradings = {name: ws.grading(name) for name in NAMED_GRADINGS}
    report = verify.run_all(fresh)
    assert sorted(calls) == sorted(NAMED_GRADINGS)
    assert [row["grading"] for row in report["table1"]] == list(NAMED_GRADINGS)


# SHA-256 of json.dumps(run_all(ws), sort_keys=True): the byte-for-byte
# oracle that a refactor must leave unchanged.
RUN_ALL_FULL_SHA256 = \
    "9182b81c22360d68dab64e7e9b35ce3072d1c03ecb32c70dbae93f1a7862ea14"


def test_full_report_is_pinned(ws):
    report = verify.run_all(ws)
    assert sum(len(g["checks"]) for g in report["groups"]) == 86
    doc = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == RUN_ALL_FULL_SHA256


def test_a_red_grading_check_keeps_its_reason(ws, monkeypatch):
    """A direct-sum failure has no witness pair; its note says why."""
    gd = ws.grading("gamma3")
    comps = [(d, list(sub.basis)) for d, sub in gd.components]
    comps[0][1][0] = comps[1][1][0]  # a vector of another component
    monkeypatch.setattr(verify, "NAMED_GRADINGS", ("gamma3",))
    fresh = verify.Workspace()
    fresh._gradings = {"gamma3": gr.GradedDecomposition(gd.table, gd.group,
                                                        comps)}
    fresh._groups = {"gamma3": ws.universal_group("gamma3")}
    check = verify.criterion_6_gradings(fresh)[0]
    assert check.to_json() == {
        "name": "gamma3: grading compatibility", "ok": False,
        "measured": None, "expected": None,
        "note": "components are not independent"}
