"""The benchmark's calls into e6grad must keep working: the functions its
traced run wraps must exist, its direct calls must compose, and its work
counters must read the arguments those functions now take.  So renaming,
deleting or reshaping one fails here rather than in ``bench/run.py``."""

import importlib
import importlib.util
import random
from pathlib import Path

from e6grad import composition, gradings, verify
from e6grad.abgroup import FgAbelianGroup

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    workloads = _load("workloads")
    assert workloads.TRACE_TARGETS
    for _, where, _ in workloads.TRACE_TARGETS:
        modname, attr = where.split(":")
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), where


def test_killing_signature_composes_on_a_model_and_its_permutation(tits):
    workloads = _load("workloads")
    assert workloads.killing_signature(tits.table) == -14
    permuted = workloads.signed_permutation(tits.table, random.Random(1))
    assert permuted.prod != tits.table.prod
    assert workloads.killing_signature(permuted) == -14


def test_work_counters_read_the_traced_arguments():
    workloads, spans = _load("workloads"), _load("spans")
    tracer = spans.Tracer("test")
    gd = gradings.GradedDecomposition.from_degree_map(
        composition.octonion_table(), FgAbelianGroup(0, (2, 2, 2)),
        composition.octonion_degrees())
    with tracer.installed(workloads.TRACE_TARGETS):
        assert gradings.check_grading(gd).ok
        group = gradings.universal_group(gd)
    assert group == FgAbelianGroup(0, (2, 2, 2))
    names = {span[0] for span in tracer.spans}
    assert {"linalg.rref", "linalg.smith_normal_form",
            "abgroup.presented_group"} <= names
    counts = tracer.counts
    assert counts["linalg.rref_cells"] > 0
    assert counts["linalg.snf_cells"] > 0
    assert counts["abgroup.relations"] > 0


def test_the_jacobi_proof_and_the_leibniz_pass_are_timed_in_their_spans(tits):
    """The generating-set proof runs inside ``check_jacobi`` and the Leibniz
    assembly inside ``derivations``, so the spans the benchmark reads time
    them: one ``structalg.check_jacobi`` span per ``check_lie`` on a
    permuted model, and one ``structalg.derivations`` span, over the 64
    unknowns of Der(O), in criterion 1 (the builders span their derivation
    algebras by inner derivations and solve no Leibniz system)."""
    workloads, spans = _load("workloads"), _load("spans")
    permuted = workloads.signed_permutation(tits.table, random.Random(2))
    tracer = spans.Tracer("test")
    with tracer.installed(workloads.TRACE_TARGETS):
        assert permuted.check_lie().ok
        names = [span[0] for span in tracer.spans]
        assert names.count("structalg.check_jacobi") == 1
        verify.criterion_1_octonions(verify.Workspace())
    names = [span[0] for span in tracer.spans]
    assert names[0] == "structalg.check_jacobi"
    assert names.count("structalg.derivations") == 1
    assert tracer.counts["structalg.leibniz_unknowns"] == 64
