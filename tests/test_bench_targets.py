"""The functions the benchmark's traced run wraps must exist, so renaming or
deleting one fails here rather than in ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TRACE_TARGETS
    for _, where, _ in workloads.TRACE_TARGETS:
        modname, attr = where.split(":")
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), where
