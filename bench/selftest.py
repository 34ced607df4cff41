"""Self-test of the benchmark's own code.

    python3 bench/selftest.py [WORKLOAD ...]

Run from the root of a source checkout.  It checks, in order:
  * the self-time and coverage arithmetic on hand-made nested spans, and the
    spans a Tracer records around real nested calls;
  * the host-speed correction on hand-made probe samples, and that a Probe
    samples while it runs and restores the signal handler after;
  * that BENCHMARK.json names exactly the metrics run.py reports;
  * that a deliberately wrong reference value (a universal group on `grade`)
    makes the run report a mismatch and exit nonzero;
  * that every count of a traced pass repeats exactly across two passes
    with one seed and a pass with another seed, for each WORKLOAD given
    (default: algebras, the shortest).
Takes a few minutes; prints one line per check and exits nonzero on the
first failure.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def check(what: str, ok: bool) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        sys.exit(1)


def test_self_time_arithmetic():
    # a [0, 10] has children b [1, 4] and c [3, 6] (overlapping) and d, a
    # child of b, at [2, 3]; e [11, 12] is a second top-level span.
    sp = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0],
          ["d", 2.0, 3.0, 1], ["e", 11.0, 12.0, None]]
    got = spans.self_times(sp)
    check("self time = duration minus the union its children cover",
          all(math.isclose(g, w) for g, w in zip(got, [5, 2, 3, 1, 1])))
    check("top-level spans cover 11 of [0, 12] and 3 of [8, 12]",
          math.isclose(spans.coverage(sp, 0.0, 12.0), 11 / 12)
          and math.isclose(spans.coverage(sp, 8.0, 12.0), 3 / 4))
    check("a child reaching past its parent is clipped",
          math.isclose(spans.self_times(
              [["p", 0.0, 2.0, None], ["q", 1.0, 5.0, 0]])[0], 1.0))

    tracer = spans.Tracer("selftest")

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(traced_inner(x))

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    check("wrapped calls return their results", traced_outer(1) == 3)
    names = [(s[0], s[3]) for s in tracer.spans]
    check("nested calls record their parent",
          names == [("outer", None), ("inner", 0), ("inner", 0)])
    selfs = spans.self_times(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    check("self times of a call tree add up to its duration",
          math.isclose(sum(selfs), total, rel_tol=1e-9, abs_tol=1e-12))


def test_host_speed():
    ref = hostspeed.PROBE_REF_S
    # probes at half reference speed every second of [0, 10]
    slow = [(float(t), 2 * ref) for t in range(10)]
    check("a host at half speed halves the corrected time, probes excluded",
          math.isclose(hostspeed.corrected(slow, 0.0, 10.0),
                       (10.0 - 20 * ref) / 2))
    mixed = [(float(t), ref if t < 5 else ref / 2) for t in range(10)]
    check("the speed is the mean over the probes inside the interval",
          math.isclose(hostspeed.speed(mixed, 0.0, 10.0), 1.5)
          and math.isclose(hostspeed.speed(mixed, 5.0, 10.0), 2.0))
    check(f"an interval with fewer than {hostspeed.MIN_PROBES} probes uses "
          "the nearest ones",
          math.isclose(hostspeed.speed(mixed, 8.5, 8.6), 2.0)
          and math.isclose(hostspeed.busy(mixed, 8.5, 8.6), 0.1))

    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    with probe.running():
        end = time.perf_counter() + 20 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    check("a running Probe samples the host and restores the handler",
          len(probe.samples) >= 5 and signal.getsignal(signal.SIGALRM)
          is before and all(d > 0 for _, d in probe.samples))


def test_metric_names():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check("end_to_end metrics match run.END_TO_END",
          [(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END))
    check("per_layer metrics match run.PER_LAYER",
          [(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(name, unit) for name, unit, _ in run.PER_LAYER])
    import workloads
    check("workloads match workloads.WORKLOADS",
          [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


def run_main(argv, reference=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(argv, reference)
    return status, json.loads(out.getvalue().strip().splitlines()[-1])


def test_wrong_reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)
    wrong = copy.deepcopy(reference)
    wrong["grade"]["gamma3"]["universal_group"]["torsion"] = [2, 2, 2, 3, 3]
    status, result = run_main(["--workload", "grade", "--seed", "3",
                               "--seconds", "0", "--trace", "0"], wrong)
    check("a wrong universal group fails the run",
          status == 1 and result["correct"] is False
          and result["failed"] == 1 and result["attempted"] >= 1)


def traced_counts(name: str, seed: int) -> dict:
    import workloads
    tracer = spans.Tracer(f"selftest-{name}-{seed}")
    workload = workloads.WORKLOADS[name](run.ROOT, seed)
    _, start, end, outputs = run.run_pass(workload, seed, tracer,
                                          workloads.TRACE_TARGETS)
    metrics = run.layer_metrics(tracer, {
        "traced_wall": end - start, "overhead": 0.0,
        "coverage": 0.0, "spans": len(tracer.spans),
        "red": run.red_checks(outputs), "host_speed": 1.0}, 1.0)
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bytes")}


def test_counts_repeat(name: str):
    first = traced_counts(name, 1)
    check(f"{name}: the traced pass counts some work",
          any(v for k, v in first.items() if k != "bench.checks_red"))
    check(f"{name}: counts repeat exactly across two runs",
          traced_counts(name, 1) == first)
    check(f"{name}: counts repeat exactly across two seeds",
          traced_counts(name, 2) == first)


def main(argv):
    test_self_time_arithmetic()
    test_host_speed()
    test_metric_names()
    test_wrong_reference()
    for name in argv or ["algebras"]:
        test_counts_repeat(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
