"""Run one workload of the e6grad benchmark and print its result as JSON.

    python3 bench/run.py --workload {build,grade,algebras} --seed N
                         --seconds S --trace {0,1}

Run it from the root of a source checkout; e6grad is imported from ``src``.
A run repeats passes over the workload's items, each pass on fresh inputs.
It starts another pass only while the passes so far plus one more, as long as
the last, fit in S seconds; the first pass always runs, however long it is.
Every output is compared with ``bench/reference.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to standard error.

With ``--trace 0`` the metrics are the end-to-end ones:
  pass_s       median seconds of a timed pass, tracing off
  setup_s      median seconds for a fresh interpreter to start and import
               the workload's modules (seven of them, started in turn), plus
               the median seconds this run took to build a pass's inputs
  peak_rss_mb  ru_maxrss of this process
  checks       reference values compared in one pass
Both times are at reference host speed: ``hostspeed.Probe`` measures how
fast the shared host runs this process while it measures, and each timed
interval is scaled by it (the raw seconds go to standard error).
With ``--trace 1`` the run instead makes a single pass, set-up included,
with every function in ``workloads.TRACE_TARGETS`` wrapped in a span.  It
writes the spans to ``bench/out/`` and reports the per-layer metrics in
``PER_LAYER``, their times scaled by the host's speed over the pass.

The exit status is 0 when every output matches, 1 on any mismatch and 2
when the run cannot start (for example, without ``src/e6grad``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
STARTUP_SAMPLES = 7


def _self(*names):
    return ("self", names)


def _calls(*names):
    return ("calls", names)


def _count(name):
    return ("count", name)


# (metric, unit, what): the per-layer metrics of the traced run.  "self" sums
# the self time of the named spans, "calls" counts them, "count" reads a
# counter recorded at the span boundary, "layer" sums the self time of every
# span of the layer.  Metrics in seconds are scaled to reference host speed.
PER_LAYER = [
    ("liemodels.build_albert_s", "s", _self("liemodels.build_albert")),
    ("liemodels.build_tits_s", "s", _self("liemodels.build_tits")),
    ("liemodels.build_flag_s", "s", _self("liemodels.build_flag")),
    ("liemodels.build_chevalley_s", "s", _self("liemodels.build_chevalley")),
    ("liemodels.flag_operators_s", "s",
     _self("liemodels.flag_f_matrices", "liemodels.flag_theta_matrix",
           "liemodels.flag_ad_e")),
    ("liemodels.self_s", "s", ("layer", "liemodels")),
    ("structalg.derivations_s", "s", _self("structalg.derivations")),
    ("structalg.derivations_calls", "count", _calls("structalg.derivations")),
    ("structalg.leibniz_unknowns", "count",
     _count("structalg.leibniz_unknowns")),
    ("structalg.check_jacobi_s", "s", _self("structalg.check_jacobi")),
    ("structalg.jacobi_triples", "count", _count("structalg.jacobi_triples")),
    ("structalg.killing_form_s", "s", _self("structalg.killing_form")),
    ("structalg.check_jordan_s", "s", _self("structalg.check_jordan")),
    ("structalg.self_s", "s", ("layer", "structalg")),
    ("linalg.rref_s", "s", _self("linalg.rref")),
    ("linalg.rref_calls", "count", _calls("linalg.rref")),
    ("linalg.rref_cells", "count", _count("linalg.rref_cells")),
    ("linalg.signature_s", "s", _self("linalg.signature")),
    ("linalg.simultaneous_eigensplit_s", "s",
     _self("linalg.simultaneous_eigensplit")),
    ("linalg.eigensplit_calls", "count",
     _calls("linalg.simultaneous_eigensplit")),
    ("linalg.smith_normal_form_s", "s", _self("linalg.smith_normal_form")),
    ("linalg.snf_calls", "count", _calls("linalg.smith_normal_form")),
    ("linalg.snf_cells", "count", _count("linalg.snf_cells")),
    ("linalg.mat_mul_s", "s", _self("linalg.mat_mul")),
    ("linalg.self_s", "s", ("layer", "linalg")),
    ("abgroup.presented_group_s", "s", _self("abgroup.presented_group")),
    ("abgroup.relations", "count", _count("abgroup.relations")),
    ("gradings.build_named_grading_s", "s",
     _self("gradings.build_named_grading")),
    ("gradings.check_grading_s", "s", _self("gradings.check_grading")),
    ("gradings.universal_group_s", "s", _self("gradings.universal_group")),
    ("gradings.interval_check_s", "s", _self("gradings.interval_check")),
    ("gradings.sp8_lemma_s", "s", _self("gradings.sp8_lemma")),
    ("gradings.self_s", "s", ("layer", "gradings")),
    ("rootsys.to_real_coords_s", "s", _self("rootsys.to_real_coords")),
    ("rootsys.to_real_coords_calls", "count",
     _calls("rootsys.to_real_coords")),
    ("rootsys.is_table_automorphism_s", "s",
     _self("rootsys.is_table_automorphism")),
    ("jordan.build_s", "s",
     _self("jordan.build_j", "jordan.build_jc", "jordan.build_m",
           "jordan.build_ms")),
    ("composition.check_norm_multiplicativity_s", "s",
     _self("composition.check_norm_multiplicativity")),
    ("composition.check_alternativity_s", "s",
     _self("composition.check_alternativity")),
    ("jsonio.table_to_json_s", "s", _self("jsonio.table_to_json")),
    ("jsonio.table_from_json_s", "s", _self("jsonio.table_from_json")),
    ("jsonio.bytes", "bytes", _count("jsonio.bytes")),
    ("jsonio.self_s", "s", ("layer", "jsonio")),
    ("cli.cmd_build_s", "s", _self("cli.cmd_build")),
] + [(f"verify.criterion_{k}_s", "s", _self(f"verify.criterion_{k}"))
     for k in (1, 2, 4, 10, 11)] + [
    ("trace.wall_s", "s", ("run", "traced_wall")),
    ("trace.overhead_s", "s", ("run", "overhead")),
    ("trace.span_coverage", "%", ("run", "coverage")),
    ("trace.spans", "count", ("run", "spans")),
    ("trace.host_speed", "ratio", ("run", "host_speed")),
    ("bench.checks_red", "count", ("run", "red")),
]

END_TO_END = [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("checks", "count")]


def startup_seconds(probe, samples: int = STARTUP_SAMPLES) -> float:
    """Median time of fresh interpreters importing the workloads, at
    reference speed.  They share this process's CPU while they run, so the
    probes, which run in this process, measure the CPU they run on."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import workloads")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(samples):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, SRC, BENCH],
                           check=True, cwd=ROOT)
            times.append(hostspeed.corrected(probe.samples, t,
                                             time.perf_counter()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


_MISSING = object()


def matches(want, got) -> bool:
    """Reference dicts list the keys that must match; other values match by
    equality."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            matches(v, got.get(k, _MISSING)) for k, v in want.items())
    if isinstance(want, bool):
        return got is want
    return want == got


def compare(reference: dict, outputs: dict):
    """(attempted, mismatches) for one pass: one check per reference key."""
    attempted, bad = 0, []
    for item, want in reference.items():
        got = outputs.get(item) or {}
        for key, value in want.items():
            attempted += 1
            if not matches(value, got.get(key, _MISSING)):
                bad.append(f"{item}: {key}: expected {value!r}, "
                           f"got {got.get(key, 'nothing')!r}")
    return attempted, bad


def red_checks(outputs: dict) -> int:
    """verify checks that came back red (the documented honest failures)."""
    return sum(1 for out in outputs.values() if out
               for v in out.values()
               if isinstance(v, dict) and v.get("ok") is False)


def run_pass(workload, seed: int, tracer=None, targets=()):
    """(start of set-up, start and end of the timed pass, outputs).

    With a tracer, the calls that build the inputs are traced as well, so
    model builds show on a workload that makes them in set-up."""
    traced = tracer.installed(targets) if tracer else contextlib.nullcontext()
    with traced:
        t = time.perf_counter()
        inputs = workload.prepare()
        try:
            items = workload.items(inputs)
            random.Random(seed).shuffle(items)
            gc.collect()
            start = time.perf_counter()
            outputs = {label: _run_item(label, fn) for label, fn in items}
            end = time.perf_counter()
        finally:
            workload.release(inputs)
    return t, start, end, outputs


def _run_item(label, fn):
    try:
        return fn()
    except Exception:  # a crashed item fails its checks; the run goes on
        print(f"item {label} raised:", file=sys.stderr)
        traceback.print_exc()
        return None


def layer_metrics(tracer, run: dict, scale: float) -> dict:
    """PER_LAYER metrics from a tracer's spans and counts; ``run`` holds the
    values of the "run" kind.  Seconds are multiplied by ``scale``."""
    self_by, calls_by = {}, {}
    for (name, *_), st in zip(tracer.spans, spans.self_times(tracer.spans)):
        self_by[name] = self_by.get(name, 0.0) + st
        calls_by[name] = calls_by.get(name, 0) + 1
    out = {}
    for metric, unit, (kind, what) in PER_LAYER:
        if kind == "self":
            value = sum(self_by.get(n, 0.0) for n in what)
        elif kind == "calls":
            value = sum(calls_by.get(n, 0) for n in what)
        elif kind == "count":
            value = tracer.counts.get(what, 0)
        elif kind == "layer":
            value = sum((v for n, v in self_by.items()
                         if n.split(".")[0] == what), 0.0)
        else:
            value = run[what]
        if unit == "s":
            value *= scale
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None, reference: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("build", "grade", "algebras"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "e6grad", "__init__.py")):
        print(f"error: no e6grad sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if reference is None:
        with open(os.path.join(BENCH, "reference.json")) as fh:
            reference = json.load(fh)
    reference = reference[args.workload]
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)

    attempted, mismatches = 0, []

    def check(outputs):
        nonlocal attempted
        n, bad = compare(reference, outputs)
        attempted += n
        mismatches.extend(bad)
        return n

    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-"
                                  f"pid{os.getpid()}")
        probe = hostspeed.Probe()
        with probe.running():
            _, start, end, outputs = run_pass(workload, args.seed, tracer,
                                              workloads.TRACE_TARGETS)
        host = hostspeed.speed(probe.samples, start, end)
        checks, red = check(outputs), red_checks(outputs)
        outdir = os.path.join(BENCH, "out")
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(
                outdir, f"spans-{args.workload}-seed{args.seed}.json"),
                "w") as fh:
            json.dump(tracer.to_json(), fh)
        run = {"traced_wall": hostspeed.busy(probe.samples, start, end),
               "overhead": spans.cost_per_span() * len(tracer.spans),
               "coverage": 100 * spans.coverage(tracer.spans, start, end),
               "spans": len(tracer.spans), "red": red, "host_speed": host}
        metrics = layer_metrics(tracer, run, host)
        summary = (f"traced pass {end - start:.3f} s raw, host speed "
                   f"{host:.3f}, {len(tracer.spans)} spans")
    else:
        probe = hostspeed.Probe()
        prepares, passes, walls = [], [], []
        with probe.running():
            startup = startup_seconds(probe)
            # Another pass only if one as long as the last still fits.  In
            # raw seconds, so that a slow host does not make runs longer.
            while not walls or sum(walls) + walls[-1] <= args.seconds:
                t, start, end, outputs = run_pass(workload, args.seed)
                if not walls:
                    red = red_checks(outputs)
                prepares.append(hostspeed.corrected(probe.samples, t, start))
                passes.append(hostspeed.corrected(probe.samples, start, end))
                walls.append(end - start)
                checks = check(outputs)
        setup = startup + statistics.median(prepares)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"pass_s": statistics.median(passes), "setup_s": setup,
                  "peak_rss_mb": rss_mb, "checks": checks}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        host = hostspeed.speed(probe.samples, 0, time.perf_counter())
        summary = (f"{len(walls)} pass(es) of "
                   f"{', '.join(f'{p:.3f}' for p in passes)} s, median "
                   f"{values['pass_s']:.3f} s ({statistics.median(walls):.3f} "
                   f"s raw), setup "
                   f"{setup:.3f} s, host speed {host:.3f}")

    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary}, {checks} checks, "
          f"{len(mismatches)} mismatched, {red} red as documented",
          file=sys.stderr)
    result = {"correct": not mismatches, "attempted": attempted,
              "failed": len(mismatches), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
