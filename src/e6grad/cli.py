"""Command-line front end: build models, build gradings, batch verify.

    e6grad build albert [--epsilon +-1] [--out PATH]
    e6grad build tits [--split-octonions] [--out PATH]
    e6grad build {flag,chevalley} [--out PATH]
    e6grad grade GRADING [--out PATH]
    e6grad verify-all [--json] [--out PATH]

All machine output is JSON (deterministic modulo the generated_at field);
human-readable summaries go to stdout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import jsonio, verify
from .gradings import (GRADING_MODEL, NAMED_GRADINGS, check_grading,
                       interval_check, type_vector)

MODELS = ("albert", "tits", "flag", "chevalley")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _misplaced(option: str, owner: str, model: str) -> int:
    print(f"error: {option} applies to the {owner} model, not {model}",
          file=sys.stderr)
    return 2


def cmd_build(args) -> int:
    # name: the Workspace model; key: the "model" field and default file name
    name = key = args.model
    if args.epsilon is not None and name != "albert":
        return _misplaced("--epsilon", "albert", name)
    if args.split_octonions and name != "tits":
        return _misplaced("--split-octonions", "tits", name)
    if name == "albert":
        key = f"albert_eps{'+1' if args.epsilon == 1 else '-1'}"
        if args.epsilon == 1:
            name = "albert_plus"
    elif name == "tits" and args.split_octonions:
        name = key = "tits_split"
    model = verify.Workspace().model(name)
    sig = model.killing_signature()
    payload = {
        "model": key,
        "provenance": model.provenance,
        "killing_signature": sig,
        "dim": model.dim,
        "table": jsonio.table_to_json(model.table),
        "generated_at": _timestamp(),
    }
    out = args.out or f"{key}.json"
    jsonio.dump(payload, out)
    print(f"{key}: dim {model.dim}, Killing signature {sig}; table -> {out}")
    return 0


def cmd_grade(args) -> int:
    name = args.grading
    if name not in NAMED_GRADINGS:
        print(f"error: unknown grading {name!r} "
              f"(choose from {', '.join(NAMED_GRADINGS)})", file=sys.stderr)
        return 2
    key = GRADING_MODEL[name]
    ws = verify.Workspace()
    model = ws.model(key)
    gd = ws.grading(name)
    rep = check_grading(gd)
    ug = ws.universal_group(name)
    iv = interval_check(gd, model.killing_signature())
    payload = {
        "model": key,
        "grading": name,
        "compatible": rep.ok,
        "type_vector": list(type_vector(gd)),
        "universal_group": {"rank": ug.rank, "torsion": list(ug.torsion),
                            "name": ug.describe()},
        "interval": iv,
        "grading_data": jsonio.grading_to_json(gd),
        "generated_at": _timestamp(),
    }
    out = args.out or f"{key}_{name}.json"
    jsonio.dump(payload, out)
    print(f"{name} on {key}: type {tuple(payload['type_vector'])}, "
          f"group {ug.describe()}, interval {iv['dim_neutral']} +- "
          f"{iv['order2_dim']}; -> {out}")
    return 0 if rep.ok else 1


def cmd_verify_all(args) -> int:
    report = verify.run_all(verify.Workspace())
    report["generated_at"] = _timestamp()
    if args.out:
        jsonio.dump(report, args.out)
    if args.json:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        for group in report["groups"]:
            mark = "ok " if group["ok"] else "FAIL"
            print(f"[{mark}] criterion {group['criterion']}")
            for c in group["checks"]:
                cm = "ok " if c["ok"] else "FAIL"
                line = f"    [{cm}] {c['name']}"
                if not c["ok"]:
                    line += f"  measured={c['measured']} expected={c['expected']}"
                    if c["note"]:
                        line += f"  ({c['note']})"
                print(line)
        print()
        print("fine gradings (measured):")
        hdr = f"{'grading':>8} {'model':>10} {'universal group':>18} " \
              f"{'type':>18} {'interval':>10}"
        print(hdr)
        for row in report["table1"]:
            print(f"{row['grading']:>8} {row['model']:>10} "
                  f"{row['universal_group']:>18} {str(tuple(row['type'])):>18} "
                  f"{row['interval']:>10}")
        print()
        print("all ok" if report["all_ok"] else "some checks failed")
    return 0 if report["all_ok"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="e6grad",
        description="Exact models and fine gradings of the real Lie algebra "
                    "e6 with Killing signature -14.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a model and write its table")
    b.add_argument("model", choices=MODELS)
    b.add_argument("--epsilon", type=int, choices=(-1, 1),
                   help="sign of the odd-odd bracket in the Albert model "
                        "(albert only; default -1)")
    b.add_argument("--split-octonions", action="store_true",
                   help="use split octonions in the Tits model (tits only)")
    b.add_argument("--out", help="output path (default MODEL.json)")
    b.set_defaults(fn=cmd_build)

    g = sub.add_parser("grade", help="build a named grading and its report")
    g.add_argument("grading")
    g.add_argument("--out", help="output path (default MODEL_GRADING.json)")
    g.set_defaults(fn=cmd_grade)

    v = sub.add_parser("verify-all", help="run the full verification battery")
    v.add_argument("--json", action="store_true",
                   help="print the machine-readable report to stdout")
    v.add_argument("--out", help="also write the JSON report to a file")
    v.set_defaults(fn=cmd_verify_all)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
