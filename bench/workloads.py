"""The benchmark's workloads: their inputs, their items and their outputs.

Each workload is a closed loop in one process and one thread: the items of a
pass run back to back, in an order drawn from the seed.  ``prepare`` builds
the inputs of one pass outside the timed region; every pass gets fresh
inputs, so no pass reuses a Killing form or integer-scaled table cached on a
model by an earlier one.  An item returns a JSON-like dict of outputs that
``run.py`` compares with ``reference.json``.

Calls into e6grad go through module attributes (``gradings.check_grading``),
never through names imported into this module, so the tracer in ``spans.py``
sees them.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import tempfile
from contextlib import redirect_stdout

from e6grad import (cli, composition, gradings, jsonio, linalg, structalg,
                    verify)

# (item, CLI arguments): the six buildable variants of `e6grad build`.
BUILD_VARIANTS = [
    ("albert_eps-1", ["albert", "--epsilon", "-1"]),
    ("albert_eps+1", ["albert", "--epsilon", "1"]),
    ("tits", ["tits"]),
    ("tits_split", ["tits", "--split-octonions"]),
    ("flag", ["flag"]),
    ("chevalley", ["chevalley"]),
]

# Gradings timed by `grade`, and the verify criteria run next to them.
GRADE_GRADINGS = ["gamma3", "gamma12"]
GRADE_CRITERIA = {
    "criterion_4": "criterion_4_ratios",
    "criterion_10": "criterion_10_flag",
}
GRADE_MODELS = ["tits", "flag"]

ALGEBRAS_CRITERIA = {
    "criterion_1": "criterion_1_octonions",
    "criterion_2": "criterion_2_jordan",
    "criterion_11": "criterion_11_sp8",
}


def signed_permutation(table, rng: random.Random):
    """The table in the basis f_i = s_i e_{p(i)} for a random permutation p
    and random signs s; Jacobi and the Killing signature are invariant."""
    n = table.dim
    p = list(range(n))
    rng.shuffle(p)
    s = [rng.choice((1, -1)) for _ in range(n)]
    q = [0] * n
    for i, pi in enumerate(p):
        q[pi] = i
    prod = [[{q[k]: c * (s[i] * s[j] * s[q[k]])
              for k, c in table.prod[p[i]][p[j]].items()}
             for j in range(n)] for i in range(n)]
    return structalg.AlgebraTable(n, [table.basis_names[i] for i in p], prod)


def killing_signature(table) -> int:
    p, m, _ = linalg.signature(structalg.killing_form(table))
    return p - m


def checks_out(checks) -> dict:
    """verify.Check list -> {name: {"ok": ..., "measured": ...}}."""
    out = {}
    for c in checks:
        d = c.to_json()
        out[d["name"]] = {"ok": d["ok"], "measured": d["measured"]}
    return out


def criterion(fname: str, ws):
    """Item running verify.<fname>(ws), looked up when it runs."""
    return lambda: plain(checks_out(getattr(verify, fname)(ws)))


def plain(x):
    """Tuples to lists and other values to JSON types, as stored."""
    return json.loads(json.dumps(x, default=str))


class Workload:
    """prepare() -> inputs of one pass; items(inputs) -> [(label, run)];
    release(inputs) after the pass."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed

    def release(self, inputs):
        pass


# ---------------------------------------------------------------------------
# build: `e6grad build` in process, then read back, permute and re-check
# ---------------------------------------------------------------------------

class Build(Workload):
    name = "build"

    def prepare(self):
        # `e6grad build` also writes to $E6GRAD_CACHE when it is set; the
        # benchmark writes only inside the checkout.
        os.environ.pop("E6GRAD_CACHE", None)
        outdir = os.path.join(self.root, "bench", "out")
        os.makedirs(outdir, exist_ok=True)
        return tempfile.mkdtemp(prefix="build-", dir=outdir)

    def release(self, outdir):
        shutil.rmtree(outdir, ignore_errors=True)

    def items(self, outdir):
        return [(key, self._item(key, args, outdir))
                for key, args in BUILD_VARIANTS]

    def _item(self, key, args, outdir):
        def run():
            path = os.path.join(outdir, f"{key}.json")
            with redirect_stdout(io.StringIO()):
                status = cli.main(["build", *args, "--out", path])
            doc = jsonio.load(path)
            table = jsonio.table_from_json(doc["table"])
            permuted = signed_permutation(
                table, random.Random(f"{self.seed}/{key}"))
            return {
                "exit_status": status,
                "model": doc["model"],
                "dim": doc["dim"],
                "killing_signature": doc["killing_signature"],
                "round_trip": jsonio.table_to_json(table) == doc["table"],
                "permuted_jacobi": permuted.check_lie().ok,
                "permuted_killing_signature": killing_signature(permuted),
            }
        return run


# ---------------------------------------------------------------------------
# grade: gradings and model-level criteria on models built in set-up
# ---------------------------------------------------------------------------

class Grade(Workload):
    name = "grade"

    def prepare(self):
        ws = verify.Workspace()
        for m in GRADE_MODELS:
            ws.model(m)
        return ws

    def items(self, ws):
        out = [(g, self._grading(g, ws)) for g in GRADE_GRADINGS]
        out += [(k, criterion(fn, ws)) for k, fn in GRADE_CRITERIA.items()]
        return out

    @staticmethod
    def _grading(name, ws):
        def run():
            model = ws.model(gradings.GRADING_MODEL[name])
            gd = gradings.build_named_grading(name, model)
            compatible = gradings.check_grading(gd).ok
            tv = gradings.type_vector(gd)
            ug = gradings.universal_group(gd)
            iv = gradings.interval_check(gd, model.killing_signature())
            return plain({
                "compatible": compatible,
                "type_vector": tv,
                "universal_group": {"rank": ug.rank, "torsion": ug.torsion},
                "interval": {"dim_neutral": iv["dim_neutral"],
                             "order2_dim": iv["order2_dim"],
                             "bound_holds": iv["ok"]},
            })
        return run


# ---------------------------------------------------------------------------
# algebras: octonions, Jordan algebras, sp8 over Q(zeta12)
# ---------------------------------------------------------------------------

class Algebras(Workload):
    name = "algebras"

    def prepare(self):
        return verify.Workspace()

    def items(self, ws):
        out = [(k, criterion(fn, ws)) for k, fn in ALGEBRAS_CRITERIA.items()]
        out.append(("split_octonions", lambda: {
            "norm_multiplicativity":
                composition.check_norm_multiplicativity(split=True).ok}))
        return out


WORKLOADS = {w.name: w for w in (Build, Grade, Algebras)}


def _count_rref(counts, args, kwargs, result):
    m = args[0]
    counts["linalg.rref_cells"] += len(m) * (len(m[0]) if m else 0)


def _count_snf(counts, args, kwargs, result):
    a = args[0]
    counts["linalg.snf_cells"] += len(a) * (len(a[0]) if a else 0)


def _count_relations(counts, args, kwargs, result):
    relations = args[1] if len(args) > 1 else kwargs["relations"]
    counts["abgroup.relations"] += len(relations)


def _count_unknowns(counts, args, kwargs, result):
    counts["structalg.leibniz_unknowns"] += args[0].dim ** 2


def _count_triples(counts, args, kwargs, result):
    n = args[0].dim
    counts["structalg.jacobi_triples"] += n * (n - 1) * (n - 2) // 6


def _count_bytes_written(counts, args, kwargs, result):
    counts["jsonio.bytes"] += os.path.getsize(args[1])


def _count_bytes_read(counts, args, kwargs, result):
    counts["jsonio.bytes"] += os.path.getsize(args[0])


# (span name, "module:attr", counter): the public functions the traced run
# wraps.  Scalar arithmetic gets no span: wrapping each Cyc or Fraction
# operation would swamp the trace.
TRACE_TARGETS = [
    ("cli.cmd_build", "e6grad.cli:cmd_build", None),
    ("liemodels.build_albert", "e6grad.liemodels:build_albert", None),
    ("liemodels.build_tits", "e6grad.liemodels:build_tits", None),
    ("liemodels.build_flag", "e6grad.liemodels:build_flag", None),
    ("liemodels.build_chevalley",
     "e6grad.liemodels:build_chevalley_form", None),
    ("liemodels.flag_f_matrices", "e6grad.liemodels:flag_f_matrices", None),
    ("liemodels.flag_theta_matrix",
     "e6grad.liemodels:flag_theta_matrix", None),
    ("liemodels.flag_ad_e", "e6grad.liemodels:flag_ad_e", None),
    ("structalg.derivations", "e6grad.structalg:derivations",
     _count_unknowns),
    ("structalg.check_jacobi", "e6grad.structalg:AlgebraTable.check_jacobi",
     _count_triples),
    ("structalg.check_jordan",
     "e6grad.structalg:AlgebraTable.check_jordan", None),
    ("structalg.killing_form", "e6grad.structalg:killing_form", None),
    ("linalg.rref", "e6grad.linalg:rref", _count_rref),
    ("linalg.signature", "e6grad.linalg:signature", None),
    ("linalg.simultaneous_eigensplit",
     "e6grad.linalg:simultaneous_eigensplit", None),
    ("linalg.smith_normal_form", "e6grad.linalg:smith_normal_form",
     _count_snf),
    ("linalg.mat_mul", "e6grad.linalg:mat_mul", None),
    ("abgroup.presented_group", "e6grad.abgroup:presented_group",
     _count_relations),
    ("gradings.build_named_grading",
     "e6grad.gradings:build_named_grading", None),
    ("gradings.check_grading", "e6grad.gradings:check_grading", None),
    ("gradings.type_vector", "e6grad.gradings:type_vector", None),
    ("gradings.universal_group", "e6grad.gradings:universal_group", None),
    ("gradings.interval_check", "e6grad.gradings:interval_check", None),
    ("gradings.sp8_lemma", "e6grad.gradings:sp8_lemma", None),
    ("rootsys.to_real_coords",
     "e6grad.rootsys:ChevalleyRealForm.to_real_coords", None),
    ("rootsys.is_table_automorphism",
     "e6grad.rootsys:is_table_automorphism", None),
    ("jordan.build_j", "e6grad.jordan:build_j", None),
    ("jordan.build_jc", "e6grad.jordan:build_jc", None),
    ("jordan.build_m", "e6grad.jordan:build_m", None),
    ("jordan.build_ms", "e6grad.jordan:build_ms", None),
    ("composition.check_norm_multiplicativity",
     "e6grad.composition:check_norm_multiplicativity", None),
    ("composition.check_alternativity",
     "e6grad.composition:check_alternativity", None),
    ("jsonio.table_to_json", "e6grad.jsonio:table_to_json", None),
    ("jsonio.table_from_json", "e6grad.jsonio:table_from_json", None),
    ("jsonio.dump", "e6grad.jsonio:dump", _count_bytes_written),
    ("jsonio.load", "e6grad.jsonio:load", _count_bytes_read),
] + [(f"verify.{k}", f"e6grad.verify:{fname}", None)
     for k, fname in {**GRADE_CRITERIA, **ALGEBRAS_CRITERIA}.items()]
