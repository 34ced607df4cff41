"""Every function and non-dunder method in ``src/e6grad`` is reached from
``ROOTS``, the module-level statements or the names in ``bench/*.py`` and its
trace targets; tests are not callers.  The walk goes by name: a reached body
reaches the top-level definitions it names and the methods it names as
attributes, and a reached class runs its class body and dunder methods."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROOTS = ["cli.main"]
# reached only from tests, kept for the report check of a ROADMAP open item
EXEMPT = {
    "gradings.support_generates": "item 1 (fineness)",
    "structalg.closure": "item 1 (fineness)",
    "structalg.Subspace.contains": "item 1 (fineness)",
    "gradings.killing_orthogonality_check": "item 2 (interval premises)",
    "gradings.isotropic_components_check": "item 2 (interval premises)",
    "jsonio.grading_from_json": "item 8 (e6grad check)",
    "jsonio._is_int_list": "item 8 (e6grad check)",
}


def _names(trees):
    """Bare names as "name", attributes as ".name"."""
    return {n.id if isinstance(n, ast.Name) else f".{n.attr}"
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _dunder(node):
    return node.name.startswith("__") and node.name.endswith("__")


def _dead(src, roots, names):
    defs = {}  # "mod.f", "mod.C" and "mod.C.m" (m not a dunder) -> node
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
                for m in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(m, ast.FunctionDef) and not _dunder(m):
                        defs[f"{path.stem}.{node.name}.{m.name}"] = m
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                names = names | _names([node])
    by_name = {}
    for key in defs:
        short = key.rsplit(".", 1)[1]
        by_name.setdefault(f".{short}", []).append(key)
        if key.count(".") == 1:  # a bare name is never a method
            by_name.setdefault(short, []).append(key)
    seen = set()
    todo = list(roots) + [k for n in names for k in by_name.get(n, ())]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        body = [defs[key]]
        if isinstance(body[0], ast.ClassDef):
            body = body[0].bases + [n for n in body[0].body if not isinstance(
                n, ast.FunctionDef) or _dunder(n)]
        todo += [k for n in _names(body) for k in by_name.get(n, ())]
    return sorted(k for k, node in defs.items()
                  if k not in seen and isinstance(node, ast.FunctionDef))


def test_every_function_is_reached_from_the_program():
    texts = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    bench = _names(ast.parse(t) for t in texts)
    for where in re.findall(r"e6grad\.\w+:([\w.]+)", "".join(texts)):
        bench |= {f".{part}" for part in where.split(".")}
    assert {".cmd_build", ".check_grading", ".to_real_coords"} <= bench
    dead = _dead(ROOT / "src" / "e6grad", ROOTS, bench)
    assert dead == sorted(EXEMPT), (
        f"reached only from tests: {[k for k in dead if k not in EXEMPT]}; "
        "exempt, but the program reaches them (drop the exemption): "
        f"{[k for k in EXEMPT if k not in dead]}")


def test_the_walk_finds_dead_code(tmp_path):
    (tmp_path / "m.py").write_text(
        "class C:\n    def __init__(self):\n        self.x = f()\n"
        "    def a(self):\n        pass\n    def b(self):\n        g()\n"
        "def f():\n    pass\ndef g():\n    pass\ndef main():\n    C().a()\n")
    assert _dead(tmp_path, ["m.main"], set()) == ["m.C.b", "m.g"]
