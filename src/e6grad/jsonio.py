"""JSON serialization for scalars, matrices, algebra tables and gradings.

Formats:
  * scalar: four "p/q" strings in the power basis {1, z, z^2, z^3}
    (rational values serialize the same way, with three "0/1" entries)
  * matrix: {"rows": r, "cols": c, "entries": [[scalar, ...], ...]}
  * algebra table: {"dim": n, "basis_names": [...],
                    "entries": [[i, j, k, scalar], ...]}  (nonzero only)
  * grading: {"group": {"rank": r, "torsion": [...]},
              "components": [{"degree": [...], "basis_vectors": [[...], ...]}]}
"""

from __future__ import annotations

import json
from fractions import Fraction

from .abgroup import FgAbelianGroup
from .gradings import GradedDecomposition
from .scalar import Cyc
from .structalg import AlgebraTable


def scalar_to_json(x) -> list[str]:
    if isinstance(x, Cyc):
        return x.to_strings()
    f = Fraction(x)
    return [f"{f.numerator}/{f.denominator}", "0/1", "0/1", "0/1"]


def scalar_from_json(parts):
    c = Cyc.from_strings(parts)
    if c.is_rational():
        return c.as_fraction()
    return c


def matrix_to_json(m) -> dict:
    return {
        "rows": len(m),
        "cols": len(m[0]) if m else 0,
        "entries": [[scalar_to_json(x) for x in row] for row in m],
    }


def matrix_from_json(d):
    return [[scalar_from_json(x) for x in row] for row in d["entries"]]


def table_to_json(table: AlgebraTable) -> dict:
    entries = []
    for i in range(table.dim):
        for j in range(table.dim):
            for k, c in sorted(table.prod[i][j].items()):
                entries.append([i, j, k, scalar_to_json(c)])
    return {"dim": table.dim, "basis_names": table.basis_names,
            "entries": entries}


def _is_index(x, dim: int) -> bool:
    return type(x) is int and 0 <= x < dim


def table_from_json(d) -> AlgebraTable:
    """The table of ``d``; raises ValueError naming the first bad entry."""
    dim = d["dim"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"dim {dim!r} is not a non-negative int")
    if len(d["basis_names"]) != dim:
        raise ValueError(f"{len(d['basis_names'])} basis_names for dim {dim}")
    prod = [[{} for _ in range(dim)] for _ in range(dim)]
    for e in d["entries"]:
        if len(e) != 4 or not all(_is_index(x, dim) for x in e[:3]):
            raise ValueError(f"entry {e!r}: expected [i, j, k, scalar] with "
                             f"ints i, j, k in range({dim})")
        i, j, k, c = e
        if k in prod[i][j]:
            raise ValueError(f"entry {e!r}: duplicate (i, j, k) = "
                             f"{(i, j, k)}")
        prod[i][j][k] = scalar_from_json(c)
    return AlgebraTable(dim, d["basis_names"], prod)


def grading_to_json(gd: GradedDecomposition) -> dict:
    group = {"rank": gd.group.rank, "torsion": list(gd.group.torsion)}
    comps = []
    for deg, sub in gd.components:
        comps.append({
            "degree": list(deg),
            "basis_vectors": [[scalar_to_json(x) for x in v]
                              for v in sub.basis],
        })
    return {"group": group, "components": comps, "name": gd.name}


def grading_from_json(d, table: AlgebraTable) -> GradedDecomposition:
    """The grading of ``d`` on ``table``; raises ValueError naming the first
    degree or basis vector of the wrong length."""
    group = FgAbelianGroup(d["group"]["rank"], tuple(d["group"]["torsion"]))
    comps = []
    for n, c in enumerate(d["components"]):
        if len(c["degree"]) != group.ncoords:
            raise ValueError(f"component {n}: degree {c['degree']!r} has "
                             f"length {len(c['degree'])}, the group has "
                             f"{group.ncoords} coordinates")
        for m, v in enumerate(c["basis_vectors"]):
            if len(v) != table.dim:
                raise ValueError(f"component {n}, basis vector {m}: length "
                                 f"{len(v)}, the table has dim {table.dim}")
        vecs = [[scalar_from_json(x) for x in v] for v in c["basis_vectors"]]
        comps.append((tuple(c["degree"]), vecs))
    return GradedDecomposition(table, group, comps, d.get("name", ""))


def dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path: str):
    with open(path) as fh:
        return json.load(fh)
