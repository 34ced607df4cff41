"""JSON serialization for scalars, algebra tables and gradings.

Formats:
  * scalar: four "p/q" strings, its coordinates in the power basis
    {1, z, z^2, z^3} of Q(zeta_12); tables and gradings are rational, so
    the last three strings must be zero and are written "0/1"
  * algebra table: {"dim": n, "basis_names": [...],
                    "entries": [[i, j, k, scalar], ...]}  (nonzero only)
  * grading: {"group": {"rank": r, "torsion": [...]},
              "components": [{"degree": [...], "basis_vectors": [[...], ...]}]}

A grading's basis vectors are sparse in memory and written out in full, one
scalar per table coordinate; reading drops the zero entries again.  Readers
validate what they read and raise ValueError naming the bad value or field;
each distinct scalar is parsed and checked once per document.

On disk a document has json's ``indent=1, sort_keys=True`` layout.  ``dump``
writes the entries of a document's table from one fixed format, the layout
json gives them, and hands the rest of the document to json.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .abgroup import FgAbelianGroup
from .gradings import GradedDecomposition
from .structalg import AlgebraTable


def scalar_to_json(x) -> list[str]:
    """The four strings of a rational x (an int or a Fraction)."""
    return [f"{x.numerator}/{x.denominator}", "0/1", "0/1", "0/1"]


_PQ = re.compile(r"-?[0-9]+/[1-9][0-9]*")
_RATIONAL_TAIL = ["0/1"] * 3


def scalar_from_json(parts):
    """The Fraction of four "p/q" strings whose last three are zero; raises
    ValueError naming the scalar on anything else."""
    if type(parts) is not list or len(parts) != 4 or \
            not all(type(x) is str and _PQ.fullmatch(x) for x in parts):
        raise ValueError(f"scalar {parts!r}: expected a list of four "
                         "'p/q' strings")
    if parts[1:] != _RATIONAL_TAIL and \
            any(int(x.partition("/")[0]) for x in parts[1:]):
        raise ValueError(f"scalar {parts!r}: a z, z^2 or z^3 coordinate is "
                         "nonzero; tables and gradings are rational")
    p, _, q = parts[0].partition("/")
    return Fraction(int(p), int(q))


def _is_four_str(x) -> bool:
    return type(x) is list and len(x) == 4 and \
        type(x[0]) is type(x[1]) is type(x[2]) is type(x[3]) is str


def _scalar_reader():
    """scalar_from_json over a memo, held by the returned reader, from the
    four strings of each scalar read so far to its Fraction."""
    memo = {}

    def read(parts):
        if not _is_four_str(parts):
            return scalar_from_json(parts)  # raises ValueError naming parts
        key = tuple(parts)
        x = memo.get(key)
        if x is None:
            x = memo[key] = scalar_from_json(parts)
        return x
    return read


def table_to_json(table: AlgebraTable) -> dict:
    entries = []
    for i in range(table.dim):
        for j in range(table.dim):
            for k, c in sorted(table.prod[i][j].items()):
                entries.append([i, j, k, scalar_to_json(c)])
    return {"dim": table.dim, "basis_names": table.basis_names,
            "entries": entries}


def _field(d, key: str, ok, want: str, where: str):
    """d[key] when d has it and ok(d[key]); else ValueError naming the field."""
    if type(d) is not dict or key not in d:
        raise ValueError(f"{where}: missing field {key!r}")
    if not ok(d[key]):
        raise ValueError(f"{where}: field {key!r} is {d[key]!r:.60}, "
                         f"expected {want}")
    return d[key]


def table_from_json(d) -> AlgebraTable:
    """The table of ``d``; raises ValueError naming the first missing or
    mistyped field or the first bad entry.

    Zero entries are accepted and dropped, as ``AlgebraTable.build`` drops
    them, so that no cell holds an explicit zero; ``table_to_json`` never
    writes one."""
    dim = _field(d, "dim", lambda x: type(x) is int and x >= 0,
                 "a non-negative int", "table")
    names = _field(d, "basis_names", lambda x: type(x) is list and all(
        type(v) is str for v in x), "a list of str", "table")
    if len(names) != dim:
        raise ValueError(f"{len(names)} basis_names for dim {dim}")
    entries = _field(d, "entries", lambda x: type(x) is list and all(
        type(e) is list for e in x), "a list of lists", "table")
    prod = [[{} for _ in range(dim)] for _ in range(dim)]
    read = _scalar_reader()
    zeros = set()  # (i, j, k) of the zero entries, which are dropped
    for e in entries:
        if len(e) != 4 or not (type(e[0]) is type(e[1]) is type(e[2]) is int
                               and 0 <= e[0] < dim and 0 <= e[1] < dim
                               and 0 <= e[2] < dim):
            raise ValueError(f"entry {e!r}: expected [i, j, k, scalar] with "
                             f"ints i, j, k in range({dim})")
        i, j, k, c = e
        if k in prod[i][j] or (i, j, k) in zeros:
            raise ValueError(f"entry {e!r}: duplicate (i, j, k) = "
                             f"{(i, j, k)}")
        x = read(c)
        if x:
            prod[i][j][k] = x
        else:
            zeros.add((i, j, k))
    return AlgebraTable(dim, names, prod)


def grading_to_json(gd: GradedDecomposition) -> dict:
    g = gd.group
    group = {"rank": g.rank, "torsion": list(g.torsion)}
    comps = []
    for deg, sub in gd.components:
        comps.append({
            "degree": list(deg),
            "basis_vectors": [[scalar_to_json(v.get(k, 0))
                               for k in range(gd.table.dim)]
                              for v in sub.basis],
        })
    return {"group": group, "components": comps, "name": gd.name}


def _is_int_list(x) -> bool:
    return type(x) is list and all(type(v) is int for v in x)


def grading_from_json(d, table: AlgebraTable) -> GradedDecomposition:
    """The grading of ``d`` on ``table``; raises ValueError naming the first
    missing or mistyped field, or degree or basis vector of the wrong
    length."""
    g = _field(d, "group", lambda x: type(x) is dict, "an object", "grading")
    rank = _field(g, "rank", lambda x: type(x) is int and x >= 0,
                  "a non-negative int", "group")
    torsion = _field(g, "torsion",
                     lambda x: _is_int_list(x) and all(m >= 2 for m in x),
                     "a list of ints >= 2", "group")
    group = FgAbelianGroup(rank, tuple(torsion))
    read = _scalar_reader()
    comps = []
    for n, c in enumerate(_field(d, "components", lambda x: type(x) is list,
                                 "a list", "grading")):
        where = f"component {n}"
        deg = _field(c, "degree", _is_int_list, "a list of ints", where)
        if len(deg) != group.ncoords:
            raise ValueError(f"{where}: degree {deg!r} has length "
                             f"{len(deg)}, the group has {group.ncoords} "
                             "coordinates")
        vecs = []
        for m, v in enumerate(_field(
                c, "basis_vectors",
                lambda x: type(x) is list and all(type(v) is list for v in x),
                "a list of lists", where)):
            if len(v) != table.dim:
                raise ValueError(f"{where}, basis vector {m}: length "
                                 f"{len(v)}, the table has dim {table.dim}")
            vecs.append({k: x for k, x in enumerate(map(read, v))
                         if x})
        comps.append((tuple(deg), vecs))
    return GradedDecomposition(table, group, comps, d.get("name", ""))


# One table entry [i, j, k, [a, b, c, d]] as json lays it out at the depth
# of doc["table"]["entries"] with indent=1, and the separator between two.
_ENTRY = ("[\n    %d,\n    %d,\n    %d,\n    [\n     %s,\n     %s,\n"
          "     %s,\n     %s\n    ]\n   ]")
_ENTRY_SEP = ",\n   "
_ENTRY_CHUNK = 1024  # entries formatted into one string per write


def _plain_entries(obj):
    """obj["table"]["entries"] when it is a nonempty list of exactly
    [int, int, int, [str, str, str, str]] lists, else None."""
    table = obj.get("table") if type(obj) is dict else None
    entries = table.get("entries") if type(table) is dict else None
    if type(entries) is not list or not entries:
        return None
    for e in entries:
        if type(e) is not list or len(e) != 4 or \
                not (type(e[0]) is type(e[1]) is type(e[2]) is int) or \
                not _is_four_str(e[3]):
            return None
    return entries


def _write_entries(fh, entries) -> None:
    enc = json.encoder.encode_basestring_ascii
    for n in range(0, len(entries), _ENTRY_CHUNK):
        if n:
            fh.write(_ENTRY_SEP)
        fh.write(_ENTRY_SEP.join(
            _ENTRY % (i, j, k, enc(a), enc(b), enc(c), enc(d))
            for i, j, k, (a, b, c, d) in entries[n:n + _ENTRY_CHUNK]))


def dump(obj, path: str) -> None:
    """Write obj as ``json.dump(obj, fh, indent=1, sort_keys=True)`` and a
    newline would.  A table whose entries are all [int, int, int, [str, str,
    str, str]] has them written by ``_write_entries``: json encodes the
    document with the entries replaced by one stand-in, and the chunk it
    yields for the stand-in is replaced by the entries."""
    entries = _plain_entries(obj)
    with open(path, "w") as fh:
        if entries is None:
            json.dump(obj, fh, indent=1, sort_keys=True)
        else:
            stand_in = object()
            hits = []

            def default(o):
                if o is not stand_in:  # raises TypeError, as json.dump does
                    return json.JSONEncoder.default(encoder, o)
                hits.append(o)
                return None  # encoded as the chunk "null"

            encoder = json.JSONEncoder(indent=1, sort_keys=True,
                                       default=default)
            shell = dict(obj, table=dict(obj["table"], entries=[stand_in]))
            for chunk in encoder.iterencode(shell):
                if hits:  # chunk is the stand-in's "null"
                    hits.clear()
                    _write_entries(fh, entries)
                else:
                    fh.write(chunk)
        fh.write("\n")


def load(path: str):
    with open(path) as fh:
        return json.load(fh)
