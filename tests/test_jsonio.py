import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from e6grad import composition as co
from e6grad import jordan as jo
from e6grad import jsonio
from e6grad.abgroup import FgAbelianGroup
from e6grad.gradings import GradedDecomposition
from e6grad.scalar import Cyc
from e6grad.structalg import AlgebraTable
from oracles import jordan_z_grading


def test_scalar_round_trip():
    for x in (Fraction(3, 7), Fraction(-2), Fraction(0), 5):
        back = jsonio.scalar_from_json(jsonio.scalar_to_json(x))
        assert back == x and type(back) is Fraction


def test_table_round_trip():
    t = co.octonion_table()
    d = jsonio.table_to_json(t)
    back = jsonio.table_from_json(d)
    assert back.dim == t.dim
    assert back.basis_names == t.basis_names
    assert all(back.prod[i][j] == t.prod[i][j]
               for i in range(8) for j in range(8))


def assert_same_grading(back, gd):
    assert back.group == gd.group
    assert back.name == gd.name
    assert [(d, s.basis) for d, s in back.components] == \
        [(d, s.basis) for d, s in gd.components]


def test_grading_round_trip():
    m = jo.build_m()
    j = jo.build_j()
    gz = jordan_z_grading(j)  # eigenvectors with several nonzero entries
    assert any(len(v) > 1 for _, s in gz.components for v in s.basis)
    pauli = GradedDecomposition.from_degree_map(
        m.table, FgAbelianGroup(0, (3, 3)), m.meta["degrees"])
    for gd, table in ((pauli, m.table), (gz, j.table)):
        back = jsonio.grading_from_json(jsonio.grading_to_json(gd), table)
        assert_same_grading(back, gd)


def test_dump_deterministic(tmp_path):
    t = co.octonion_table()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.dump(jsonio.table_to_json(t), str(p1))
    jsonio.dump(jsonio.table_to_json(t), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def assert_dumps_as_json(doc, path):
    """dump writes the bytes of json.dump with indent=1 and sort_keys=True,
    then a newline."""
    jsonio.dump(doc, str(path))
    want = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("ascii")


def _build_doc(model, name):
    # the document `e6grad build` writes, less its Killing signature
    return {"model": name, "provenance": model.provenance, "dim": model.dim,
            "table": jsonio.table_to_json(model.table),
            "generated_at": "2018-01-01T00:00:00+00:00"}


@pytest.mark.parametrize("name", ["albert", "albert_plus", "tits",
                                  "tits_split", "flag", "chevalley"])
def test_dump_writes_the_json_layout_for_each_model(ws, tmp_path, name):
    doc = _build_doc(ws.model(name), name)
    assert jsonio._plain_entries(doc) is doc["table"]["entries"]
    assert_dumps_as_json(doc, tmp_path / "m.json")


_AWKWARD = ['"entries": [', 'null', '\\"', 'é', '€ 😀', '\n\t', '\x00', '\ud800']


def test_dump_places_the_entries_by_structure_not_by_text(tmp_path):
    # names and provenance values that look like the layout around the
    # entries, and keys that sort before and after "table" and "entries"
    d = _sl2_json()
    d["basis_names"] = _AWKWARD[:3]
    d["zeta"] = {"entries": [None], "names": _AWKWARD}
    doc = {"a": {"entries": []}, "provenance": {"entries": [[1, 2, 3, None]],
                                                "note": _AWKWARD},
           "table": d, "zz": [None, "null", []]}
    assert jsonio._plain_entries(doc) is d["entries"]
    assert_dumps_as_json(doc, tmp_path / "t.json")
    back = jsonio.load(str(tmp_path / "t.json"))
    assert back == doc
    assert jsonio.table_from_json(back["table"]).prod == \
        jsonio.table_from_json(_sl2_json()).prod


def test_dump_of_more_entries_than_one_write(tmp_path):
    t = AlgebraTable.build(40, [f"b{i}" for i in range(40)],
                           lambda i, j: {(i + j) % 40: Fraction(i - j, 7)})
    doc = {"table": jsonio.table_to_json(t)}
    assert len(doc["table"]["entries"]) > 1024 * 1.5
    assert_dumps_as_json(doc, tmp_path / "t.json")


def _with_entry(i, value):
    def f(d):
        d["entries"][1][i] = value
    return f


@pytest.mark.parametrize("change", [
    _with_entry(0, True),                           # a bool index
    _with_entry(2, 1.0),                            # a float index
    _with_entry(3, ["1/1", "0/1", "0/1"]),          # a 3-string scalar
    _with_entry(3, ["1/1", "0/1", "0/1", 0]),       # a non-string part
    _with_entry(3, ("1/1", "0/1", "0/1", "0/1")),   # a tuple scalar
    lambda d: d["entries"].append([0, 0, 0]),        # a short entry
], ids=["bool-index", "float-index", "three-strings", "non-string-part",
        "tuple-scalar", "short-entry"])
def test_dump_hands_other_entries_to_json(tmp_path, change):
    d = _sl2_json()
    change(d)
    doc = {"model": "sl2", "table": d}
    assert jsonio._plain_entries(doc) is None
    assert_dumps_as_json(doc, tmp_path / "t.json")


def test_dump_of_the_empty_table(tmp_path):
    doc = {"table": jsonio.table_to_json(AlgebraTable(0, [], []))}
    assert doc["table"]["entries"] == []
    assert_dumps_as_json(doc, tmp_path / "t.json")


@pytest.mark.parametrize("where", ["entry", "provenance"])
def test_dump_rejects_what_json_rejects(tmp_path, where):
    d = _sl2_json()
    doc = {"provenance": {}, "table": d}
    if where == "entry":
        d["entries"][2][3] = Fraction(1, 2)
    else:
        doc["provenance"]["x"] = Fraction(1, 2)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        json.dumps(doc, indent=1, sort_keys=True)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        jsonio.dump(doc, str(tmp_path / "t.json"))


def _octonion_table_json():
    return jsonio.table_to_json(co.octonion_table())


def test_table_rejects_non_int_index():
    d = _octonion_table_json()
    d["entries"][3][1] = "1"
    with pytest.raises(ValueError, match=r"entry \[.*'1'"):
        jsonio.table_from_json(d)


def test_table_rejects_out_of_range_index():
    for bad in (-1, 8):
        d = _octonion_table_json()
        d["entries"][5][2] = bad
        with pytest.raises(ValueError, match=rf"entry \[.*{bad}.*range\(8\)"):
            jsonio.table_from_json(d)


def test_table_rejects_duplicate_entry():
    d = _octonion_table_json()
    d["entries"].append(list(d["entries"][7]))
    with pytest.raises(ValueError, match="duplicate"):
        jsonio.table_from_json(d)


def _sl2_json():
    # h, e, f with [h, e] = 2e, [h, f] = -2f, [e, f] = h
    t = AlgebraTable(3, ["h", "e", "f"], [
        [{}, {1: Fraction(2)}, {2: Fraction(-2)}],
        [{1: Fraction(-2)}, {}, {0: Fraction(1)}],
        [{2: Fraction(2)}, {0: Fraction(-1)}, {}]])
    return jsonio.table_to_json(t)


def test_table_drops_explicit_zero_entries():
    d = _sl2_json()
    zero = ["0/1", "0/1", "0/1", "0/1"]
    d["entries"] += [[0, 0, 1, zero], [1, 2, 2, ["0/5", "0/1", "0/1", "0/1"]],
                     [2, 1, 1, ["-0/3", "0/1", "0/1", "0/1"]]]
    t = jsonio.table_from_json(d)
    assert t.prod[0][0] == {} and t.prod[1][2] == {0: 1}
    assert t.prod[2][1] == {0: -1}
    assert t.check_lie().ok
    assert jsonio.table_to_json(t) == _sl2_json()


def test_table_rejects_duplicate_zero_entry():
    zero = ["0/1", "0/1", "0/1", "0/1"]
    for extra in ([[0, 0, 1, zero], [0, 0, 1, zero]],
                  [[1, 2, 0, zero]],                  # after a nonzero one
                  [[0, 0, 1, zero], [0, 0, 1, ["3/1", "0/1", "0/1", "0/1"]]]):
        d = _sl2_json()
        d["entries"] += extra
        with pytest.raises(ValueError, match="duplicate"):
            jsonio.table_from_json(d)
    d = _sl2_json()
    d["entries"].insert(0, [1, 2, 0, zero])           # before a nonzero one
    with pytest.raises(ValueError, match=r"duplicate \(i, j, k\) = \(1, 2, 0\)"):
        jsonio.table_from_json(d)


_NOT_RATIONAL = r"z, z\^2 or z\^3 coordinate is nonzero"


@pytest.mark.parametrize("parts", [
    ["3/7", "0/1", "0/1", "0/1"], ["-4/6", "0/1", "0/1", "0/1"],
    ["0/1", "0/1", "0/1", "0/1"], ["-0/9", "0/1", "0/1", "0/1"],
    ["12/1", "0/1", "0/1", "0/1"], ["5/3", "0/2", "-0/1", "0/1"],
    ["5/3", "1/2", "0/1", "0/1"], ["0/1", "0/1", "0/1", "-1/3"],
])
def test_scalar_rational_form_matches_the_cyc_reading(parts):
    c = Cyc(*map(Fraction, parts))
    if not c.is_rational():
        with pytest.raises(ValueError, match=_NOT_RATIONAL) as err:
            jsonio.scalar_from_json(parts)
        assert repr(parts) in str(err.value)
        return
    got = jsonio.scalar_from_json(parts)
    assert got == c.as_fraction() and type(got) is Fraction


def test_table_rejects_a_scalar_with_a_nonzero_z_coordinate():
    d = _octonion_table_json()
    d["entries"][2][3] = ["1/1", "0/1", "0/1", "-1/3"]
    with pytest.raises(ValueError, match=_NOT_RATIONAL) as err:
        jsonio.table_from_json(d)
    assert "'-1/3'" in str(err.value)


def test_grading_rejects_a_scalar_with_a_nonzero_z_coordinate():
    d = _octonion_grading_json()
    d["components"][1]["basis_vectors"][0][5] = ["0/1", "2/5", "0/1", "0/1"]
    with pytest.raises(ValueError, match=_NOT_RATIONAL) as err:
        jsonio.grading_from_json(d, co.octonion_table())
    assert "'2/5'" in str(err.value)


def test_table_reads_a_repeated_scalar_at_every_cell():
    d = _sl2_json()
    half, zero = ["2/4", "0/1", "0/1", "0/1"], ["0/7", "-0/1", "0/1", "0/1"]
    d["entries"] += [[0, 0, 0, half], [1, 1, 1, list(half)],
                     [0, 0, 2, zero], [2, 2, 0, list(zero)], [2, 2, 1, half]]
    t = jsonio.table_from_json(d)
    assert t.prod[0][0] == {0: Fraction(1, 2)}
    assert t.prod[1][1] == t.prod[2][2] == {1: Fraction(1, 2)}
    for again in ([2, 2, 0, half], [0, 0, 2, zero], [1, 1, 1, zero]):
        d["entries"].append(again)  # a dropped zero's cell, or a set one's
        with pytest.raises(ValueError, match="duplicate"):
            jsonio.table_from_json(d)
        d["entries"].pop()


class _Str(str):
    pass


_HALF = ["1/2", "0/1", "0/1", "0/1"]


def _read_table_with(first, second):
    d = _sl2_json()
    d["entries"][0][3], d["entries"][1][3] = first, second
    return jsonio.table_from_json(d)


def _read_grading_with(first, second):
    d = _octonion_grading_json()
    v = d["components"][1]["basis_vectors"][0]
    v[0], v[1] = first, second
    return jsonio.grading_from_json(d, co.octonion_table())


@pytest.mark.parametrize("read", [_read_table_with, _read_grading_with])
@pytest.mark.parametrize("first, second, match", [
    # the four strings of a scalar read before, but not a list of four str
    (_HALF, tuple(_HALF), "four 'p/q'"),
    (_HALF, [_Str(x) for x in _HALF], "four 'p/q'"),
    # an unhashable part, after a good scalar or first
    (_HALF, [["1/2"], "0/1", "0/1", "0/1"], "four 'p/q'"),
    ([["1/2"], "0/1", "0/1", "0/1"], _HALF, "four 'p/q'"),
    # the same malformed scalar twice
    (["1/0", "0/1", "0/1", "0/1"], ["1/0", "0/1", "0/1", "0/1"], "four 'p/q'"),
    (["1/1", "0/1", "0/1", "1/3"], ["1/1", "0/1", "0/1", "1/3"],
     _NOT_RATIONAL),
])
def test_readers_check_every_scalar_they_do_not_take_from_the_memo(
        read, first, second, match):
    with pytest.raises(ValueError, match=match):
        read(first, second)


def test_table_rejects_basis_names_length():
    d = _octonion_table_json()
    d["basis_names"].pop()
    with pytest.raises(ValueError, match="7 basis_names for dim 8"):
        jsonio.table_from_json(d)


def test_table_rejects_missing_basis_names():
    d = _octonion_table_json()
    del d["basis_names"]
    with pytest.raises(ValueError, match="table: missing field 'basis_names'"):
        jsonio.table_from_json(d)


def test_table_rejects_basis_names_that_are_a_string():
    # a string of the right length is not a list of names
    d = jsonio.table_to_json(AlgebraTable(1, ["a"], [[{}]]))
    d["basis_names"] = "a"
    with pytest.raises(ValueError, match="field 'basis_names' is 'a', "
                                         "expected a list of str"):
        jsonio.table_from_json(d)


def test_table_rejects_an_entry_that_is_not_a_list():
    d = _octonion_table_json()
    d["entries"][4] = 5
    with pytest.raises(ValueError, match="field 'entries' .* expected a list "
                                         "of lists"):
        jsonio.table_from_json(d)


def test_table_rejects_null_entries():
    d = _octonion_table_json()
    d["entries"] = None
    with pytest.raises(ValueError, match="field 'entries' is None, expected "
                                         "a list of lists"):
        jsonio.table_from_json(d)


def test_table_rejects_a_top_level_list():
    d = _octonion_table_json()
    with pytest.raises(ValueError, match="table: missing field 'dim'"):
        jsonio.table_from_json([d["dim"], d["basis_names"], d["entries"]])


@pytest.mark.parametrize("dim", [-1, "8", 8.0, True, None])
def test_table_rejects_a_bad_dim(dim):
    d = _octonion_table_json()
    d["dim"] = dim
    with pytest.raises(ValueError, match="field 'dim' .* expected a "
                                         "non-negative int"):
        jsonio.table_from_json(d)


def _octonion_grading_json():
    return jsonio.grading_to_json(GradedDecomposition.from_degree_map(
        co.octonion_table(), FgAbelianGroup(0, (2, 2, 2)),
        co.octonion_degrees()))


def test_grading_rejects_basis_vector_length():
    d = _octonion_grading_json()
    d["components"][2]["basis_vectors"][0].pop()
    with pytest.raises(ValueError, match="component 2, basis vector 0"):
        jsonio.grading_from_json(d, co.octonion_table())


def test_grading_rejects_degree_length():
    d = _octonion_grading_json()
    d["components"][1]["degree"].append(0)
    with pytest.raises(ValueError, match="component 1: degree"):
        jsonio.grading_from_json(d, co.octonion_table())


@pytest.mark.parametrize("parts", [
    ["1/1", "0/1", "0/1"],                   # three parts
    ["1/2"],                                 # one part
    "1/2",                                   # a bare string
    ["1/1", "0/1", "0/1", "0/1", "0/1"],     # five parts
    3,                                       # an int
    ["1/2", "0/1", "0/1", 0],                # a non-string part
    ["1/0", "0/1", "0/1", "0/1"],            # a zero denominator
    ["1/2 ", "0/1", "0/1", "0/1"],           # not of the form p/q
    [["1/1"], "0/1", "0/1", "0/1"],          # an unhashable part
])
def test_scalar_rejects_anything_but_four_pq_strings(parts):
    with pytest.raises(ValueError, match="expected a list of four 'p/q'") \
            as err:
        jsonio.scalar_from_json(parts)
    assert repr(parts) in str(err.value)


def test_table_rejects_a_malformed_scalar():
    d = _octonion_table_json()
    d["entries"][0][3] = ["1/1", "0/1", "0/1"]
    with pytest.raises(ValueError, match="four 'p/q'"):
        jsonio.table_from_json(d)


def _drop(key):
    def f(d):
        del d[key]
    return f


def _set(key, value):
    def f(d):
        d[key] = value
    return f


def _in_group(f):
    return lambda d: f(d["group"])


def _in_component(f):
    return lambda d: f(d["components"][1])


@pytest.mark.parametrize("field, change", [
    ("group", _drop("group")),
    ("group", _set("group", [0, [2, 2, 2]])),
    ("rank", _in_group(_drop("rank"))),
    ("rank", _in_group(_set("rank", "0"))),
    ("rank", _in_group(_set("rank", -1))),
    ("torsion", _in_group(_drop("torsion"))),
    ("torsion", _in_group(_set("torsion", "33"))),
    ("torsion", _in_group(_set("torsion", [2, 2, 1]))),
    ("components", _drop("components")),
    ("components", _set("components", {"degree": [0, 0, 0]})),
    ("degree", _in_component(_drop("degree"))),
    ("degree", _in_component(_set("degree", ["a", "b", "c"]))),
    ("basis_vectors", _in_component(_drop("basis_vectors"))),
    ("basis_vectors", _in_component(_set("basis_vectors", "e1"))),
    ("basis_vectors", _in_component(_set("basis_vectors", [3]))),
])
def test_grading_rejects_a_missing_or_mistyped_field(field, change):
    d = _octonion_grading_json()
    change(d)
    with pytest.raises(ValueError, match=f"field '{field}'"):
        jsonio.grading_from_json(d, co.octonion_table())


# Round-trip properties on random scalars, tables and gradings.

scalars = st.fractions(max_denominator=50)


@settings(deadline=None)
@given(scalars)
def test_scalar_round_trip_property(x):
    back = jsonio.scalar_from_json(jsonio.scalar_to_json(x))
    assert back == x and type(back) is Fraction


@st.composite
def tables(draw):
    n = draw(st.integers(0, 4))
    nonzero = scalars.filter(bool)
    prod = [[draw(st.dictionaries(st.integers(0, n - 1), nonzero,
                                  max_size=n))
             for _ in range(n)] for _ in range(n)]
    # names with quotes, backslashes, control and non-ASCII characters
    chars = st.sampled_from('"\\é€😀\n\x00\ud800') | st.characters()
    names = draw(st.lists(st.text(chars, max_size=3), min_size=n, max_size=n))
    return AlgebraTable(n, names, prod)


@settings(deadline=None, max_examples=50)
@given(tables())
def test_table_round_trip_property(table):
    d = jsonio.table_to_json(table)
    back = jsonio.table_from_json(d)
    assert back.basis_names == table.basis_names
    assert back.prod == table.prod
    assert jsonio.table_to_json(back) == d


@settings(deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
def test_dump_writes_the_json_layout_property(tmp_path, table):
    doc = {"provenance": {"names": table.basis_names},
           "table": jsonio.table_to_json(table)}
    assert_dumps_as_json(doc, tmp_path / "t.json")


@st.composite
def gradings(draw):
    rank = draw(st.integers(0, 2))
    torsion = tuple(draw(st.lists(st.integers(2, 5), max_size=3)))
    group = FgAbelianGroup(rank, torsion)
    coord = [st.integers(-3, 3)] * rank + [st.integers(0, m - 1)
                                           for m in torsion]
    degrees = draw(st.lists(st.tuples(*coord), min_size=8, max_size=8))
    return GradedDecomposition.from_degree_map(co.octonion_table(), group,
                                               degrees, name="random")


@settings(deadline=None, max_examples=50)
@given(gradings())
def test_grading_round_trip_property(gd):
    back = jsonio.grading_from_json(jsonio.grading_to_json(gd), gd.table)
    assert_same_grading(back, gd)
