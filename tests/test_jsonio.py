from fractions import Fraction

import pytest

from e6grad import composition as co
from e6grad import jordan as jo
from e6grad import jsonio
from e6grad.scalar import Cyc, SQRT3


def test_scalar_round_trip():
    for x in (Fraction(3, 7), Fraction(-2), SQRT3 * Fraction(1, 2),
              Cyc(1, 2, 3, 4)):
        back = jsonio.scalar_from_json(jsonio.scalar_to_json(x))
        if isinstance(x, Cyc) and x.is_rational():
            assert back == x.as_fraction()
        else:
            assert back == x


def test_matrix_round_trip():
    m = [[Fraction(1, 2), SQRT3], [Cyc(0, 1), Fraction(-3)]]
    d = jsonio.matrix_to_json(m)
    back = jsonio.matrix_from_json(d)
    assert all((a - b if isinstance(a, Cyc) or isinstance(b, Cyc)
                else Fraction(a) - Fraction(b)) == 0
               for ra, rb in zip(m, back) for a, b in zip(ra, rb))


def test_table_round_trip():
    t = co.octonion_table()
    d = jsonio.table_to_json(t)
    back = jsonio.table_from_json(d)
    assert back.dim == t.dim
    assert back.basis_names == t.basis_names
    assert all(back.prod[i][j] == t.prod[i][j]
               for i in range(8) for j in range(8))


def test_grading_round_trip():
    m = jo.build_m()
    gd = jo.pauli_grading(m)
    d = jsonio.grading_to_json(gd)
    back = jsonio.grading_from_json(d, m.table)
    assert back.support == gd.support
    assert [s.dim for _, s in back.components] == \
        [s.dim for _, s in gd.components]


def test_dump_deterministic(tmp_path):
    t = co.octonion_table()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.dump(jsonio.table_to_json(t), str(p1))
    jsonio.dump(jsonio.table_to_json(t), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


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


def test_table_rejects_basis_names_length():
    d = _octonion_table_json()
    d["basis_names"].pop()
    with pytest.raises(ValueError, match="7 basis_names for dim 8"):
        jsonio.table_from_json(d)


def _octonion_grading_json():
    return jsonio.grading_to_json(co.octonion_grading())


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
