import random
from fractions import Fraction

import pytest

from e6grad import composition as co
from e6grad import gradings as gr
from e6grad import linalg as la
from e6grad import structalg as sa
from e6grad.abgroup import FgAbelianGroup


def test_unit_and_squares():
    x = co.oct(3, 1, 0, -2)
    assert co.oct_mul(co.unit(0), x) == x
    assert co.oct_mul(x, co.unit(0)) == x
    for i in range(1, 8):
        assert co.oct_mul(co.unit(i), co.unit(i)) == co.oct(-1)


def test_line_products_are_unit_basis_vectors():
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            p = co.oct_mul(co.unit(i), co.unit(j))
            assert co.norm(p) == 1
            assert sum(1 for x in p if x != 0) == 1


def test_norm_multiplicativity_oracle():
    assert co.check_norm_multiplicativity().ok


def test_norm_multiplicativity_rejects_a_reversed_line(monkeypatch):
    lines = [co.FANO_LINES[0][::-1], *co.FANO_LINES[1:]]
    monkeypatch.setattr(co, "_MUL", co._pair_table(lines))
    for split in (False, True):
        rep = co.check_norm_multiplicativity(split=split)
        assert not rep.ok and len(rep.witness) == 4


def test_alternativity():
    assert co.check_alternativity().ok


def test_conjugation_norm_trace():
    rng = random.Random(0)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
    assert co.norm(x) == sum(c * c for c in x)
    assert co.trace_o(x) == 2 * x[0]
    assert co.oct_mul(x, co.oct_conj(x)) == co.oct(co.norm(x))
    for i in range(1, 8):
        assert co.trace_o(co.unit(i)) == 0


def test_d_ab_antisymmetry_and_derivation():
    z = co.d_ab(co.unit(3), co.unit(3))
    assert all(z[i][j] == 0 for i in range(8) for j in range(8))
    rng = random.Random(4)
    table = co.octonion_table()
    for _ in range(5):
        # e1 * x is traceless when x has no e1 component
        x = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        x[1] = Fraction(0)
        y = co.oct_mul(co.unit(1), x)
        assert co.trace_o(y) == 0
        d = co.d_ab(co.unit(1), y)
        mat = {(r, c): d[r][c] for r in range(8) for c in range(8) if d[r][c]}
        assert sa.leibniz_residual(table, mat)


def test_d_ab_requires_traceless():
    with pytest.raises(ValueError):
        co.d_ab(co.unit(0), co.unit(1))


def test_d_ab_spans_der_o():
    mats = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            d = co.d_ab(co.unit(i), co.unit(j))
            mats.append([d[r][c] for r in range(8) for c in range(8)])
    assert sa.Subspace(64, mats).dim == 14


def test_derivation_algebra():
    table = co.octonion_table()
    ders = sa.derivations(table)
    assert ders.dim == 14
    assert ders.table.check_lie().ok
    sig = la.signature(sa.killing_form(ders.table))
    assert sig[0] - sig[1] == -14
    for m in ders.mats:
        assert sa.leibniz_residual(table, m)


def test_der_o_graded_blocks():
    table = co.octonion_table()
    ders = sa.derivations(table, co.octonion_degrees(),
                          FgAbelianGroup(0, (2, 2, 2)))
    assert ders.dim == 14
    from collections import Counter
    cnt = Counter(ders.blocks)
    assert (0, 0, 0) not in cnt
    assert sorted(cnt.values()) == [2] * 7


def test_octonion_grading():
    gd = co.octonion_grading()
    assert gr.check_grading(gd).ok
    assert gr.type_vector(gd) == (8,)
    assert gd.component((0, 0, 0)).basis[0][0] == 1  # unit is neutral
    # degree additivity along a line: deg(e1 e2) = deg e1 + deg e2
    degs = co.octonion_degrees()
    p = co.oct_mul(co.unit(1), co.unit(2))
    k = next(i for i, c in enumerate(p) if c != 0)
    assert degs[k] == (1, 1, 0)


def test_split_octonions():
    assert co.check_norm_multiplicativity(split=True).ok
    t = co.octonion_table(split=True)
    # e4^2 = +1 in the split algebra
    assert t.prod[4][4] == {0: Fraction(1)}
    assert co.split_norm(co.unit(4)) == -1
