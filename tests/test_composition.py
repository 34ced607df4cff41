import random
from fractions import Fraction
from itertools import product

import pytest

from e6grad import composition as co
from e6grad import gradings as gr
from e6grad import linalg as la
from e6grad import structalg as sa
from e6grad import verify
from e6grad.abgroup import FgAbelianGroup
from oracles import leibniz_residual, split_octonion_table


def e(i):
    return {i: Fraction(1)}


def conj(x):
    return {k: c if k == 0 else -c for k, c in x.items()}


def test_unit_and_squares():
    mul = co.octonion_table().mul_vec
    x = {0: Fraction(3), 1: Fraction(1), 3: Fraction(-2)}
    assert mul(e(0), x) == x
    assert mul(x, e(0)) == x
    for i in range(1, 8):
        assert mul(e(i), e(i)) == {0: Fraction(-1)}


def test_line_products_are_unit_basis_vectors():
    mul = co.octonion_table().mul_vec
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            p = mul(e(i), e(j))
            assert sum(c * c for c in p.values()) == 1
            assert len(p) == 1


def test_norm_multiplicativity_oracle():
    assert co.check_norm_multiplicativity().ok


def test_norm_multiplicativity_rejects_a_reversed_line(monkeypatch):
    lines = [co.FANO_LINES[0][::-1], *co.FANO_LINES[1:]]
    monkeypatch.setattr(co, "_MUL", co._pair_table(lines))
    for split in (False, True):
        rep = co.check_norm_multiplicativity(split=split)
        assert not rep.ok and len(rep.witness) == 4


def test_criterion_1_reports_the_witness_of_a_reversed_line(monkeypatch, ws):
    lines = [co.FANO_LINES[0][::-1], *co.FANO_LINES[1:]]
    monkeypatch.setattr(co, "_MUL", co._pair_table(lines))
    checks = {c.name: c.to_json() for c in verify.criterion_1_octonions(ws)}
    red = checks["octonions: norm multiplicativity"]
    assert not red["ok"] and len(red["measured"]) == 4
    assert all(isinstance(i, int) for i in red["measured"])


def reference_alternativity_witness():
    """The first (x, z, y, side) at which (x, z, y) + (z, x, y) (left) or
    (y, x, z) + (y, z, x) (right) is nonzero, by sparse products."""
    mul = co.octonion_table().mul_vec

    def assoc(a, b, c):
        v = mul(mul(e(a), e(b)), e(c))
        sa.vec_add_scaled(v, mul(e(a), mul(e(b), e(c))), -1)
        return v

    for x, z, y in product(range(8), repeat=3):
        for side, (p, q) in (("left", ((x, z, y), (z, x, y))),
                             ("right", ((y, x, z), (y, z, x)))):
            v = assoc(*p)
            sa.vec_add_scaled(v, assoc(*q), 1)
            if v:
                return (x, z, y, side)
    return None


def test_alternativity():
    assert co.check_alternativity().ok
    assert reference_alternativity_witness() is None


def test_alternativity_rejects_a_reversed_line(monkeypatch):
    # (xx)y = x(xy) still holds for every basis x here, so only the
    # linearized law can see the reversed line
    lines = [co.FANO_LINES[0][::-1], *co.FANO_LINES[1:]]
    monkeypatch.setattr(co, "_MUL", co._pair_table(lines))
    mul = co.octonion_table().mul_vec
    for i in range(8):
        for j in range(8):
            x, y = e(i), e(j)
            assert mul(mul(x, x), y) == mul(x, mul(x, y))
            assert mul(mul(y, x), x) == mul(y, mul(x, x))
    rep = co.check_alternativity()
    assert not rep.ok
    assert rep.witness == reference_alternativity_witness()
    assert all(isinstance(i, int) for i in rep.witness[:3])


def test_alternativity_witness_matches_the_linearized_laws(monkeypatch):
    # flipping the sign of one product e_i e_j leaves e_j e_i as it was, so
    # the left and the right law first fail at different triples
    plain = co.basis_mul
    sides = set()
    for i in range(1, 8):
        for j in range(1, 8):
            def flipped(a, b, split=False, i=i, j=j):
                k, s = plain(a, b, split)
                return (k, -s) if (a, b) == (i, j) else (k, s)

            monkeypatch.setattr(co, "basis_mul", flipped)
            want = reference_alternativity_witness()
            assert co.check_alternativity().witness == want, (i, j)
            sides.add(want[3])
    assert sides == {"left", "right"}


def test_alternativity_holds_exactly_on_the_composition_orientations(
        monkeypatch):
    # of the 128 orientations of the seven lines, the 16 composition
    # algebras are alternative and the other 112 are not
    green = 0
    for flips in range(128):
        lines = [ln[::-1] if flips >> t & 1 else ln
                 for t, ln in enumerate(co.FANO_LINES)]
        monkeypatch.setattr(co, "_MUL", co._pair_table(lines))
        alt = co.check_alternativity().ok
        assert alt == co.check_norm_multiplicativity().ok, flips
        green += alt
    assert green == 16


def test_conjugation_norm_trace():
    rng = random.Random(0)
    mul = co.octonion_table().mul_vec
    x = {k: Fraction(rng.randint(-5, 5)) for k in range(8)}
    x = {k: c for k, c in x.items() if c}
    n = sum(c * c for c in x.values())
    # x conj(x) = n(x) 1 and x + conj(x) = t(x) 1 with t(x) = 2 x_0
    assert mul(x, conj(x)) == {0: n}
    assert {k: c + conj(x)[k] for k, c in x.items()
            if c + conj(x)[k]} == {0: 2 * x[0]}
    for i in range(1, 8):
        assert conj(e(i)) == {i: Fraction(-1)}


def test_d_ab_antisymmetry_and_derivation():
    assert co.d_ab(e(3), e(3)) == [{}] * 8
    rng = random.Random(4)
    table = co.octonion_table()
    for _ in range(5):
        # e1 * x is traceless when x has no e1 component
        x = {k: Fraction(rng.randint(-3, 3)) for k in range(8)}
        x[1] = Fraction(0)
        x = {k: c for k, c in x.items() if c}
        y = table.mul_vec(e(1), x)
        assert y.get(0, 0) == 0
        d = co.d_ab(e(1), y)
        assert leibniz_residual(table, d)


def test_d_ab_requires_traceless():
    with pytest.raises(ValueError):
        co.d_ab(e(0), e(1))
    with pytest.raises(ValueError):
        co.d_ab(e(1), {0: Fraction(1), 2: Fraction(1)})


def test_d_ab_spans_der_o():
    mats = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            d = co.d_ab(e(i), e(j))
            mats.append({8 * r + c: x for c, col in enumerate(d)
                         for r, x in col.items()})
    assert sa.Subspace(64, mats).dim == 14


def test_derivation_algebra():
    table = co.octonion_table()
    ders = sa.derivations(table)
    assert ders.dim == 14
    assert ders.table.check_lie().ok
    sig = la.signature(sa.killing_form(ders.table))
    assert sig[0] - sig[1] == -14
    for w, d in zip(ders.int_mats, ders.denoms):
        assert leibniz_residual(
            table, [{k: Fraction(x, d) for k, x in col.items()} for col in w])
    # the identity is not one: D(1 1) = 1, but D(1) 1 + 1 D(1) = 2
    assert not leibniz_residual(table, [{k: Fraction(1)} for k in range(8)])


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
    gd = gr.GradedDecomposition.from_degree_map(
        co.octonion_table(), FgAbelianGroup(0, (2, 2, 2)),
        co.octonion_degrees())
    assert gr.check_grading(gd).ok
    assert gr.type_vector(gd) == (8,)
    assert gd.component((0, 0, 0)).basis[0][0] == 1  # unit is neutral
    # degree additivity along a line: deg(e1 e2) = deg e1 + deg e2
    degs = co.octonion_degrees()
    (k,) = co.octonion_table().prod[1][2]
    assert degs[k] == (1, 1, 0)


def test_split_octonions():
    assert co.check_norm_multiplicativity(split=True).ok
    t = split_octonion_table()
    # e4^2 = +1 in the split algebra
    assert t.prod[4][4] == {0: Fraction(1)}
    # n(e4) = -1: e4 conj(e4) = -1
    assert t.mul_vec(e(4), conj(e(4))) == {0: Fraction(-1)}


def test_split_octonion_twist_is_the_algebra_the_norm_check_certifies():
    # check_norm_multiplicativity(split=True) reads basis_mul(split=True)
    t = split_octonion_table()
    want = [[dict([co.basis_mul(i, j, split=True)]) for j in range(8)]
            for i in range(8)]
    assert t.prod == want
    assert all(type(c) is Fraction
               for row in t.prod for cell in row for c in cell.values())


def test_split_octonion_twist_needs_a_grading():
    parity = [d[2] for d in co.octonion_degrees()]
    assert parity == [0, 0, 0, 0, 1, 1, 1, 1]
    for t in range(4, 8):  # e_t even: e_t e_1 is odd
        bad = parity[:t] + [0] + parity[t + 1:]
        with pytest.raises(ValueError, match="not a Z2-grading"):
            sa.twist_z2(co.octonion_table(), bad, -1)
