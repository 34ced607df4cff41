from fractions import Fraction

import pytest

from e6grad import gradings as gr
from e6grad import linalg as la
from e6grad import rootsys as rs
from e6grad import structalg as sa
from e6grad.scalar import I as CYC_I


@pytest.fixture(scope="module")
def chev():
    return rs.ChevalleyE6()


def test_root_counts(chev):
    assert len(chev.roots) == 72
    assert len(chev.pos) == 36
    assert tuple(rs.HIGHEST_ROOT) in set(chev.pos)
    even = sum(1 for r in chev.pos if r[0] % 2 == 0)
    assert (even, 36 - even) == (20, 16)


def test_root_strings_short(chev):
    rset = set(chev.roots)
    zero = (0,) * 6
    for a in chev.roots:
        for b in chev.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rset and s != zero:
                s2 = tuple(x + 2 * y for x, y in zip(a, b))
                assert s2 not in rset


def test_chevalley_defining_relations(chev):
    assert chev.table.check_lie().ok
    for i, a in enumerate([tuple(1 if t == j else 0 for t in range(6))
                           for j in range(6)]):
        h = chev.table.prod[chev.e_idx(a)][chev.f_idx(a)]
        assert h == {i: Fraction(1)}


def test_cartan_action(chev):
    ei = [tuple(1 if t == i else 0 for t in range(6)) for i in range(6)]
    for i in range(6):
        for r in chev.pos:
            got = chev.table.prod[i][chev.e_idx(r)]
            c = rs.ip(r, ei[i])
            assert got == ({chev.e_idx(r): Fraction(c)} if c else {})


def test_structure_constants_pm1_and_cyclic(chev):
    rset = set(chev.roots)
    zero = (0,) * 6
    for a in chev.roots:
        for b in chev.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s == zero or s not in rset:
                continue
            n = chev.n_constant(a, b)
            assert abs(n) == 1
            g = tuple(-x for x in s)
            assert n == chev.n_constant(b, g) == chev.n_constant(g, a)
            # the opposite pair carries the opposite sign
            na = chev.n_constant(tuple(-x for x in a), tuple(-x for x in b))
            assert na == -n


def test_z_grading_from_weights(chev):
    gz = rs.z_grading_from_weights(chev, (0, 1, 0, 0, 0, 0))
    assert gr.check_grading(gz).ok
    assert {d[0]: s.dim for d, s in gz.components} == \
        {-2: 1, -1: 20, 0: 36, 1: 20, 2: 1}
    for w in ((1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)):
        g2 = rs.z_grading_from_weights(chev, w)
        top = g2.component((2,))
        assert top is not None and top.dim > 1
    triv = rs.z_grading_from_weights(chev, (0,) * 6)
    assert len(triv.components) == 1


def test_torus_and_omega(chev):
    assert all(rs.torus_auto(chev, (1,) * 6)[i][i] == 1 for i in range(78))
    tm = rs.torus_auto(chev, (-1, 1, 1, 1, 1, 1))
    om = rs.omega_auto(chev)
    assert rs.is_table_automorphism(chev.table, tm)
    assert rs.is_table_automorphism(chev.table, om)
    assert la.mat_eq(la.mat_mul(om, om), la.identity(78))
    assert la.mat_eq(la.mat_mul(om, tm), la.mat_mul(tm, om))
    with pytest.raises(ValueError):
        rs.torus_auto(chev, (2, 1, 1, 1, 1, 1))


def test_fix_dimension(chev):
    assert rs.fix_dimension(chev, (-1, 1, 1, 1, 1, 1)) == 46
    assert rs.fix_dimension(chev, (1,) * 6) == 78
    assert 78 - 2 * 46 == -14


@pytest.fixture(scope="module")
def compact(chev):
    return rs.ChevalleyRealForm(chev, (1,) * 6)


def test_compact_form(compact):
    assert compact.table.check_lie().ok
    assert la.signature(sa.killing_form(compact.table)) == (0, 78, 0)


def test_real_form_contract(compact, chevalley, flag):
    for rf in (compact, chevalley.meta["real_form"], flag.meta["real_form"]):
        n = len(rf.complex_basis)
        for t, v in enumerate(rf.complex_basis):
            assert rf.to_real_coords(v) == [int(s == t) for s in range(n)]
            with pytest.raises(ValueError):
                rf.to_real_coords({k: CYC_I * c for k, c in v.items()})
        ident = [{k: Fraction(1)} for k in range(n)]
        assert rf.real_matrix_of(ident) == la.identity(n)


def test_real_form_rejects_a_repeated_vector(chev, compact):
    # q of the first root replaced by its p (a singular 2x2 block), and p
    # by a Cartan vector (seven vectors on the six Cartan coordinates)
    for t, s in ((7, 6), (6, 0)):
        basis = list(compact.complex_basis)
        basis[t] = basis[s]
        with pytest.raises(ValueError):
            sa.RealForm(chev.table, basis, compact.names)


def test_h_prime_orthogonal(chev):
    for i in range(6):
        for j in range(i + 1, 6):
            assert rs.ip(rs.H_PRIME[i], rs.H_PRIME[j]) == 0
