import itertools
from fractions import Fraction

import pytest

from e6grad import gradings as gr
from e6grad import jordan as jo
from e6grad import linalg as la
from e6grad import structalg as sa


def sig(form):
    p, m, _ = la.signature(form)
    return p - m


def test_dimensions():
    assert jo.build_j().dim == 27
    assert jo.build_jc().dim == 27
    assert jo.build_m().dim == 9
    assert jo.build_ms().dim == 9


def test_unsupported_pair_rejected():
    with pytest.raises(ValueError):
        jo.build_h3("C", "g1")


def test_jordan_identity_all_four():
    for build in (jo.build_j, jo.build_jc, jo.build_m, jo.build_ms):
        j = build()
        assert j.table.check_jordan().ok, j.kind


def test_trace_form_signatures():
    j = jo.build_j()
    assert sig(sa.form_restrict(j.trace_form(), j.traceless_basis())) == -6
    assert sig(j.trace_form()) == -5  # -6 on J0 plus +1 on the unit line
    jc = jo.build_jc()
    assert la.signature(jc.trace_form()) == (27, 0, 0)
    m = jo.build_m()
    assert sig(sa.form_restrict(m.trace_form(), m.traceless_basis())) == 0
    ms = jo.build_ms()
    assert sig(sa.form_restrict(ms.trace_form(), ms.traceless_basis())) == 2


def test_trace_form_associative():
    m = jo.build_m()
    n = m.dim
    mul = m.table.mul_vec
    for (i, j, k) in itertools.product(range(n), repeat=3):
        x, y, z = {i: Fraction(1)}, {j: Fraction(1)}, {k: Fraction(1)}
        left = m.trace_of(mul(mul(x, y), z))
        right = m.trace_of(mul(x, mul(y, z)))
        assert left == right


def test_star_product():
    m = jo.build_m()
    degs = m.meta["degrees"]
    unit = m.unit
    for i in range(9):
        if degs[i] == (0, 0):
            continue
        x = {i: Fraction(1)}
        for j in range(9):
            if degs[j] == (0, 0):
                continue
            y = {j: Fraction(1)}
            z = m.star(x, y)
            assert m.trace_of(z) == 0
            assert all(z.values())
            want = ((degs[i][0] + degs[j][0]) % 3, (degs[i][1] + degs[j][1]) % 3)
            for k in z:
                assert degs[k] == want
    # x * x = 0 when x.x is a multiple of the identity
    x = {degs.index((1, 0)): Fraction(1)}
    sq = m.table.mul_vec(x, x)
    with_unit = {k: sq.get(k, 0) - m.trace_of(sq) / 3 * unit.get(k, 0)
                 for k in set(sq) | set(unit)}
    if not any(with_unit.values()):
        assert m.star(x, x) == {}


def test_star_requires_traceless():
    m = jo.build_m()
    with pytest.raises(ValueError):
        m.star(m.unit, m.unit)


def test_membership_dimension_of_m():
    # the realified hermitian condition for gamma3 has a 9-dim solution space
    from e6grad.jordan import _gamma3, _cmat_conj_t, _cmat_mul
    from e6grad.scalar import Cyc
    gam = _gamma3()
    # solve over the 18 real coordinates of a 3x3 complex matrix
    unknowns = [(i, j, part) for i in range(3) for j in range(3)
                for part in range(2)]
    cols = []
    for (i, j, part) in unknowns:
        x = [[Cyc(0)] * 3 for _ in range(3)]
        x[i][j] = Cyc(1) if part == 0 else Cyc(0, 0, 0, 1)
        tx = _cmat_mul(_cmat_mul(gam, _cmat_conj_t(x)), gam)
        diff = [[tx[a][b] - x[a][b] for b in range(3)] for a in range(3)]
        col = []
        for a in range(3):
            for b in range(3):
                col.extend(diff[a][b].c)
        cols.append([Fraction(v) for v in col])
    m = [{u: cols[u][r] for u in range(18) if cols[u][r]} for r in range(36)]
    assert len(la.kernel(m, 18)) == 9


def test_pauli_grading_and_multiplicative_basis():
    m = jo.build_m()
    gd = jo.pauli_grading(m)
    assert gr.check_grading(gd).ok
    assert gr.type_vector(gd) == (9,)
    assert gr.universal_group(gd).is_isomorphic_to(
        gr.FgAbelianGroup(0, (3, 3)))
    for i in range(9):
        for j in range(9):
            assert len(m.table.prod[i][j]) <= 1
    (k,) = [k for k, c in m.unit.items() if c == 1]
    assert m.meta["degrees"][k] == (0, 0)


def test_octonion_grading_on_j():
    j = jo.build_j()
    g5 = jo.jordan_octonion_grading(j)
    assert gr.check_grading(g5).ok
    dims = sorted(s.dim for _, s in g5.components)
    assert dims == [1] * 24 + [3]
    g3 = jo.jordan_coarse_z23_grading(j)
    assert gr.check_grading(g3).ok
    assert gr.type_vector(g3) == (0, 0, 7, 0, 0, 1)  # neutral 6-dim, others 3
    assert gr.is_refinement(g5, g3)


def test_z_grading_on_j():
    j = jo.build_j()
    gz = jo.jordan_z_grading(j)
    assert gr.check_grading(gz).ok
    dims = {d[0]: s.dim for d, s in gz.components}
    assert dims == {-2: 1, -1: 8, 0: 9, 1: 8, 2: 1}
    # J_2 = R(E22 - E33 + iota1(1))
    top = gz.component((2,))
    assert top.dim == 1
    nz = top.basis[0]
    i11 = j.meta["iota_idx"][(1, 0)]
    assert set(nz) == {1, 2, i11}
    assert nz[1] == -nz[2] == nz[i11]
    # J_0 contains E11 and E22 + E33
    mid = gz.component((0,))
    e11 = {0: Fraction(1)}
    e22e33 = {1: Fraction(1), 2: Fraction(1)}
    assert mid.contains(e11) and mid.contains(e22e33)


def test_z_x_z23_grading_on_j():
    j = jo.build_j()
    gzz = jo.jordan_z_x_z23_grading(j)
    assert gr.check_grading(gzz).ok
    assert gr.is_refinement(gzz, jo.jordan_z_grading(j))
    assert sum(s.dim for _, s in gzz.components) == 27


def test_r_commutators_are_derivations():
    j = jo.build_j()
    import random
    rng = random.Random(12)
    for _ in range(25):
        i, k = rng.randrange(27), rng.randrange(27)
        comm = sa.mat_commutator(j.r_operator({i: Fraction(1)}),
                                 j.r_operator({k: Fraction(1)}))
        assert sa.leibniz_residual(j.table, comm)
