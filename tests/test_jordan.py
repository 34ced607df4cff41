import itertools
from fractions import Fraction

import pytest

from e6grad import gradings as gr
from e6grad import jordan as jo
from e6grad import linalg as la
from e6grad import structalg as sa
from e6grad.abgroup import FgAbelianGroup
from oracles import is_refinement, jordan_z_grading, leibniz_residual, refine


def sig(form):
    p, m, _ = la.signature(form)
    return p - m


def test_dimensions():
    assert jo.build_j().dim == 27
    assert jo.build_jc().dim == 27
    assert jo.build_m().dim == 9
    assert jo.build_ms().dim == 9


def dense_h3_diag_prod(coeff, gamma):
    """All n^2 products of H3(C, diag(gamma)) from dense 3x3 matrices of
    dense coefficient lists, each xy and yx formed in full."""
    nc = coeff.dim
    dim = 3 + 3 * nc
    unit = [coeff.unit.get(p, Fraction(0)) for p in range(nc)]

    def conj(v):
        if coeff.swap:
            return [v[1], v[0]]
        return [s * x for s, x in zip(coeff.conj_sign, v)]

    def zero():
        return [[[Fraction(0)] * nc for _ in range(3)] for _ in range(3)]

    def mat3_mul(x, y):
        out = zero()
        for i in range(3):
            for j in range(3):
                acc = [Fraction(0)] * nc
                for k in range(3):
                    for p, ap in enumerate(x[i][k]):
                        if ap == 0:
                            continue
                        for q, bq in enumerate(y[k][j]):
                            if bq == 0:
                                continue
                            for r, cr in coeff.mul(p, q).items():
                                acc[r] += ap * bq * cr
                out[i][j] = acc
        return out

    def matrix_of(idx):
        m = zero()
        if idx < 3:
            m[idx][idx] = list(unit)
            return m
        slot, b = divmod(idx - 3, nc)
        r, s = jo._POS[slot + 1]
        a = [Fraction(0)] * nc
        a[b] = Fraction(1)
        m[r][s] = a
        m[s][r] = [gamma[r] * gamma[s] * x for x in conj(a)]
        return m

    def coords_of(m):
        ref = next(t for t, u in enumerate(unit) if u)
        v = {}
        for i in range(3):
            scal = m[i][i][ref] / unit[ref]
            assert m[i][i] == [scal * u for u in unit]
            v[i] = scal
        for i in (1, 2, 3):
            r, s = jo._POS[i]
            for b in range(nc):
                v[3 + (i - 1) * nc + b] = m[r][s][b]
            assert m[s][r] == [gamma[r] * gamma[s] * x for x in conj(m[r][s])]
        return {k: x for k, x in v.items() if x}

    mats = [matrix_of(i) for i in range(dim)]
    prod = []
    for i in range(dim):
        row = []
        for j in range(dim):
            xy = mat3_mul(mats[i], mats[j])
            yx = mat3_mul(mats[j], mats[i])
            row.append(coords_of([[[(x + y) / 2 for x, y in zip(a, b)]
                                   for a, b in zip(ra, rb)]
                                  for ra, rb in zip(xy, yx)]))
        prod.append(row)
    return prod


@pytest.mark.parametrize("build, coeff, gamma", [
    (jo.build_j, jo.coeff_octonions, (1, -1, 1)),
    (jo.build_jc, jo.coeff_octonions, (1, 1, 1)),
    (jo.build_ms, jo.coeff_rr, (1, 1, 1)),
])
def test_h3_tables_match_dense_matrix_products(build, coeff, gamma):
    got = build().table.prod
    want = dense_h3_diag_prod(coeff(), gamma)
    assert len(got) == len(want)
    for i, (grow, wrow) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(grow, wrow)):
            assert g == w, (i, j)
            assert all(type(x) is Fraction for x in g.values()), (i, j)


def test_h3_rejects_broken_coefficient_algebras():
    # octonions whose "conjugation" fixes every unit
    broken = jo.coeff_octonions()
    broken.conj_sign = [Fraction(1)] * 8
    with pytest.raises(ValueError, match="not a multiple of the unit"):
        jo.build_h3_diag(broken, (1, -1, 1), "J")
    # R+R with (1, 0) in place of its unit (1, 1)
    broken = jo.coeff_rr()
    broken.unit = {0: Fraction(1)}
    with pytest.raises(ValueError, match="not gamma-hermitian"):
        jo.build_h3_diag(broken, (1, 1, 1), "Ms")


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


def test_trace_form_columns_are_the_traces_of_products():
    for build in (jo.build_j, jo.build_m):
        j = build()
        form = j.trace_form()
        for b in range(j.dim):
            assert all(form[b].values()) and list(form[b]) == sorted(form[b])
            for a in range(j.dim):
                assert form[b].get(a, 0) == j.trace_of(j.table.prod[a][b])


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
    from e6grad.scalar import Cyc
    zero, one = Cyc(0), Cyc(1)
    gam = [{0: one}, {2: one}, {1: one}]  # columns of E11 + E23 + E32
    # solve over the 18 real coordinates of a 3x3 complex matrix
    unknowns = [(i, j, part) for i in range(3) for j in range(3)
                for part in range(2)]
    cols = []
    for (i, j, part) in unknowns:
        # the matrix with one entry at row i, column j, and its conj(x)^t
        x = [{} for _ in range(3)]
        x[j][i] = one if part == 0 else Cyc(0, 0, 0, 1)
        conj_t = [{} for _ in range(3)]
        conj_t[i][j] = x[j][i].conj()
        tx = la.mat_mul(la.mat_mul(gam, conj_t), gam)
        col = []
        for a in range(3):
            for b in range(3):
                col.extend((tx[b].get(a, zero) - x[b].get(a, zero)).c)
        cols.append([Fraction(v) for v in col])
    m = [{u: cols[u][r] for u in range(18) if cols[u][r]} for r in range(36)]
    assert len(la.kernel(m, 18)) == 9


def test_pauli_grading_and_multiplicative_basis():
    m = jo.build_m()
    gd = gr.GradedDecomposition.from_degree_map(
        m.table, FgAbelianGroup(0, (3, 3)), m.meta["degrees"])
    assert gr.check_grading(gd).ok
    assert gr.type_vector(gd) == (9,)
    assert gr.universal_group(gd).is_isomorphic_to(
        FgAbelianGroup(0, (3, 3)))
    for i in range(9):
        for j in range(9):
            assert len(m.table.prod[i][j]) <= 1
    (k,) = [k for k, c in m.unit.items() if c == 1]
    assert m.meta["degrees"][k] == (0, 0)


def test_octonion_grading_on_j():
    j = jo.build_j()
    degs = jo.octonion_z2_degrees(j)
    g5 = gr.GradedDecomposition.from_degree_map(
        j.table, FgAbelianGroup(0, (2,) * 5), degs)
    assert gr.check_grading(g5).ok
    dims = sorted(s.dim for _, s in g5.components)
    assert dims == [1] * 24 + [3]
    g3 = gr.GradedDecomposition.from_degree_map(
        j.table, FgAbelianGroup(0, (2,) * 3), [d[:3] for d in degs])
    assert gr.check_grading(g3).ok
    assert gr.type_vector(g3) == (0, 0, 7, 0, 0, 1)  # neutral 6-dim, others 3
    assert is_refinement(g5, g3)


def test_z_grading_on_j():
    j = jo.build_j()
    gz = jordan_z_grading(j)
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
    coarse = gr.GradedDecomposition.from_degree_map(
        j.table, FgAbelianGroup(0, (2,) * 3),
        [d[:3] for d in jo.octonion_z2_degrees(j)])
    gzz = refine(jordan_z_grading(j), coarse)
    assert gr.check_grading(gzz).ok
    assert is_refinement(gzz, jordan_z_grading(j))
    assert sum(s.dim for _, s in gzz.components) == 27


def test_r_commutators_are_derivations():
    j = jo.build_j()
    import random
    rng = random.Random(12)
    for _ in range(25):
        i, k = rng.randrange(27), rng.randrange(27)
        comm = la.commutator(j.r_operator({i: Fraction(1)}),
                             j.r_operator({k: Fraction(1)}))
        assert leibniz_residual(j.table, comm)
