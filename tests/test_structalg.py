import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6grad import composition as co
from e6grad import jordan as jo
from e6grad import liemodels as lm
from e6grad import linalg as la
from e6grad import rootsys as rs
from e6grad import structalg as sa
from e6grad.abgroup import FgAbelianGroup
from e6grad.scalar import CYC_ONE, I as CYC_I, OMEGA, ZETA, Cyc
from oracles import (cyc_restriction, killing_ad_invariance, leibniz_kernel,
                     leibniz_residual)


def cols(m):
    """The sparse columns of a dense square matrix."""
    return [{k: row[l] for k, row in enumerate(m) if row[l]}
            for l in range(len(m))]


def zero_algebra(n=1):
    return sa.AlgebraTable(n, [f"b{i}" for i in range(n)],
                           [[{} for _ in range(n)] for _ in range(n)])


def test_zero_algebra_is_lie_and_jordan():
    t = zero_algebra()
    assert t.check_lie().ok
    assert t.check_jordan().ok


def test_check_lie_finds_violations():
    # b0 * b0 = b0 breaks anticommutativity
    t = sa.AlgebraTable(1, ["b"], [[{0: Fraction(1)}]])
    rep = t.check_lie()
    assert not rep.ok and rep.name == "anticommutative"


def test_sl2_is_lie():
    # h, e, f
    prod = [[{} for _ in range(3)] for _ in range(3)]
    prod[0][1] = {1: Fraction(2)}
    prod[1][0] = {1: Fraction(-2)}
    prod[0][2] = {2: Fraction(-2)}
    prod[2][0] = {2: Fraction(2)}
    prod[1][2] = {0: Fraction(1)}
    prod[2][1] = {0: Fraction(-1)}
    t = sa.AlgebraTable(3, ["h", "e", "f"], prod)
    assert t.check_lie().ok
    k = sa.killing_form(t)
    assert k == cols([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert k[0][0] == 8 and k[2][1] == 4 and k[1][2] == 4
    assert la.signature(k) == (2, 1, 0)
    assert killing_ad_invariance(t, k).ok
    # invariance ties kappa(h, h) to 2 kappa(e, f), on either side of K
    for bad in (cols([[9, 0, 0], [0, 0, 4], [0, 4, 0]]),
                cols([[8, 0, 0], [0, 0, 4], [0, 3, 0]])):
        rep = killing_ad_invariance(t, bad)
        assert not rep.ok and rep.name == "killing-invariance"


def test_killing_form_is_the_trace_of_ad_products(tits):
    t = tits.table
    n = t.dim
    # trace(ad b_i ad b_j) = sum over l, k of (ad b_i)[k][l] (ad b_j)[l][k]
    want = [[sum(c * d for l in range(n) for k, c in t.prod[i][l].items()
                 if (d := t.prod[j][k].get(l)))
             for j in range(n)] for i in range(n)]
    k = sa.killing_form(t)
    assert k == cols(want)
    assert all(list(col) == sorted(col) for col in k)
    assert all(type(x) is Fraction for col in k for x in col.values())


def test_center_and_derived():
    prod = [[{} for _ in range(2)] for _ in range(2)]
    t = sa.AlgebraTable(2, ["a", "b"], prod)  # abelian
    assert sa.center(t).dim == 2
    assert sa.derived_algebra(t).dim == 0


def test_derived_and_closure_heisenberg():
    # [x, y] = z
    prod = [[{} for _ in range(3)] for _ in range(3)]
    prod[0][1] = {2: Fraction(1)}
    prod[1][0] = {2: Fraction(-1)}
    t = sa.AlgebraTable(3, ["x", "y", "z"], prod)
    assert t.check_lie().ok
    der = sa.derived_algebra(t)
    assert der.dim == 1
    assert sa.center(t).dim == 1
    clo = sa.closure(t, [{0: Fraction(1)}, {1: Fraction(1)}])
    assert clo.dim == 3


def test_twist_z2_requires_grading():
    prod = [[{} for _ in range(2)] for _ in range(2)]
    prod[0][1] = {0: Fraction(1)}
    prod[1][0] = {0: Fraction(-1)}
    t = sa.AlgebraTable(2, ["x", "y"], prod)
    with pytest.raises(ValueError):
        sa.twist_z2(t, [1, 1], -1)  # [odd, odd] lands in odd: invalid


def test_twist_z2_rejects_a_parity_other_than_0_or_1():
    # b0 b0 = b0: a parity of 2 would pass the grading check as even and
    # be twisted as odd
    prod = [[{0: Fraction(1)}, {}], [{}, {}]]
    t = sa.AlgebraTable(2, ["a", "b"], prod)
    for parity in ([2, 0], [0, -1], [0]):
        with pytest.raises(ValueError, match="0 or 1"):
            sa.twist_z2(t, parity, -1)
    assert sa.twist_z2(t, [0, 0], -1).prod == prod


@pytest.mark.parametrize("sign", [-1, 1, None])
def test_build_mirrors_with_its_sign(sign):
    n = 6
    calls = []

    def cell(i, j):  # neither symmetric nor antisymmetric
        return {(i + j) % n: Fraction(n * i + j + 1)}

    def mul(i, j):  # with an explicit zero, which build drops
        calls.append((i, j))
        return {**cell(i, j), (i + j + 1) % n: 0}

    t = sa.AlgebraTable.build(n, [f"b{i}" for i in range(n)], mul, sign)
    if sign is None:
        assert calls == [(i, j) for i in range(n) for j in range(n)]
    else:
        assert calls == [(i, j) for i in range(n) for j in range(i, n)]
    for i in range(n):
        for j in range(n):
            if sign is None or i <= j:
                assert t.prod[i][j] == cell(i, j)
            else:
                assert t.prod[i][j] == {
                    k: sign * v for k, v in t.prod[j][i].items()}


def test_killing_ratio_whole_algebra_is_one():
    table = co.octonion_table()
    ders = sa.derivations(table)
    n = ders.table.dim
    whole = sa.Subspace(n, [{t: Fraction(1)} for t in range(n)])
    assert sa.killing_ratio(ders.table, whole) == 1


def test_killing_ratio_rejects_nonproportional():
    # direct sum sl2 + sl2: restriction to a diagonal-ish non-subalgebra
    prod = [[{} for _ in range(2)] for _ in range(2)]
    t = sa.AlgebraTable(2, ["a", "b"], prod)
    sub = sa.Subspace(2, [{0: Fraction(1)}])
    with pytest.raises(ValueError):
        sa.killing_ratio(t, sub)  # abelian: Killing form vanishes


def test_killing_ratio_checks_every_entry():
    """On sl2 + sl2 (h1, e1, f1, h2, e2, f2): kappa_L(h2, h2) = 8 where the
    Killing form of span{h1, e1, f1, h2} vanishes, and the ratios 2 on h1
    and 1 on h2 differ for span{h1, e1, h2, e2, f2}; both raise."""
    prod = [[{} for _ in range(6)] for _ in range(6)]
    for o in (0, 3):
        h, e, f = o, o + 1, o + 2
        prod[h][e], prod[e][h] = {e: Fraction(2)}, {e: Fraction(-2)}
        prod[h][f], prod[f][h] = {f: Fraction(-2)}, {f: Fraction(2)}
        prod[e][f], prod[f][e] = {h: Fraction(1)}, {h: Fraction(-1)}
    t = sa.AlgebraTable(6, [f"b{i}" for i in range(6)], prod)
    assert t.check_lie().ok

    def span(idx):
        return sa.Subspace(6, [{i: Fraction(1)} for i in idx])

    assert sa.killing_ratio(t, span(range(3))) == 1
    for idx in ((0, 1, 2, 3), (0, 1, 3, 4, 5)):
        with pytest.raises(ValueError, match="not proportional"):
            sa.killing_ratio(t, span(idx))


def test_subalgebra_table_rejects_nonclosed():
    prod = [[{} for _ in range(3)] for _ in range(3)]
    prod[0][1] = {2: Fraction(1)}
    prod[1][0] = {2: Fraction(-1)}
    t = sa.AlgebraTable(3, ["x", "y", "z"], prod)
    sub = sa.Subspace(3, [{0: Fraction(1)}, {1: Fraction(1)}])
    with pytest.raises(ValueError):
        sa.subalgebra_table(t, sub)


@pytest.fixture(scope="module")
def der_j(albert):
    """J and Der(J), spanned by the [R_x, R_y] in ``build_albert``."""
    return albert.meta["jordan"], albert.meta["derivations"]


def rational_mat(ders, t):
    """The t-th basis derivation as sparse columns of Fractions."""
    d = ders.denoms[t]
    return [{k: Fraction(x, d) for k, x in col.items()}
            for col in ders.int_mats[t]]


def entries(cols):
    """The entries of a map given by columns, as {(row, column): value}."""
    return {(k, l): x for l, col in enumerate(cols) for k, x in col.items()}


def product_commutator(a, b):
    """[a, b] as the difference of the two products, formed with
    ``linalg.mat_mul``; an oracle apart from ``linalg.commutator``."""
    ab, ba = la.mat_mul(a, b), la.mat_mul(b, a)
    out = []
    for u, v in zip(ab, ba):
        col = {k: u.get(k, 0) - v.get(k, 0) for k in u.keys() | v.keys()}
        out.append({k: x for k, x in col.items() if x})
    return out


def test_derivations_of_jordan_j(der_j):
    j, ders = der_j
    assert ders.dim == 52
    # spot-verify returned kernel vectors satisfy the Leibniz system
    for t in range(0, ders.dim, 10):
        assert leibniz_residual(j.table, rational_mat(ders, t))
    sig = la.signature(sa.killing_form(ders.table))
    assert sig[0] - sig[1] == -20  # Der(J) is the -20 real form of f4
    assert ders.table.check_lie().ok


def test_derivations_of_m():
    m = jo.build_m()
    ders = sa.derivations(m.table)
    assert ders.dim == 8
    # ungraded: every derivation has degree ()
    assert set(ders.blocks) == {()}
    sig = la.signature(sa.killing_form(ders.table))
    assert sig[0] - sig[1] == 0


@pytest.mark.parametrize("case", ["sl2", "heisenberg", "dual numbers",
                                  "octonions"])
def test_derivations_of_small_algebras_match_every_ordered_pair(case):
    """Dimensions 3, 6, 1 and 14.  sl2 and the Heisenberg algebra are
    anticommutative and Q[x]/(x^2) is commutative, so their Leibniz rows
    come from the pairs i <= j; the octonions are neither, so from every
    ordered pair.  Each span equals the kernel of the equations of every
    ordered pair, by Fractions."""
    one = Fraction(1)
    dual = [[{0: one}, {1: one}], [{1: one}, {}]]  # 1 and x, x^2 = 0
    table, dim = {
        "sl2": (anticommutative_table(3, [(0, 1, {1: 2}), (0, 2, {2: -2}),
                                          (1, 2, {0: 1})]), 3),
        "heisenberg": (anticommutative_table(3, [(0, 1, {2: 1})]), 6),
        "dual numbers": (sa.AlgebraTable(2, ["1", "x"], dual), 1),
        "octonions": (co.octonion_table(), 14),
    }[case]
    symmetric = (table.check_anticommutative().ok
                 or table.check_commutative().ok)
    assert symmetric == (case != "octonions")
    ders = sa.derivations(table)
    assert ders.dim == dim
    assert flat_span(ders).basis == leibniz_kernel(table).basis


def flat_span(ders):
    """The span of the basis derivations, entry (k, l) at n l + k, by
    Fractions."""
    n = ders.algebra.dim
    return sa.Subspace(n * n, [
        {n * l + k: Fraction(x, d) for l, col in enumerate(w)
         for k, x in col.items()}
        for w, d in zip(ders.int_mats, ders.denoms)])


def test_inner_derivations_span_the_leibniz_kernel(der_j, tits):
    """The builders span Der(J) by the [R_x, R_y], Der(O) by the d_{a,b}
    and Der(M) by the [R_x, R_y] (Jacobson 1949; Schafer 1966, ch. III).
    On the three tables, that span is the kernel of the ungraded Leibniz
    system, and the basis reduced from it is the kernel's basis, up to
    order."""
    for inner in (der_j[1], tits.meta["ders_o"], tits.meta["ders_m"]):
        leibniz = sa.derivations(inner.algebra)
        assert flat_span(inner).basis == flat_span(leibniz).basis
        assert sorted(map(repr, zip(inner.int_mats, inner.denoms))) == \
            sorted(map(repr, zip(leibniz.int_mats, leibniz.denoms)))


def test_derivations_reject_a_map_with_entries_in_two_degrees():
    """A map fed to ``Derivations`` with a degree function must be
    homogeneous; the refusal names the entry whose degree differs."""
    table = co.octonion_table()
    degs, group = co.octonion_degrees(), FgAbelianGroup(0, (2, 2, 2))

    def degree(k, l):
        return group.sub(degs[k], degs[l])

    d12 = co.inner_derivation(table, {1: 1}, {2: 1})
    assert sa.Derivations(table, [d12], degree).blocks == [(1, 1, 0)]
    bad = [dict(col) for col in d12]
    bad[7][7] = 1  # degree (0, 0, 0), where d12 has (1, 1, 0)
    with pytest.raises(ValueError, match=r"map 1 has entry \(7, 7\) of "
                       r"degree \(0, 0, 0\) and an entry of degree "
                       r"\(1, 1, 0\)"):
        sa.Derivations(table, [d12, bad], degree)
    # by default every entry has degree (): d12 + d13, with entries of degrees
    # (1, 1, 0) and (0, 1, 0) under O's grading, has degree ()
    d13 = co.inner_derivation(table, {1: 1}, {3: 1})
    mixed = [{**a, **b} for a, b in zip(d12, d13)]
    with pytest.raises(ValueError, match="map 0 has entry"):
        sa.Derivations(table, [mixed], degree)
    assert sa.Derivations(table, [mixed]).blocks == [()]


def reference_commutator_table(ders, group):
    """The commutator table by the Fraction path: [D_i, D_j] of the rational
    matrices for every ordered pair, as products, coordinates read at the
    free unknowns, and a dense Fraction residual against the kernel vectors
    of the block ``group.add(blocks[i], blocks[j])``."""
    n = ders.dim
    cols = [rational_mat(ders, t) for t in range(n)]
    mats = [entries(c) for c in cols]
    by_block = {}
    for t, g in enumerate(ders.blocks):
        by_block.setdefault(g, []).append(t)
    free = {}  # derivation -> its unknown: 1 there, 0 in the block's others
    for g, ts in by_block.items():
        for t in ts:
            free[t] = next(kl for kl, x in mats[t].items() if x == 1
                           and all(kl not in mats[s] for s in ts if s != t))
    prod = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append({})
                continue
            comm = entries(product_commutator(cols[i], cols[j]))
            g = group.add(ders.blocks[i], ders.blocks[j])
            ts = by_block.get(g, [])
            unknowns = sorted({kl for t in ts for kl in mats[t]} |
                              set(comm))
            cs = [Fraction(comm.get(free[t], 0)) for t in ts]
            for kl in unknowns:
                s = Fraction(comm.get(kl, 0))
                for c, t in zip(cs, ts):
                    s -= c * mats[t].get(kl, 0)
                assert s == 0, (i, j, kl)
            row.append({t: c for t, c in zip(ts, cs) if c})
        prod.append(row)
    return prod


def assert_same_cells(got, want):
    assert [[list(c.items()) for c in row] for row in got] == \
        [[list(c.items()) for c in row] for row in want]
    assert all(type(x) is Fraction
               for row in got for c in row for x in c.values())


def test_integer_commutator_table_matches_fraction_path(der_j, tits):
    m = jo.build_m()
    for ders, group in ((der_j[1], FgAbelianGroup(0, (2,) * 5)),
                        (tits.meta["ders_o"], FgAbelianGroup(0, (2, 2, 2))),
                        (tits.meta["ders_m"], FgAbelianGroup(0, (3, 3))),
                        (sa.derivations(m.table), FgAbelianGroup(0))):
        assert_same_cells(ders.table.prod,
                          reference_commutator_table(ders, group))
        for t, w in enumerate(ders.int_mats):
            assert len(w) == ders.algebra.dim
            assert math.gcd(*entries(w).values()) == 1 and ders.denoms[t] > 0
            # apply reads the integer form: column l of int_mats[t] / denoms[t]
            mat = rational_mat(ders, t)
            for l in range(ders.algebra.dim):
                col = ders.apply(t, {l: Fraction(1)})
                assert col == mat[l]
                assert all(type(x) is Fraction for x in col.values())


def test_coords_in_block_reads_free_unknowns(der_j):
    """The coordinates of (2/3) D_t, a map of D_t's block, are its entries
    at the pivots, the Leibniz free unknowns; a sum over two blocks reads
    both."""
    _, ders = der_j
    for t in (0, 17, 51):
        mat = [{k: 2 * x for k, x in col.items()} for col in ders.int_mats[t]]
        assert ders.coords(mat, 3 * ders.denoms[t]) == {t: Fraction(2, 3)}
    assert ders.blocks[0] != ders.blocks[51]
    both = [{**a, **b} for a, b in zip(ders.int_mats[0], ders.int_mats[51])]
    assert ders.coords(both, 1) == {0: ders.denoms[0], 51: ders.denoms[51]}


def test_coords_in_block_rejects_non_derivations():
    ders = sa.derivations(co.octonion_table())
    # the identity map is not a derivation
    ident = [{k: 1} for k in range(8)]
    with pytest.raises(ValueError, match="not in the derivation span"):
        ders.coords(ident, 1)
    # Der(O) is skew for the norm, so no derivation plus a multiple of one
    # matrix unit is a derivation
    d = ders.denoms[0]
    for k, l in entries(ders.int_mats[0]):
        bad = [{k2: 2 * x for k2, x in col.items()}
               for col in ders.int_mats[0]]
        bad[l][k] += d  # 2 d (D_0 + E_kl / 2)
        with pytest.raises(ValueError, match="not in the derivation span"):
            ders.coords(bad, 2 * d)
    with pytest.raises(ValueError, match="7 columns for a 8-dim algebra"):
        ders.coords(ders.int_mats[0][:7], 1)


def test_subspace_coords():
    f = Fraction
    v1 = {0: f(1), 2: f(2), 4: f(1)}
    v2 = {1: f(1), 2: f(-1), 4: f(3)}
    sp = sa.Subspace(5, [v1, v2])
    assert sp.pivots == [0, 1]
    member = {0: f(3), 1: f(-2), 2: f(8), 4: f(-3)}  # 3 v1 - 2 v2
    assert sp.coords(member) == {0: 3, 1: -2}
    # a zero coefficient: 2 v1 has no coordinate on v2
    assert sp.coords({k: 2 * x for k, x in v1.items()}) == {0: 2}
    assert sp.coords({}) == {}
    # the same pivot coordinates, changed at one coordinate off the pivots
    for base in (member, {k: 2 * x for k, x in v1.items()}, {}):
        for j in (2, 3, 4):
            w = dict(base)
            w[j] = w.get(j, 0) + f(1, 3)
            assert sp.coords(w) is None, (base, j)


def test_subspace_coords_rejects_entries_outside_the_space():
    sp = sa.Subspace(2, [{1: Fraction(1)}])
    assert sp.coords({1: Fraction(1)}) == {0: 1}
    assert sp.coords({1: Fraction(1), 2: Fraction(5)}) is None
    assert not sp.contains({0: Fraction(1), 5: Fraction(1)})
    with pytest.raises(ValueError, match="outside the 2-dim space"):
        sa.Subspace(2, [{2: Fraction(1)}])


def _count_products(monkeypatch) -> list:
    """Record every (i, j) whose product a RealForm forms."""
    calls = []
    mul = sa.RealForm._mul

    def counted(self, i, j):
        calls.append((i, j))
        return mul(self, i, j)

    monkeypatch.setattr(sa.RealForm, "_mul", counted)
    return calls


def test_real_form_mirrors_anticommutative_and_commutative_tables(monkeypatch):
    calls = _count_products(monkeypatch)
    flag = lm.FlagRealForm()
    assert len(calls) == 78 * 79 // 2 == 3081
    assert set(calls) == {(i, j) for i in range(78) for j in range(i, 78)}
    assert flag.table.check_anticommutative()
    calls.clear()
    m = jo.build_m()
    assert len(calls) == 9 * 10 // 2 == 45
    assert m.table.check_commutative()


def test_real_form_forms_every_product_of_other_tables(monkeypatch, flag):
    rf = flag.meta["real_form"]
    cx = rf.complex
    # [h, w] made equal to [w, h] instead of its negative: one cell breaks
    # antisymmetry, and every other cell breaks symmetry.  The products
    # stay real: (iw)(ih) = (ih)(iw) = (1/3) I6.
    prod = [[dict(cell) for cell in row] for row in cx.prod]
    assert prod[76][77]
    prod[77][76] = dict(prod[76][77])
    odd = sa.AlgebraTable(cx.dim, cx.basis_names, prod)
    assert not odd.check_anticommutative() and not odd.check_commutative()
    calls = _count_products(monkeypatch)
    orf = sa.RealForm(odd, rf.complex_basis, rf.names)
    assert len(calls) == 78 ** 2
    basis = rf.complex_basis
    ref = [[rf.to_real_coords(odd.mul_vec(u, v)) for v in basis]
           for u in basis]
    assert orf.table.prod == ref
    assert ref[77][76] == ref[76][77] != {}
    # the mirrored flag table agrees with these products off that cell
    ref[77][76] = {k: -v for k, v in ref[76][77].items()}
    assert rf.table.prod == ref


def test_real_form_still_rejects_irrational_mirrored_products():
    # b0 b1 = z b0 is formed whether b1 b0 is its negative or itself, and
    # it is not in the real span
    basis, names = [{0: CYC_ONE}, {1: CYC_ONE}], ["b0", "b1"]
    for sign in (-1, 1):
        prod = [[{}, {0: ZETA}], [{0: sign * ZETA}, {}]]
        with pytest.raises(ValueError, match="not rational"):
            sa.RealForm(sa.AlgebraTable(2, names, prod), basis, names)


def _sl2_real_form():
    """su(1, 1) in sl2 = <e, f, h> ([h, e] = 2e, [h, f] = -2f, [e, f] = h)
    on the basis (e + f) / 2, i (e - f) / 2, i h / 3."""
    one, two = Fraction(1), Fraction(2)
    prod = [[{}, {2: one}, {0: -two}],
            [{2: -one}, {}, {1: two}],
            [{0: two}, {1: -two}, {}]]
    names = ["e", "f", "h"]
    half = Fraction(1, 2)
    basis = [{0: Cyc(half), 1: Cyc(half)},
             {0: CYC_I * half, 1: CYC_I * -half},
             {2: CYC_I * Fraction(1, 3)}]
    return sa.RealForm(sa.AlgebraTable(3, names, prod), basis,
                       ["p", "q", "ih"])


def _m_real_form():
    """M on its Pauli units, as ``jordan.build_m`` restricts it; several
    coordinates are two-term elements of Q(zeta_12), such as omega."""
    units = jo._pauli_matrices()
    basis = [dict(sorted((3 * i + j, x) for j, col in enumerate(units[d])
                         for i, x in col.items())) for d in sorted(units)]
    return sa.RealForm(jo._mat3_plus(), basis, [f"u{t}" for t in range(9)])


def _ms_real_form():
    """Ms = H3(R + R), as Mat3(Q)+ on E_ii and (E_ij +- E_ji) / 2 (i < j)."""
    half = Fraction(1, 2)
    basis = [{4 * i: CYC_ONE} for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        basis.append({3 * i + j: Cyc(half), 3 * j + i: Cyc(half)})
        basis.append({3 * i + j: Cyc(half), 3 * j + i: Cyc(-half)})
    return sa.RealForm(jo._mat3_plus(), basis, [f"s{t}" for t in range(9)])


@pytest.mark.parametrize("case", ["flag", "chevalley", "compact", "M", "Ms",
                                  "su(1,1)"])
def test_real_form_matches_the_cyc_restriction(case, flag, chevalley):
    rf = {"flag": lambda: flag.meta["real_form"],
          "chevalley": lambda: chevalley.meta["real_form"],
          "compact": lambda: rs.ChevalleyRealForm(rs.ChevalleyE6(), (1,) * 6),
          "M": _m_real_form, "Ms": _ms_real_form,
          "su(1,1)": _sl2_real_form}[case]()
    prod, coords = cyc_restriction(rf.complex, rf.complex_basis)
    n = rf.table.dim
    for i in range(n):
        for j in range(n):
            assert rf.table.prod[i][j] == prod[i][j], (i, j)
            assert list(prod[i][j]) == sorted(prod[i][j])
    # to_real_coords on complex vectors: basis products, a sum of two
    # basis vectors with Q(zeta_12) weights, and the image of b_0 under a
    # scaling by 2/3
    basis = rf.complex_basis
    for i in range(n):
        j = (i + 1) % n
        w = rf.complex.mul_vec(basis[i], basis[j])
        assert rf.to_real_coords(w) == coords(w)
        v = dict(basis[i])
        for k, c in basis[j].items():
            v[k] = v.get(k, 0) + Fraction(2, 3) * c
        assert rf.to_real_coords(v) == coords(v) == {i: 1, j: Fraction(2, 3)}
        for z in (CYC_I, OMEGA):
            v = {k: z * c for k, c in basis[i].items()}
            with pytest.raises(ValueError, match="not rational"):
                rf.to_real_coords(v)
            with pytest.raises(ValueError, match="not rational"):
                coords(v)


def reference_jordan_witness(table):
    """The Jordan identity column by column: for each triple a <= b <= c and
    each basis vector y, sum_x R_x(R_m y) - R_m(R_x y) over the pairs
    (x, m) = (a, b.c), (b, c.a), (c, a.b) of the integer-scaled table.
    Returns the first (a, b, c, y) with a nonzero sum, or None."""
    iprod, _ = table.int_scaled()
    n = table.dim

    def imul_vec(u, v):
        out = {}
        for i, a in u.items():
            row = iprod[i]
            for j, b in v.items():
                for k, c in row[j]:
                    s = out.get(k, 0) + a * b * c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return out

    basis = [{i: 1} for i in range(n)]
    pairprod = [[dict(iprod[i][j]) for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                trip = ((a, pairprod[b][c]), (b, pairprod[c][a]),
                        (c, pairprod[a][b]))
                for y in range(n):
                    acc = {}
                    for x, m in trip:
                        t1 = imul_vec(basis[x], imul_vec(m, basis[y]))
                        t2 = imul_vec(m, imul_vec(basis[x], basis[y]))
                        sa.vec_add_scaled(acc, t1, 1)
                        sa.vec_add_scaled(acc, t2, -1)
                    if acc:
                        return (a, b, c, y)
    return None


@pytest.fixture(scope="module")
def jordan_j_table():
    return jo.build_j().table


def corrupted_copy(table, cells):
    """A copy of ``table`` with b_i b_j's coordinate k raised by delta for
    each (i, j, k, delta) in ``cells``; the shared table is not touched."""
    prod = [[dict(cell) for cell in row] for row in table.prod]
    for i, j, k, delta in cells:
        cell = prod[i][j]
        cell[k] = cell.get(k, 0) + delta
        if not cell[k]:
            del cell[k]
    return sa.AlgebraTable(table.dim, table.basis_names, prod)


def jordan_corruptions(table, count, seed):
    """Seeded changes of one structure constant together with its (b, a)
    partner, so that the table stays commutative.  The first fills a cell
    that has no entry and the second changes the square b_0 b_0."""
    rng = random.Random(seed)
    n = table.dim
    empty = [(i, j) for i in range(n) for j in range(i, n)
             if not table.prod[i][j]]
    out = [rng.choice(empty), (0, 0)]
    out += [(rng.randrange(n), rng.randrange(n)) for _ in range(count - 2)]
    cells = []
    for i, j in out:
        k = rng.randrange(n)
        delta = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        change = [(i, j, k, delta)]
        if i != j:
            change.append((j, i, k, delta))
        cells.append(change)
    return cells


def test_check_jordan_rejects_commutative_corruptions(jordan_j_table):
    cells = jordan_corruptions(jordan_j_table, 8, seed=17)
    assert not jordan_j_table.prod[cells[0][0][0]][cells[0][0][1]]
    for change in cells:
        bad = corrupted_copy(jordan_j_table, change)
        rep = bad.check_jordan()
        assert not rep.ok and rep.name == "jordan", change
        assert rep.witness == reference_jordan_witness(bad), change
    assert jordan_j_table.check_jordan().ok
    assert reference_jordan_witness(jo.build_ms().table) is None


def test_check_jordan_rejects_non_commutative_change(jordan_j_table):
    bad = corrupted_copy(jordan_j_table, [(3, 12, 0, Fraction(1))])
    rep = bad.check_jordan()
    assert not rep.ok and rep.name == "commutative"
    assert rep.witness == (3, 12, 0)


def reference_jacobi_vector(table, i, j, k):
    """[b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] over the
    integer-scaled table, as a sparse dict; the oracle for the packed ints
    of ``check_jacobi``."""
    iprod, _ = table.int_scaled()
    acc = {}
    for x, cell in ((i, iprod[j][k]), (j, iprod[k][i]), (k, iprod[i][j])):
        for l, c in cell:
            for m, d in iprod[x][l]:
                s = acc.get(m, 0) + c * d
                if s:
                    acc[m] = s
                else:
                    del acc[m]
    return acc


def reference_jacobi_witness(table):
    """The first triple i < j < k with a nonzero Jacobi vector, or None."""
    n = table.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if reference_jacobi_vector(table, i, j, k):
                    return (i, j, k)
    return None


def anticommutative_table(n, cells):
    """The table with b_i b_j = v and b_j b_i = -v for each (i, j, v) in
    ``cells`` (i != j), and every other product zero."""
    prod = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, v in cells:
        prod[i][j] = {k: Fraction(c) for k, c in v.items() if c}
        prod[j][i] = {k: -Fraction(c) for k, c in v.items() if c}
    return sa.AlgebraTable(n, [f"b{i}" for i in range(n)], prod)


def test_check_jacobi_rejects_corrupted_sl2():
    # [h, e] = 2e, [h, f] = -2f and [e, f] = h + e: the constant [e, f]_e
    # and its partner [f, e]_e changed from 0, so the table stays
    # anticommutative and the Jacobi vector of (h, e, f) is 2e
    sl2 = anticommutative_table(3, [(0, 1, {1: 2}), (0, 2, {2: -2}),
                                    (1, 2, {0: 1})])
    assert sl2.check_lie().ok
    bad = anticommutative_table(3, [(0, 1, {1: 2}), (0, 2, {2: -2}),
                                    (1, 2, {0: 1, 1: 1})])
    assert bad.check_anticommutative().ok
    rep = bad.check_lie()
    assert not rep.ok and rep.name == "jacobi" and rep.witness == (0, 1, 2)
    assert reference_jacobi_vector(bad, 0, 1, 2) == {1: 2}


def test_check_jacobi_sees_a_borrow_across_slots():
    # A negative low coordinate under a positive higher one, which slots
    # that are too narrow pack to zero.  The first table is anticommutative
    # with M = 2, and its b_0 is central, so the first three triples pass;
    # its Jacobi vector -8 b_1 + b_2 needs slots of more than 3 bits, the
    # width that holds every constant.  The second has n = 3 and M = 3, and
    # its vector -64 b_0 + b_1 needs more than 6 bits, the width of slots
    # sized by n M^2 = 27 or by 3 n M = 27 in place of 3 n M^2 = 81.
    t = anticommutative_table(4, [(2, 3, {1: -2, 2: -2}),
                                  (3, 1, {1: -1, 2: 2, 3: 1}),
                                  (1, 2, {1: 2, 2: -1, 3: 2})])
    assert t.check_anticommutative().ok
    assert reference_jacobi_vector(t, 1, 2, 3) == {1: -8, 2: 1}
    rep = t.check_lie()
    assert not rep.ok and rep.name == "jacobi" and rep.witness == (1, 2, 3)
    assert reference_jacobi_witness(t) == (1, 2, 3)
    cells = {(0, 0): (3, -1, 1), (0, 1): (3, -3, -1), (0, 2): (3, 0, 0),
             (1, 0): (3, 0, 0), (1, 1): (3, 0, 0), (1, 2): (-3, -3, -3),
             (2, 0): (-3, -3, 1), (2, 1): (2, 0, 0), (2, 2): (1, -1, 0)}
    prod = [[{m: Fraction(v) for m, v in enumerate(cells[x, y]) if v}
             for y in range(3)] for x in range(3)]
    t = sa.AlgebraTable(3, ["a", "b", "c"], prod)
    assert reference_jacobi_vector(t, 0, 1, 2) == {0: -64, 1: 1}
    rep = t.check_jacobi()
    assert not rep.ok and rep.witness == (0, 1, 2)


def test_check_jacobi_at_the_bound():
    # b_x b_y = sum_m M r_y r_m b_m with r = (1, 1, 1, -1): the Jacobi vector
    # of (i, j, k) is n M^2 (r_i + r_j + r_k) r, so that of (0, 1, 2) has
    # every coordinate at +-3 n M^2, the bound the slot width is taken from.
    # The table is not anticommutative; check_jacobi alone is asked.
    n, big, r = 4, 3, (1, 1, 1, -1)
    prod = [[{m: Fraction(big * r[y] * r[m]) for m in range(n)}
             for y in range(n)] for _ in range(n)]
    t = sa.AlgebraTable(n, [f"b{i}" for i in range(n)], prod)
    bound = 3 * n * big * big
    assert reference_jacobi_vector(t, 0, 1, 2) == \
        {m: bound * r[m] for m in range(n)}
    rep = t.check_jacobi()
    assert not rep.ok and rep.witness == (0, 1, 2)
    # the other triples have r_i + r_j + r_k = 1: vectors at a third of it
    assert reference_jacobi_vector(t, 1, 2, 3) == \
        {m: bound // 3 * r[m] for m in range(n)}


MODEL_NAMES = ["albert", "albert_plus", "tits", "tits_split", "flag",
               "chevalley"]


def lie_corruptions(table, count, seed):
    """Seeded changes of one structure constant b_i b_j, coordinate k,
    together with its partner b_j b_i, so that the table stays
    anticommutative."""
    rng = random.Random(seed)
    n = table.dim
    cells = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(n)
        delta = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
        cells.append([(i, j, k, delta), (j, i, k, -delta)])
    return cells


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_check_jacobi_agrees_with_the_triple_loop_on_corruptions(ws, name):
    table = ws.model(name).table
    assert table.check_lie().ok
    for change in lie_corruptions(table, 8, seed=f"jacobi/{name}"):
        bad = corrupted_copy(table, change)
        assert bad.check_anticommutative().ok, change
        rep = bad.check_lie()
        want = reference_jacobi_witness(bad)
        assert (rep.ok, rep.witness) == (want is None, want), change
        assert rep.ok or rep.name == "jacobi", change
        # the first failing triple starts in the corrupted table's own S
        assert rep.ok or rep.witness[0] in bad.generators(), change
    assert table.check_lie().ok  # the session's table was not touched


def signed_permutation(table, rng):
    """The table in the basis f_i = s_i b_{p(i)} for a random permutation p
    and random signs s."""
    n = table.dim
    p = list(range(n))
    rng.shuffle(p)
    s = [rng.choice((1, -1)) for _ in range(n)]
    q = {pi: i for i, pi in enumerate(p)}
    prod = [[{q[k]: c * s[i] * s[j] * s[q[k]]
              for k, c in table.prod[p[i]][p[j]].items()}
             for j in range(n)] for i in range(n)]
    return sa.AlgebraTable(n, [table.basis_names[i] for i in p], prod)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_generating_set_proof_on_permuted_models(ws, name):
    """On a model and two signed permutations of it, S = ``generators()``
    generates (the Fraction ``closure`` of S is everything), is ascending
    and much smaller than the basis, and ``check_lie`` passes as the
    triple loop does; on corruptions of the permutations the verdict and
    witness are the triple loop's, and the witness starts in the corrupted
    table's S."""
    model = ws.model(name).table
    n = model.dim
    rng = random.Random(f"generators/{name}")
    for table in (model, signed_permutation(model, rng),
                  signed_permutation(model, rng)):
        gens = table.generators()
        assert gens == sorted(gens) and gens[:2] == [0, 1]
        assert 2 <= len(gens) <= 12
        assert sa.closure(table, [{s: Fraction(1)} for s in gens]).dim == n
        assert table.check_lie().ok
        assert reference_jacobi_witness(table) is None
        if table is model:
            continue
        for change in lie_corruptions(table, 4, seed=f"permuted/{name}"):
            bad = corrupted_copy(table, change)
            rep = bad.check_lie()
            want = reference_jacobi_witness(bad)
            assert (rep.ok, rep.witness) == (want is None, want), change
            assert rep.ok or rep.witness[0] in bad.generators(), change


def test_generators_of_abelian_and_heisenberg_tables():
    # no products: every basis vector is a generator
    assert zero_algebra(4).generators() == [0, 1, 2, 3]
    # [x, y] = z: x and y generate
    heis = anticommutative_table(3, [(0, 1, {2: 1})])
    assert heis.generators() == [0, 1]
    assert heis.check_lie().ok
    # sl2 on (h, e, f) needs all three; on (e, f, h), [e, f] = h
    sl2 = anticommutative_table(3, [(0, 1, {1: 2}), (0, 2, {2: -2}),
                                    (1, 2, {0: 1})])
    assert sl2.generators() == [0, 1, 2]
    efh = anticommutative_table(3, [(2, 0, {0: 2}), (2, 1, {1: -2}),
                                    (0, 1, {2: 1})])
    assert efh.generators() == [0, 1] and efh.check_lie().ok


def test_a_table_that_is_not_anticommutative_is_scanned_in_full():
    """b_0 b_0 = b_1, b_2 b_1 = b_4, b_2 b_4 = b_3, b_3 b_4 = b_1 and
    b_1 b_1 = b_1: S = [0, 2] generates, and the first failing triple
    (1, 3, 4) misses it, which the lemma allows only because the table is
    not anticommutative; the scan of every triple finds it."""
    cells = {(0, 0): 1, (2, 1): 4, (2, 4): 3, (3, 4): 1, (1, 1): 1}
    prod = [[{} for _ in range(5)] for _ in range(5)]
    for (i, j), k in cells.items():
        prod[i][j] = {k: Fraction(1)}
    t = sa.AlgebraTable(5, [f"b{i}" for i in range(5)], prod)
    assert not t.check_anticommutative()
    assert t.generators() == [0, 2]
    assert reference_jacobi_vector(t, 1, 3, 4) == {1: 1}
    assert reference_jacobi_witness(t) == (1, 3, 4)
    rep = t.check_jacobi()
    assert (rep.ok, rep.witness) == (False, (1, 3, 4))


def test_symmetry_scans_name_the_smallest_failing_coordinate(flag):
    t = flag.table
    assert t.check_anticommutative().ok and not t.prod[7][7]
    # b_40 b_3 changed at coordinates 61 and 12: the pair is (3, 40)
    for i, j in ((40, 3), (3, 40)):
        bad = corrupted_copy(t, [(i, j, 61, 1), (i, j, 12, Fraction(1, 3))])
        rep = bad.check_anticommutative()
        assert (rep.ok, rep.name, rep.witness, rep.detail) == \
            (False, "anticommutative", (3, 40, 12), "")
        assert rep.witness == reference_symmetry_witness(bad, -1)
    bad = corrupted_copy(t, [(7, 7, 60, 2), (7, 7, 11, -1)])
    rep = bad.check_anticommutative()
    assert (rep.ok, rep.witness, rep.detail) == \
        (False, (7, 7, 11), "nonzero square")
    assert rep.witness == reference_symmetry_witness(bad, -1)
    assert not bad.check_lie()


def test_commutative_scan_names_the_smallest_failing_coordinate():
    t = jo.build_m().table
    assert t.check_commutative().ok
    for i, j in ((5, 2), (2, 5)):
        bad = corrupted_copy(t, [(i, j, 8, 1), (i, j, 1, Fraction(-1, 2))])
        rep = bad.check_commutative()
        assert (rep.ok, rep.name, rep.witness, rep.detail) == \
            (False, "commutative", (2, 5, 1), "")
        assert rep.witness == reference_symmetry_witness(bad, 1)
        assert not bad.check_jordan()
    # a changed square keeps the table commutative
    assert corrupted_copy(t, [(4, 4, 0, 3)]).check_commutative().ok


def reference_symmetry_witness(table, sign):
    """The first (i, j, k), i <= j (i < j for sign 1) and k smallest, with
    b_j b_i != sign b_i b_j at coordinate k, over the Fraction cells."""
    n = table.dim
    for i in range(n):
        for j in range(i if sign < 0 else i + 1, n):
            a, b = table.prod[i][j], table.prod[j][i]
            for k in range(n):
                if b.get(k, 0) != sign * a.get(k, 0):
                    return (i, j, k)
    return None


def test_primitive_scales_to_a_primitive_integer_vector():
    f = Fraction
    assert sa.primitive({0: f(2, 3), 3: f(-4, 9)}) == ({0: 3, 3: -2}, f(9, 2))
    assert sa.primitive({5: 4, 1: -6}) == ({5: 2, 1: -3}, f(1, 2))
    assert sa.primitive({2: f(1), 0: f(-1, 6)}) == ({2: 6, 0: -1}, 6)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(st.integers(0, 8), small.filter(bool), min_size=1))
def test_primitive_property(v):
    w, d = sa.primitive(v)
    assert d > 0 and math.gcd(*w.values()) == 1
    assert all(type(x) is int for x in w.values())
    assert w == {k: d * x for k, x in v.items()}


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_int_span_agrees_with_subspace_coords(data):
    dim = data.draw(st.integers(1, 6))
    vec = st.dictionaries(st.integers(0, dim - 1), small.filter(bool),
                          max_size=dim)
    sub = sa.Subspace(dim, data.draw(st.lists(vec, max_size=4)))
    span = sa.IntSpan([sa.primitive(v)[0] for v in sub.basis], sub.pivots)
    inside: dict = {}
    for v in sub.basis:
        sa.vec_add_scaled(inside, v, data.draw(small))
    support = {k for v in sub.basis for k in v}
    # one entry changed, and one key that no row touches (dim is one)
    changed = [data.draw(st.integers(0, dim - 1)),
               data.draw(st.sampled_from(
                   [k for k in range(dim + 1) if k not in support]))]
    cases = [inside]
    for k in changed:
        w = dict(inside)
        w[k] = w.get(k, 0) + data.draw(small.filter(bool))
        cases.append({key: x for key, x in w.items() if x})
    assert sub.coords(inside) is not None
    for w in cases:
        if w:
            assert span.outside(sa.primitive(w)[0]) == \
                (sub.coords(w) is None), (sub.basis, w)
