import hashlib
import json
from fractions import Fraction

import pytest

from e6grad import composition as co
from e6grad import jsonio
from e6grad import liemodels as lm
from e6grad import linalg as la
from e6grad import rootsys as rs
from e6grad import structalg as sa
from e6grad.scalar import I as CYC_I
from oracles import flag_eigenspace_matches_basis, killing_ad_invariance


def sig(form):
    p, m, _ = la.signature(form)
    return p - m


def dense(form):
    """The dense matrix of a form given by sparse columns: k[i][j] is
    form(b_i, b_j)."""
    n = len(form)
    return [[form[j].get(i, Fraction(0)) for j in range(n)] for i in range(n)]


def restrict(form, idx):
    """The sparse columns of the block of a form on the basis indices idx."""
    pos = {t: a for a, t in enumerate(idx)}
    return [{pos[i]: x for i, x in form[j].items() if i in pos} for j in idx]


# SHA-256 of json.dumps(jsonio.table_to_json(table), sort_keys=True): every
# structure constant of the six models, pinned across refactors of the builds.
TABLE_SHA256 = {
    "albert":
        "cfa07e4c90c62673616e1b0f04c298aa21602f65ae88f2894c020aa6195773e4",
    "albert_plus":
        "a41cfd233aa3731d109e157b413e0a7c1fe14b1a00224e5e609e230eb1e7c040",
    "tits":
        "161ed1b203e9b1ce0952aac686e9f70010c0bc8ff5f6adf489f16a56a5f76e62",
    "tits_split":
        "389ca116c39e72df978552f20ec087000812825093e00d87ca404b458d4c54ec",
    "flag":
        "e21d1914e81eb35d552fbaa13811db15dc9ed17ba1e1cfdae27d76733357a91c",
    "chevalley":
        "ca5e93db9c5371a546f6d14e51596ebe3128cb27b6ecb4e1e468f474ab559e98",
}


@pytest.mark.parametrize("name", sorted(TABLE_SHA256))
def test_model_table_pinned(ws, name):
    doc = jsonio.table_to_json(ws.model(name).table)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == TABLE_SHA256[name]


def test_albert_model(albert):
    assert albert.dim == 78
    assert albert.table.check_lie().ok
    assert albert.killing_signature() == -14
    assert all(isinstance(c, (int, Fraction))
               for row in albert.table.prod for cell in row
               for c in cell.values())
    # even part is Der(J): 52-dim, restriction has signature -20
    k = dense(albert.killing())
    even = restrict(albert.killing(), range(52))
    assert sig(even) == -20
    # odd part restriction carries +6 (the negated J0 trace form)
    odd = restrict(albert.killing(), range(52, 78))
    assert sig(odd) == 6
    assert all(k[i][j] == 0 for i in range(52) for j in range(52, 78))


def test_albert_plus(ws):
    plus = ws.model("albert_plus")
    assert plus.table.check_lie().ok
    assert plus.killing_signature() == -26


def test_twist_relates_the_two_albert_models(ws, albert):
    """The twist is the eps = +1 algebra: for every pair x, y of J_0 basis
    vectors, the twisted [x, y] lies in Der(J) and acts on J as
    +[R_x, R_y]."""
    tw = sa.twist_z2(albert.table, albert.meta["parity"], -1)
    plus = ws.model("albert_plus")
    assert all(tw.prod[i][j] == plus.table.prod[i][j]
               for i in range(78) for j in range(78))
    j = albert.meta["jordan"]
    ders = albert.meta["derivations"]
    r_ops = [j.r_operator(v) for v in albert.meta["j0_vectors"]]
    # images[t][l] = D_t b_l
    images = [[ders.apply(t, {l: Fraction(1)}) for l in range(j.dim)]
              for t in range(ders.dim)]

    def acts_as_r_commutators(prod):
        for a in range(26):
            for b in range(26):
                cell = prod[52 + a][52 + b]
                if any(k >= 52 for k in cell):
                    return False
                want = la.commutator(r_ops[a], r_ops[b])
                for l in range(j.dim):
                    got = {}
                    for t, c in cell.items():
                        sa.vec_add_scaled(got, images[t][l], c)
                    if got != want[l]:
                        return False
        return True

    assert acts_as_r_commutators(tw.prod)
    # the eps = -1 table has [x, y] = -[R_x, R_y], and one flipped sign in
    # the twisted table breaks the check
    assert not acts_as_r_commutators(albert.table.prod)
    flipped = [list(row) for row in tw.prod]
    a, b = next((a, b) for a in range(26) for b in range(26)
                if tw.prod[52 + a][52 + b])
    cell = dict(tw.prod[52 + a][52 + b])
    k = min(cell)
    cell[k] = -cell[k]
    flipped[52 + a][52 + b] = cell
    assert not acts_as_r_commutators(flipped)


def test_tits_model(tits):
    assert tits.dim == 78
    assert tits.table.check_lie().ok
    assert tits.killing_signature() == -14
    k = tits.killing()
    r = sa.killing_ratio(
        tits.table,
        sa.Subspace(78, [{t: Fraction(1)} for t in range(14)]), k)
    assert r == 3
    r = sa.killing_ratio(
        tits.table,
        sa.Subspace(78, [{t: Fraction(1)} for t in range(70, 78)]), k)
    assert r == 8


def test_tits_killing_invariance(tits):
    assert killing_ad_invariance(tits.table, tits.killing()).ok


def test_chevalley_model(chevalley):
    assert chevalley.dim == 78
    assert chevalley.table.check_lie().ok
    assert chevalley.killing_signature() == -14
    k = dense(chevalley.killing())
    assert all(k[i][j] == 0 for i in range(78) for j in range(i + 1, 78))
    neg = sum(1 for i in range(78) if k[i][i] < 0)
    assert neg == 46 and 78 - neg == 32


def test_corollary_basis_report(chevalley):
    rep = lm.corollary_basis_report(chevalley)
    assert rep["orthogonal"]
    assert (rep["negative_norms"], rep["positive_norms"]) == (46, 32)
    assert rep["all_semisimple"]
    assert rep["constants_rational"]
    assert rep["trilinear_antisymmetric"]
    # the expansion coefficients are not fully antisymmetric: the recorded
    # witness is a genuine counterexample on a (Cartan, root, root) triple
    assert not rep["expansion_antisymmetric"]
    w = rep["antisymmetry_witness"]
    i, j, k = w["triple"]
    f = chevalley.table.prod[i][j].get(k, Fraction(0))
    perm = w["perm"]
    trip = (i, j, k)
    pi = tuple(trip[p] for p in perm)
    f_p = chevalley.table.prod[pi[0]][pi[1]].get(pi[2], Fraction(0))
    parity = -1  # all recorded witnesses use an odd permutation
    assert f_p != parity * f

    # both checks can fail: a 3-dim table with kappa = 1 and one coefficient
    # that breaks anticommutativity on a triple none of whose i < j orderings
    # is nonzero, and one with a Q(zeta_12) coefficient
    def tiny(prod):
        return lm.Model("tiny", sa.AlgebraTable(3, ["a", "b", "c"], prod), {},
                        {"killing": [{j: Fraction(1)} for j in range(3)]})

    prod = [[{} for _ in range(3)] for _ in range(3)]
    prod[1][0] = {2: Fraction(1)}  # [b, a] = c, [a, b] = 0
    rep = lm.corollary_basis_report(tiny(prod))
    assert rep["nonzero_triples"] == 0
    assert not rep["trilinear_antisymmetric"]
    prod = [[{} for _ in range(3)] for _ in range(3)]
    prod[0][1], prod[1][0] = {2: CYC_I}, {2: -CYC_I}
    assert not lm.corollary_basis_report(tiny(prod))["constants_rational"]
    # an off-diagonal kappa(a, b) breaks orthogonality; the norms are read
    # off the diagonal, kappa(c, c) = -1 included
    model = tiny(prod)
    model.meta["killing"] = [{0: Fraction(1), 1: Fraction(2)},
                             {0: Fraction(2), 1: Fraction(1)},
                             {2: Fraction(-1)}]
    rep = lm.corollary_basis_report(model)
    assert not rep["orthogonal"]
    assert (rep["negative_norms"], rep["positive_norms"]) == (1, 2)


def test_flag_model(flag):
    assert flag.dim == 78
    assert flag.table.check_lie().ok
    assert flag.killing_signature() == -14
    rf = flag.meta["real_form"]
    k = dense(flag.killing())
    i6 = rf.names.index("I6")
    assert k[i6][i6] == 432  # 2 (9 dim L1 + 36 dim L2)
    # nilpotent graded pieces pair only across opposite degrees
    for i in range(78):
        for j in range(78):
            if rf.z_degrees[i] + rf.z_degrees[j] != 0:
                assert k[i][j] == 0
    # kappa restricted to L_n + L_{-n} (n != 0) is split
    for n in (1, 2):
        idx = [t for t in range(78) if abs(rf.z_degrees[t]) == n]
        block = restrict(flag.killing(), idx)
        p, m, z = la.signature(block)
        assert z == 0 and p == m


def test_flag_complex_products_have_no_zero_entries(flag):
    rf = flag.meta["real_form"]
    basis = rf.complex_basis
    for i in range(78):
        for j in range(78):
            w = rf.complex.mul_vec(basis[i], basis[j])
            assert all(w.values()), (i, j)


def test_flag_eigenspace(flag):
    assert len(lm.flag_plus_eigenspace()) == 20
    assert flag_eigenspace_matches_basis(flag)


def test_flag_ad_e(flag):
    ad = lm.flag_ad_e(flag)
    eig = [Fraction(v) for v in range(-2, 3)]
    spaces = la.simultaneous_eigensplit([ad], [eig], 78)
    dims = {int(t[0]): len(b) for t, b in spaces}
    assert dims == {-2: 1, -1: 20, 0: 36, 1: 20, 2: 1}
    top = next(b for t, b in spaces if t[0] == 2)[0]
    rf = flag.meta["real_form"]
    nz = {rf.names[i] for i in top}
    assert nz == {"X45", "D4"}  # i(E_44 - E_55) + E_45 + E_54, 0-indexed


def test_flag_proof_identities(flag):
    """ad(u*_T) sends the matching u_T into R I6 and v_T into the real span
    of i(sum_T E_pp - sum_Tc E_pp).

    The bracket [u*_T, u_T] cannot vanish outright: the central component of
    [L_1, L_-1] relative to its sl part is pinned by the Jacobi identity, so
    the diagonal pairs produce the (gauge-invariant) multiple -(1/3) I6.
    Both values lie in L_0, which is what the closure argument needs.
    """
    rf = flag.meta["real_form"]
    i6 = rf.names.index("I6")
    for tpos, t in enumerate(rf.t_with0):
        iu = 36 + 2 * tpos
        iustar = 56 + 2 * tpos
        w0 = flag.table.prod[iustar][iu]
        assert set(w0) == {i6} and w0[i6] == Fraction(-1, 3)
        w = flag.table.prod[iustar][iu + 1]  # [u*_T, v_T]
        names = {rf.names[i] for i in w}
        assert names <= {f"D{p}" for p in range(5)}
        # the diagonal combination is i(sum_{p in T} E_pp - sum_{p not in T})
        diag = [Fraction(0)] * 6
        acc = Fraction(0)
        for p in range(5):
            c = w.get(rf.names.index(f"D{p}"), Fraction(0))
            diag[p] = c - acc
            acc = c
        diag[5] = -acc
        vals = {diag[p] for p in range(6)}
        assert len(vals) == 2
        inside = {diag[p] for p in t}
        outside = {diag[p] for p in range(6) if p not in t}
        assert len(inside) == 1 and len(outside) == 1
        assert next(iter(inside)) == -next(iter(outside))


def test_min_poly_machinery(chevalley):
    # ad(ih'_1) has minimal polynomial x (x^2 + c): squarefree of degree 3
    mp = lm._min_poly_ad(chevalley.table, 0)
    assert mp[0] == 0 and len(mp) >= 3
    assert lm._poly_squarefree(mp)
    # a nilpotent single-root vector in the complex table is not semisimple
    chev = chevalley.meta["chev"]
    mp2 = lm._min_poly_ad(chev.table, chev.e_idx((0, 0, 0, 0, 0, 1)))
    assert not lm._poly_squarefree(mp2)


def test_split_octonion_tits_variant(ws):
    model = ws.model("tits_split")
    assert model.table.check_lie().ok
    assert model.killing_signature() == 2


def test_tits_twist_needs_a_grading(tits):
    # T(Os, M) is this twist (its table pin); with one odd basis vector made
    # even the parity no longer grades T(O, M)
    parity = [d[2] for d in tits.meta["degrees"]]
    odd = [t for t, p in enumerate(parity) if p]
    assert len(odd) == 8 + 4 * 8  # Der(O) odd part and e4..e7 x M_0
    for t in odd[:1] + odd[-1:]:
        bad = parity[:t] + [0] + parity[t + 1:]
        with pytest.raises(ValueError, match="not a Z2-grading"):
            sa.twist_z2(tits.table, bad, -1)


def test_split_tits_twists_by_the_parity_that_splits_the_octonions(ws, tits):
    """The parity of T(Os, M), read off the cells that the twist negates, is
    1 on e_i x m exactly for the e_i whose products ``basis_mul(split=True)``
    flips, 0 on Der(M), and O's third degree coordinate on Der(O)."""
    split = ws.model("tits_split").table
    n = tits.dim
    parity = [int(any(split.prod[i][j] != tits.table.prod[i][j]
                      for j in range(n))) for i in range(n)]
    assert sa.twist_z2(tits.table, parity, -1).prod == split.prod
    flips = {i for i in range(1, 8) if any(
        co.basis_mul(i, j, split=True) != co.basis_mul(i, j)
        for j in range(8))}
    assert flips == {4, 5, 6, 7}
    n_do, n_t = 14, len(tits.meta["tensor"])
    assert [parity[n_do + k] for k in range(n_t)] == \
        [int(i in flips) for i, _ in tits.meta["tensor"]]
    assert parity[n_do + n_t:] == [0] * 8
    assert parity[:n_do] == [g[2] for g in tits.meta["ders_o"].blocks]
    assert sum(parity[:n_do]) == 8
