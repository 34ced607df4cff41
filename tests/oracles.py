"""Reference implementations that tests compare the program against; the
program itself calls none of them."""

from fractions import Fraction

from e6grad import composition as co
from e6grad import liemodels as lm
from e6grad.abgroup import FgAbelianGroup
from e6grad.gradings import GradedDecomposition
from e6grad.jordan import JordanH3, z_grading_derivation
from e6grad.linalg import apply, kernel, rref, simultaneous_eigensplit
from e6grad.structalg import (AlgebraTable, CheckReport, Subspace, Vec,
                              killing_form, twist_z2, vec_add_scaled)


def split_octonion_table() -> AlgebraTable:
    """The split octonions Os, as the program builds T(Os, M): the Z2-twist
    of O by the third coordinate of its Z2^3 degrees."""
    return twist_z2(co.octonion_table(),
                    [d[2] for d in co.octonion_degrees()], -1)


def refine(g1: GradedDecomposition, g2: GradedDecomposition,
           name: str = "") -> GradedDecomposition:
    """Common refinement by pairwise intersections, over the product group.

    Raises ValueError when the intersections fail to span (the gradings are
    then incompatible).
    """
    if g1.table is not g2.table:
        raise ValueError("gradings live on different algebras")
    table = g1.table
    n = table.dim
    r1, r2 = g1.group.rank, g2.group.rank
    group = FgAbelianGroup(r1 + r2, g1.group.torsion + g2.group.torsion)
    comps = []
    for d1, s1 in g1.components:
        for d2, s2 in g2.components:
            inter = subspace_intersection(s1, s2, n)
            if inter.dim:
                # free1, free2, torsion1, torsion2
                deg = d1[:r1] + d2[:r2] + d1[r1:] + d2[r2:]
                comps.append((deg, inter))
    total = sum(s.dim for _, s in comps)
    if total != n:
        raise ValueError(
            f"gradings are not compatible: intersections span {total} < {n}")
    return GradedDecomposition(table, group, comps, name)


def subspace_intersection(s1: Subspace, s2: Subspace, n: int) -> Subspace:
    """From the kernel of (a_1 .. a_r | -b_1 .. -b_s): sum_j x_j a_j for
    each kernel vector x."""
    a, b = s1.basis, s2.basis
    rows: dict = {}  # coordinate i -> {column j: entry}
    for j, v in enumerate(a + [{i: -x for i, x in u.items()} for u in b]):
        for i, x in v.items():
            rows.setdefault(i, {})[j] = x
    vecs = []
    for k in kernel(list(rows.values()), len(a) + len(b)):
        v: dict = {}
        for j, c in k.items():
            if j < len(a):
                vec_add_scaled(v, a[j], c)
        vecs.append(v)
    return Subspace(n, vecs)


def is_refinement(fine: GradedDecomposition, coarse: GradedDecomposition) -> bool:
    """Every component of ``fine`` sits inside some component of ``coarse``."""
    for _, sf in fine.components:
        hit = False
        for _, sc in coarse.components:
            if all(sc.contains(v) for v in sf.basis):
                hit = True
                break
        if not hit:
            return False
    return True


def leibniz_residual(table: AlgebraTable, cols: list[Vec]) -> bool:
    """True iff the map with sparse columns ``cols`` is exactly a derivation
    of the table."""
    n = table.dim
    for i in range(n):
        for j in range(n):
            # D(b_i) b_j + b_i D(b_j) - D(b_i b_j)
            resid = {k: -x for k, x in apply(cols, table.prod[i][j]).items()}
            for m, c in cols[i].items():
                vec_add_scaled(resid, table.prod[m][j], c)
            for m, c in cols[j].items():
                vec_add_scaled(resid, table.prod[i][m], c)
            if resid:
                return False
    return True


def killing_ad_invariance(table: AlgebraTable,
                          killing: list[Vec] | None = None) -> CheckReport:
    """kappa([x,y],z) + kappa(y,[x,z]) = 0 on all basis triples.

    Verified as the matrix identity ad_i^t K + K ad_i = 0 for every i, which
    is the same statement quantified over (j, k); K is given by its sparse
    columns, and only its nonzero entries are visited."""
    if killing is None:
        killing = killing_form(table)
    n = table.dim
    rows = [{} for _ in range(n)]  # row k of K: {j: K[k][j]}
    for j, col in enumerate(killing):
        for k, x in col.items():
            rows[k][j] = x
    iprod, _ = table.int_scaled()
    for i in range(n):
        resid = {}
        # column l of ad b_i, scaled like the table, is the cell (i, l)
        for l, cell in enumerate(iprod[i]):
            for k, c in cell:
                # (ad^t K)[l][j] = sum_k ad[k][l] K[k][j]
                for j, x in rows[k].items():
                    key = (l, j)
                    s = resid.get(key, 0) + c * x
                    if s:
                        resid[key] = s
                    else:
                        resid.pop(key, None)
                # (K ad)[j][l] = sum_k K[j][k] ad[k][l]
                for j, x in killing[k].items():
                    key = (j, l)
                    s = resid.get(key, 0) + x * c
                    if s:
                        resid[key] = s
                    else:
                        resid.pop(key, None)
        if resid:
            return CheckReport("killing-invariance", False, (i,))
    return CheckReport("killing-invariance", True)


def jordan_z_grading(j: JordanH3) -> GradedDecomposition:
    """Eigenspace Z-grading of J by 4 [R_{iota1(1)}, R_{E22}]."""
    if j.kind != "J":
        raise ValueError("the Z-grading is built on H3(O, diag(1,-1,1))")
    d = z_grading_derivation(j)
    if not leibniz_residual(j.table, d):
        raise AssertionError("grading operator is not a derivation")
    eig = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    spaces = simultaneous_eigensplit([d], [eig], j.dim)
    group = FgAbelianGroup(1)
    comps = [((int(tag[0]),), vecs) for tag, vecs in spaces]
    return GradedDecomposition(j.table, group, comps, name="Z on J")


def flag_eigenspace_matches_basis(model: lm.Model) -> bool:
    """The declared u_T, v_T vectors span exactly ker(Theta - id)."""
    rf = model.meta["real_form"]
    vecs = []
    half = len(lm.TRIPLES)
    for t in rf.t_with0:
        tc, gs = lm._complement_sign(t)
        vecs.append({lm.TRIPLE_IDX[t]: Fraction(1),
                     lm.TRIPLE_IDX[tc]: Fraction(-gs)})
        vecs.append({half + lm.TRIPLE_IDX[t]: Fraction(1),
                     half + lm.TRIPLE_IDX[tc]: Fraction(gs)})
    red1, piv1 = rref(lm.flag_plus_eigenspace())
    red2, piv2 = rref(vecs)
    return len(piv1) == len(piv2) == 20 and red1 == red2
