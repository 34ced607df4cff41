"""Reference implementations that tests compare the program against; the
program itself calls none of them."""

from fractions import Fraction

from e6grad import composition as co
from e6grad import liemodels as lm
from e6grad.abgroup import FgAbelianGroup
from e6grad.gradings import GradedDecomposition
from e6grad.jordan import JordanH3, z_grading_derivation
from e6grad.linalg import (apply, inverse, kernel, rref,
                           simultaneous_eigensplit)
from e6grad.scalar import Cyc
from e6grad.structalg import (AlgebraTable, CheckReport, Subspace, Vec,
                              killing_form, twist_z2, vec_add_scaled)


def d_ab(a: dict, b: dict) -> list[dict]:
    """The inner derivation c -> [[a,b],c] + 3(ac)b - 3a(cb) of sparse
    octonions a, b over Fractions, on the (index, sign) table of
    ``composition.basis_mul``, as its eight sparse columns: column c holds
    the image of e_c.

    Requires traceless a, b (t(a) = 2 a_0).
    """
    if a.get(0) or b.get(0):
        raise ValueError("d_ab requires traceless arguments")
    prod = [[co.basis_mul(i, j) for j in range(8)] for i in range(8)]

    def mul(u, v):
        out: dict = {}
        for i, x in u.items():
            for j, y in v.items():
                k, s = prod[i][j]
                out[k] = out.get(k, 0) + s * x * y
        return {k: x for k, x in out.items() if x}

    comm = mul(a, b)
    vec_add_scaled(comm, mul(b, a), -1)
    cols = []
    for j in range(8):
        c = {j: Fraction(1)}
        v = mul(comm, c)
        vec_add_scaled(v, mul(c, comm), -1)
        vec_add_scaled(v, mul(mul(a, c), b), 3)
        vec_add_scaled(v, mul(a, mul(c, b)), -3)
        cols.append(v)
    return cols


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


def cyc_restriction(complex_table: AlgebraTable, basis: list[Vec]):
    """The restriction of scalars in Q(zeta_12) arithmetic: (prod, coords)
    with prod[i][j] the rational coordinates of the complex product of
    basis vectors i and j, formed by ``mul_vec`` over ``Cyc`` for every
    pair, and coords(w) those of any complex vector w, read with the
    inverse of the whole basis matrix.  Raises ValueError on a coordinate
    that is not rational."""
    n = len(basis)
    rows = [{} for _ in range(n)]  # row k, column t: coordinate k of b_t
    for t, v in enumerate(basis):
        for k, c in v.items():
            if c:
                rows[k][t] = c
    by_coord: dict = {}  # k -> [(t, entry k of row t of the inverse)]
    for t, row in enumerate(inverse(rows)):
        for k, c in row.items():
            by_coord.setdefault(k, []).append((t, c))

    def coords(w: Vec) -> Vec:
        acc: dict = {}
        for k, x in w.items():
            for t, c in by_coord.get(k, ()):
                acc[t] = acc.get(t, 0) + c * x
        out = {}
        for t in sorted(acc):
            x = acc[t].as_fraction() if isinstance(acc[t], Cyc) else acc[t]
            if x:
                out[t] = Fraction(x)
        return out

    prod = [[coords(complex_table.mul_vec(u, v)) for v in basis]
            for u in basis]
    return prod, coords


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


def leibniz_kernel(table: AlgebraTable) -> Subspace:
    """Der(A) by Fractions: the kernel of the Leibniz equations of every
    ordered basis pair (i, j), with the unknown D[k][l] at n l + k."""
    n = table.dim
    rows = []
    for i in range(n):
        for j in range(n):
            # D(b_i b_j) - D(b_i) b_j - b_i D(b_j), coordinate by coordinate
            eqs: dict = {}
            for l, c in table.prod[i][j].items():
                for k in range(n):
                    e = eqs.setdefault(k, {})
                    e[n * l + k] = e.get(n * l + k, 0) + c
            for m in range(n):
                for k, c in table.prod[m][j].items():
                    e = eqs.setdefault(k, {})
                    e[n * i + m] = e.get(n * i + m, 0) - c
                for k, c in table.prod[i][m].items():
                    e = eqs.setdefault(k, {})
                    e[n * j + m] = e.get(n * j + m, 0) - c
            rows += eqs.values()
    return Subspace(n * n, kernel(rows, n * n))


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
