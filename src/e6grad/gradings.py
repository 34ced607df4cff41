"""Group gradings on algebras: verification and invariants.

A ``GradedDecomposition`` assigns degrees in a finitely generated abelian
group to the summands of a direct-sum decomposition of an algebra.  The
checker verifies both the direct-sum property and multiplicative
compatibility A_g A_h <= A_{g+h} exactly.  Invariants: the type vector
(component counts by dimension) and the universal grading group, presented
by the support with one relation g + h = k per nonzero product and read off
the invariant factors of that relation matrix.

Compatibility and the universal group read the same products, so each
grading forms them once, in integers, in its product pass
(``GradedDecomposition.products``), kept on the instance:

* each component's sparse RREF rows are scaled to primitive integer
  vectors (``structalg.primitive``), and products are taken over the
  table's ``int_scaled()`` form;
* a product w lies in its target component unless the component's
  ``structalg.IntSpan`` of those rows and its pivots finds it outside;
* for each ordered pair of components the pass records whether some
  product is nonzero, the index of the component of degree g + h (or none)
  and whether some product escapes it.

Mirror rule: when the table passes ``check_anticommutative`` (and so its
integer-scaled copy, a positive multiple of it), only the pairs g <= h are
formed and (h, g) is copied from (g, h): b_j b_i = -b_i b_j, so the
products of (h, g) are those of (g, h) negated, with the same target.
The failing pairs are then symmetric, so the first failure in the order
g outer, h inner has g <= h and the witness of ``check_grading`` is
unchanged.  Any other table (Jordan, octonion, Pauli) has all ordered
pairs formed.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroup import FgAbelianGroup, presented_group
from .linalg import apply, kernel, mat_mul, rank, simultaneous_eigensplit
from .scalar import Cyc, I as CYC_I
from .structalg import (AlgebraTable, CheckReport, IntSpan, Subspace,
                        form_restrict, primitive)


class GradedDecomposition:
    """A degree map on a direct-sum decomposition of an AlgebraTable."""

    def __init__(self, table: AlgebraTable, group, components, name: str = ""):
        """components: iterable of (degree, vectors), the vectors a list or a
        Subspace (its RREF rows) of the table's space; zero summands
        dropped."""
        self.table = table
        self.group = group
        self.name = name
        comps = []
        seen = set()
        for deg, vecs in components:
            deg = group.reduce(deg)
            sub = Subspace(table.dim, vecs)
            if sub.dim == 0:
                continue
            if deg in seen:
                raise ValueError(f"duplicate degree {deg}")
            seen.add(deg)
            comps.append((deg, sub))
        self.components = sorted(comps, key=lambda c: c[0])
        self._by_degree = dict(self.components)
        self._products = None

    @classmethod
    def from_degree_map(cls, table: AlgebraTable, group, degrees,
                        name: str = "") -> "GradedDecomposition":
        """Grading whose components group basis vectors by assigned degree."""
        comps = [(d, [{i: Fraction(1)} for i in idxs])
                 for d, idxs in degree_buckets(group, degrees)]
        return cls(table, group, comps, name)

    @property
    def support(self):
        return [d for d, _ in self.components]

    def component(self, deg) -> Subspace | None:
        return self._by_degree.get(self.group.reduce(deg))

    def products(self) -> list[list[tuple | None]]:
        """The product pass, formed on first use and kept on the instance.

        Entry [gi][hi] describes the products of the basis of component gi
        by the basis of component hi (indices into ``components``): None
        when they are all zero, else ``(ki, escapes)``, with ki the index of
        the component of degree g + h (None when there is none) and escapes
        True when some product lies outside it.  See the module docstring.
        Raises ValueError when a structure constant or a component entry is
        not rational.
        """
        if self._products is None:
            table = self.table
            spans = [IntSpan([primitive(v)[0] for v in sub.basis], sub.pivots)
                     for _, sub in self.components]
            supp = self.support
            index = {d: i for i, d in enumerate(supp)}
            mirror = table.check_anticommutative().ok
            m = len(supp)
            out = [[None] * m for _ in range(m)]
            for gi in range(m):
                for hi in range(gi if mirror else 0, m):
                    ki = index.get(self.group.add(supp[gi], supp[hi]))
                    nonzero = escapes = False
                    for a in spans[gi].rows:
                        for b in spans[hi].rows:
                            w = table.int_mul_vec(a, b)
                            if w:
                                nonzero = True
                                if ki is None or spans[ki].outside(w):
                                    escapes = True
                                    break
                        if escapes:
                            break
                    if nonzero:
                        out[gi][hi] = (ki, escapes)
                        if mirror:
                            out[hi][gi] = out[gi][hi]
            self._products = out
        return self._products


def degree_buckets(group, degrees) -> list[tuple[tuple, list[int]]]:
    """Basis indices grouped by reduced degree, in order of first appearance."""
    buckets: dict = {}
    for i, d in enumerate(degrees):
        buckets.setdefault(group.reduce(d), []).append(i)
    return list(buckets.items())


def check_grading(gd: GradedDecomposition) -> CheckReport:
    """Exact direct-sum and compatibility verification.

    The direct sum comes first: the components must stack to n independent
    vectors.  Compatibility reads ``gd.products()``; the witness is the
    first pair (g, h), g outer and h inner in the order of the support,
    whose products land in an empty component or escape the component of
    degree g + h.
    """
    table = gd.table
    n = table.dim
    stacked = [v for _, sub in gd.components for v in sub.basis]
    if len(stacked) != n:
        return CheckReport("grading", False, None,
                           f"components span dimension {len(stacked)} != {n}")
    if rank(stacked) != n:
        return CheckReport("grading", False, None, "components are not independent")
    products = gd.products()
    for gi, (g, _) in enumerate(gd.components):
        for hi, (h, _) in enumerate(gd.components):
            rec = products[gi][hi]
            if rec is None:
                continue
            ki, escapes = rec
            if ki is None:
                return CheckReport("grading", False, (g, h),
                                   "product lands in empty component")
            if escapes:
                return CheckReport("grading", False, (g, h),
                                   "product escapes target component")
    return CheckReport("grading", True)


def type_vector(gd: GradedDecomposition) -> tuple[int, ...]:
    dims = [s.dim for _, s in gd.components]
    if not dims:
        return ()
    out = [0] * max(dims)
    for d in dims:
        out[d - 1] += 1
    return tuple(out)


def universal_group(gd: GradedDecomposition) -> FgAbelianGroup:
    """Support-generated group with relations g + h = k for nonzero products.

    The relations come from the nonzero entries [gi][hi], hi >= gi, of
    ``gd.products()``.  Returned in canonical (invariant-factor) form.
    Raises ValueError when a nonzero product has no component to land in.
    """
    supp = gd.support
    m = len(supp)
    products = gd.products()
    relations = []
    for gi in range(m):
        for hi in range(gi, m):
            rec = products[gi][hi]
            if rec is None:
                continue
            ki = rec[0]
            if ki is None:
                raise ValueError("nonzero product outside the support")
            row = {gi: 1}
            row[hi] = row.get(hi, 0) + 1
            row[ki] = row.get(ki, 0) - 1
            if not row[ki]:
                del row[ki]
            relations.append(row)
    return presented_group(m, relations)


def support_generates(gd: GradedDecomposition) -> bool:
    """Does the support generate the declared coordinate group?

    It does when Z^ncoords modulo the support degrees and the relations
    m_c e_{rank + c} = 0, one for each torsion order m_c, is the trivial
    group.
    """
    group = gd.group
    relations = [{c: x for c, x in enumerate(d) if x} for d in gd.support]
    relations += [{group.rank + c: m} for c, m in enumerate(group.torsion)]
    return presented_group(group.ncoords, relations) == FgAbelianGroup(0)


def interval_check(gd: GradedDecomposition, sig: int) -> dict:
    """The signature interval bound |sig - dim A_e| <= sum of order-2 dims.

    Returns the measured numbers so reports can compare them with expected
    interval data.
    """
    e = gd.group.zero()
    cne = gd.component(e)
    dim_e = cne.dim if cne else 0
    order2 = 0
    for d, sub in gd.components:
        if d != e and gd.group.has_order_dividing_2(d):
            order2 += sub.dim
    return {
        "dim_neutral": dim_e,
        "order2_dim": order2,
        "signature": sig,
        "ok": abs(sig - dim_e) <= order2,
    }


def isotropic_components_check(gd: GradedDecomposition,
                               killing: list[dict]) -> CheckReport:
    """Components of degree of order > 2 are totally isotropic for kappa."""
    for d, sub in gd.components:
        if gd.group.has_order_dividing_2(d):
            continue
        if any(form_restrict(killing, sub.basis)):
            return CheckReport("isotropy", False, (d,))
    return CheckReport("isotropy", True)


# ---------------------------------------------------------------------------
# the six named fine gradings
# ---------------------------------------------------------------------------

NAMED_GRADINGS = ("gamma3", "gamma7", "gamma8", "gamma10", "gamma12", "gamma13")

# expected invariants: (type vector, universal group, interval center, radius)
TABLE1 = {
    "gamma3": ((64, 7), FgAbelianGroup(0, (2, 2, 2, 3, 3)), 0, 14),
    "gamma7": ((48, 1, 0, 7), FgAbelianGroup(0, (2,) * 6), 0, 78),
    "gamma8": ((57, 0, 7), FgAbelianGroup(1, (2,) * 4), 1, 29),
    "gamma10": ((60, 7, 0, 1), FgAbelianGroup(2, (2,) * 3), 2, 16),
    "gamma12": ((73, 0, 0, 0, 1), FgAbelianGroup(1, (2,) * 5), 1, 35),
    "gamma13": ((72, 0, 0, 0, 0, 1), FgAbelianGroup(0, (2,) * 7), 0, 78),
}

GRADING_MODEL = {
    "gamma3": "tits",
    "gamma7": "albert",
    "gamma8": "albert",
    "gamma10": "flag",
    "gamma12": "flag",
    "gamma13": "chevalley",
}


PM = [Fraction(1), Fraction(-1)]
AD_EIGENVALUES = [Fraction(v) for v in range(-2, 3)]


def _parity(signs) -> tuple:
    """Z2 coordinates of a tuple of +-1 eigenvalues."""
    return tuple(0 if lam == 1 else 1 for lam in signs)


def build_named_grading(name: str, model) -> GradedDecomposition:
    """One of the six fine gradings, on its corresponding model."""
    from . import liemodels as lm
    if name not in NAMED_GRADINGS:
        raise ValueError(f"unknown grading {name!r}")
    want = GRADING_MODEL[name]
    if model.name != want:
        raise ValueError(f"{name} lives on the {want} model, not {model.name}")

    if name == "gamma3":
        group = FgAbelianGroup(0, (2, 2, 2, 3, 3))
        return GradedDecomposition.from_degree_map(
            model.table, group, model.meta["degrees"], name="gamma3")

    if name == "gamma7":
        group = FgAbelianGroup(0, (2,) * 6)
        return GradedDecomposition.from_degree_map(
            model.table, group, model.meta["z26_degrees"], name="gamma7")

    if name == "gamma13":
        spaces = simultaneous_eigensplit(lm.gamma13_operators(model), [PM] * 7,
                                         model.dim)
        group = FgAbelianGroup(0, (2,) * 7)
        comps = [(_parity(t), vecs) for t, vecs in spaces]
    elif name == "gamma8":
        z24 = FgAbelianGroup(0, (2,) * 4)
        start = degree_buckets(
            z24, [d[:3] + (d[5],) for d in model.meta["z26_degrees"]])
        spaces = simultaneous_eigensplit([lm.albert_z_grading_operator(model)],
                                         [AD_EIGENVALUES], model.dim, start)
        group = FgAbelianGroup(1, (2,) * 4)
        comps = [((int(t[4]),) + t[:4], vecs) for t, vecs in spaces]
    else:
        z = FgAbelianGroup(1)
        start = degree_buckets(z, [(d,) for d in model.meta["z_degrees"]])
        fs, theta = lm.flag_f_matrices(model), lm.flag_theta_matrix(model)
        if name == "gamma10":  # operators ad E, theta, F1, F2
            spaces = simultaneous_eigensplit(
                [lm.flag_ad_e(model), theta, fs[0], fs[1]],
                [AD_EIGENVALUES, PM, PM, PM], model.dim, start)
            group = FgAbelianGroup(2, (2,) * 3)
            comps = [((int(t[1]), t[0]) + _parity(t[2:]), vecs)
                     for t, vecs in spaces]
        else:  # gamma12: operators F1..F4, theta
            spaces = simultaneous_eigensplit(fs + [theta], [PM] * 5, model.dim,
                                             start)
            group = FgAbelianGroup(1, (2,) * 5)
            comps = [(t[:1] + _parity(t[1:]), vecs) for t, vecs in spaces]
    return GradedDecomposition(model.table, group, comps, name)


# ---------------------------------------------------------------------------
# the sp8 fixed-point computation backing the Z4 x Z2^4 exclusion
# ---------------------------------------------------------------------------

def sp8_generators() -> tuple[list, list]:
    """The standard symplectic matrix C and the generators A1..A4 of the
    subgroup of PSp8 behind the sp8 lemma, as the eight sparse columns
    {row: Cyc} of 8 x 8 matrices over Q(zeta_12).

    Returns ``(C, [A1, A2, A3, A4])``.
    """
    one = Cyc(1)

    def diag(entries):
        return [{i: x} for i, x in enumerate(entries)]

    # C = [[0, 1], [-1, 0]] in 4 x 4 blocks
    c_mat = [{4 + i: -one} for i in range(4)] + [{i: one} for i in range(4)]
    # I2 blocks at rows 0..1, columns 4..5 and back, and sigma1 blocks at
    # rows 2..3, columns 6..7 and back; the matrix is symmetric
    a1 = [{r: CYC_I} for r in (4, 5, 7, 6, 0, 1, 3, 2)]
    a2 = diag([CYC_I] * 4 + [-CYC_I] * 4)
    # four sigma1 blocks on the diagonal
    a3 = [{i ^ 1: one} for i in range(8)]
    a4 = diag([one, -one, -CYC_I, CYC_I, one, -one, CYC_I, -CYC_I])
    return c_mat, [a1, a2, a3, a4]


def scalar_of(a: list):
    """d if the 8 x 8 matrix of sparse columns ``a`` is d * 1, d != 0."""
    d = a[0].get(0) if a else None
    if not d or len(a) != 8 or any(
            col.get(c) != d or any(x for r, x in col.items() if r != c)
            for c, col in enumerate(a)):
        return None
    return d


def sp8_lemma() -> dict:
    """Fixed-point dimensions and signatures for the sp8 coset family.

    Builds sp8(C) = {x : x C + C x^t = 0} with C the standard symplectic
    matrix, the four generators A1..A4 of the relevant subgroup of PSp8
    (``sp8_generators``), and for every coset representative A with
    conj(A) A scalar computes the complex fixed-space dimension of Ad(CA)
    and the signature 36 - 2 dim.  Matrices are lists of sparse columns
    {row: Cyc}, multiplied with ``linalg.mat_mul``; an element of sp8 is
    the vector of its 64 entries, entry (i, j) at index 8 i + j.
    """
    c_mat, (a1, a2, a3, a4) = sp8_generators()

    # basis of sp8(C): kernel of x -> x C + C x^t over the 64 entries
    rows = []
    for i in range(8):
        for j in range(8):
            row: dict = {}
            # (x C)[i][j] = sum_k x[i][k] C[k][j] and
            # (C x^t)[i][j] = sum_k C[i][k] x[j][k]
            for k in range(8):
                for key, c in ((i * 8 + k, c_mat[j].get(k)),
                               (j * 8 + k, c_mat[k].get(i))):
                    if c:
                        row[key] = row.get(key, 0) + c.as_fraction()
            rows.append(row)
    basis = kernel(rows, 64)  # 36 vectors, rational
    if len(basis) != 36:
        raise AssertionError(f"dim sp8 = {len(basis)} != 36")
    sp = Subspace(64, basis)

    def ad_fix_dim(m, minv):
        # operator x -> m x m^{-1} on sp8, in coordinates, verifying that
        # each image lies in sp8; then take the +1 eigenspace
        d = sp.dim
        shifted = [{} for _ in range(d)]  # row r, column l: (Ad - 1)[r][l]
        for l, b in enumerate(sp.basis):
            x = [{k // 8: v for k, v in b.items() if k % 8 == j}
                 for j in range(8)]
            y = mat_mul(mat_mul(m, x), minv)
            cs = sp.coords({i * 8 + j: v for j, col in enumerate(y)
                            for i, v in col.items()})
            if cs is None:
                raise AssertionError("Ad does not preserve sp8")
            for r, c in cs.items():
                shifted[r][l] = c
        for r in range(d):
            shifted[r][r] = shifted[r].get(r, 0) - 1
        return d - rank(shifted)

    results = []
    for e1 in range(2):
        for e2 in range(2):
            for s in range(2):
                for r in range(4):
                    word = []
                    if e1:
                        word.append(a1)
                    if e2:
                        word.append(a2)
                    for _ in range(s):
                        word.append(a3)
                    for _ in range(r):
                        word.append(a4)
                    a = [{i: Cyc(1)} for i in range(8)]
                    for w in word:
                        a = mat_mul(a, w)
                    conj_a = [{r: x.conj() for r, x in col.items()}
                              for col in a]
                    if scalar_of(mat_mul(conj_a, a)) is None:
                        continue
                    ca = mat_mul(c_mat, a)
                    sq = scalar_of(mat_mul(ca, ca))
                    if sq is None:
                        raise AssertionError("Ad(CA) is not an involution")
                    # (CA)^2 = sq 1, so (CA)^{-1} = sq^{-1} CA
                    s_inv = sq.inv()
                    fix = ad_fix_dim(ca, [{r: x * s_inv
                                           for r, x in col.items()}
                                          for col in ca])
                    results.append({
                        "word": (e1, e2, s, r),
                        "dim_fix": fix,
                        "signature": 36 - 2 * fix,
                        "in_family": bool(e1 and e2),
                    })
    fix_set = sorted({r["dim_fix"] for r in results})
    sig_set = sorted({r["signature"] for r in results})
    family_ok = all((r["dim_fix"] == 24) == r["in_family"] for r in results)
    return {
        "dim_sp8": 36,
        "cases": results,
        "fix_dims": fix_set,
        "signatures": sig_set,
        "family_matches": family_ok,
        "ok": fix_set == [16, 24] and sig_set == [-12, 4] and family_ok,
    }


def classical_signature(family: str, *args) -> int:
    """Killing signatures of the classical real forms.

    su(p,q): -(n^2+2n) + 4pq with n+1 = p+q;  so(p,q): ((p+q) - (p-q)^2)/2;
    sp(p,q): -2(p-q)^2 - (p+q);  sl(n,R): n-1;  sp(2n,R): n.
    """
    if family == "su":
        p, q = args
        n = p + q - 1
        return -(n * n + 2 * n) + 4 * p * q
    if family == "so":
        p, q = args
        d = (p + q) - (p - q) ** 2
        if d % 2:
            raise ValueError("so(p,q) signature is not an integer here")
        return d // 2
    if family == "sp":
        p, q = args
        return -2 * (p - q) ** 2 - (p + q)
    if family == "slR":
        (n,) = args
        return n - 1
    if family == "spR":
        (n,) = args
        return n // 2
    raise ValueError(f"unknown family {family!r}")


def so8_exclusion_arithmetic() -> dict:
    """The numeric part of the inner Z^2 x Z2^3 exclusion.

    The even-part candidates are 2 + sign(so(p,q)) over the real forms of
    so8; neither -14 nor 2 is attainable.
    """
    sigs = sorted(classical_signature("so", p, 8 - p) for p in range(4, 9))
    attainable = sorted(2 + s for s in sigs)
    return {
        "so8_signatures": sigs,
        "attainable": attainable,
        "excludes_minus14": -14 not in attainable,
        "excludes_2": 2 not in attainable,
        "ok": sigs == [-28, -14, -4, 2, 4]
        and -14 not in attainable and 2 not in attainable,
    }


def killing_orthogonality_check(gd: GradedDecomposition,
                                killing: list[dict]) -> CheckReport:
    """kappa(A_g, A_h) = 0 whenever g + h != e."""
    e = gd.group.zero()
    for g, sub_g in gd.components:
        for h, sub_h in gd.components:
            if gd.group.add(g, h) == e:
                continue
            for sb in sub_h.basis:
                w = apply(killing, sb)  # kappa(b_i, sb) at i
                for sa in sub_g.basis:
                    s = sum((x * w[i] for i, x in sa.items() if i in w),
                            Fraction(0))
                    if s:
                        return CheckReport("killing-orthogonality", False, (g, h))
    return CheckReport("killing-orthogonality", True)
