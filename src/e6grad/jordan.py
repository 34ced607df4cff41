"""The Jordan algebras H3(C, gamma) and their gradings.

H3(C, gamma) is the set of 3x3 matrices x over a composition algebra C with
gamma conj(x)^t gamma^{-1} = x, under the symmetrized product
x . y = (xy + yx)/2.  Four instances are built here:

  * Jc = H3(O, I3)                    27-dim, Euclidean (trace form definite)
  * J  = H3(O, diag(1,-1,1))          27-dim, trace form of signature -6
  * M  = H3(C, E11 + E23 + E32)        9-dim, built on its Pauli-style basis
  * Ms = H3(R+R, I3)                   9-dim, isomorphic to Mat3(R)+

For diagonal gamma the basis is {E_ii} plus the slots iota_i(c) placing a
coefficient c in an off-diagonal pair.  For M the 9 basis elements are the
homogeneous units of the Z3^2 grading generated by the cyclic permutation
matrix (degree (1,0)) and diag(1, w, w^2) (degree (0,1)) with w a cube root
of unity; each basis element is a root-of-unity multiple of X^a Z^b chosen
to satisfy the hermitian condition, and all structure constants come out
rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import composition
from .abgroup import FgAbelianGroup
from .gradings import GradedDecomposition
from .linalg import kernel
from .scalar import Cyc, OMEGA
from .structalg import AlgebraTable, RealForm, dense_to_sparse, sparse_to_dense


# ---------------------------------------------------------------------------
# coefficient algebras
# ---------------------------------------------------------------------------

@dataclass
class Coeff:
    name: str
    dim: int
    mul: object          # mul(i, j) -> dict
    conj_sign: list      # conj acts diagonally except for RR (handled below)
    unit: list           # dense coordinates of 1
    swap: bool = False   # RR exchange involution

    def conj_vec(self, v: list) -> list:
        if self.swap:
            return [v[1], v[0]]
        return [s * x for s, x in zip(self.conj_sign, v)]


def coeff_octonions(split: bool = False) -> Coeff:
    table = composition.octonion_table(split)

    def mul(i, j):
        return table.prod[i][j]

    unit = [Fraction(1)] + [Fraction(0)] * 7
    return Coeff("Os" if split else "O", 8, mul,
                 [Fraction(1)] + [Fraction(-1)] * 7, unit)


def coeff_rr() -> Coeff:
    def mul(i, j):
        return {i: Fraction(1)} if i == j else {}

    return Coeff("R+R", 2, mul, [], [Fraction(1), Fraction(1)], swap=True)


# ---------------------------------------------------------------------------
# H3 over a diagonal gamma
# ---------------------------------------------------------------------------

# off-diagonal slots (0-indexed): iota_i places a at _POS[i], the conjugate
# partner at the transposed position with sign gamma_j * gamma_k.
_POS = {1: (1, 2), 2: (2, 0), 3: (0, 1)}


@dataclass
class JordanH3:
    table: AlgebraTable
    trace: list            # trace of each basis element
    unit: list             # coordinates of the identity
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.table.dim

    def trace_of(self, v: list) -> Fraction:
        return sum(c * t for c, t in zip(v, self.trace))

    def trace_form(self) -> list[list[Fraction]]:
        """Gram matrix of (x, y) -> tr(x . y) on the basis."""
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s = Fraction(0)
                for k, c in self.table.prod[i][j].items():
                    s += c * self.trace[k]
                out[i][j] = s
                out[j][i] = s
        return out

    def r_operator(self, x: list) -> dict:
        """Sparse matrix {(k, l): c} of y -> x . y."""
        sx = dense_to_sparse(x)
        out = {}
        for l in range(self.dim):
            w = self.table.mul_vec(sx, {l: Fraction(1)})
            for k, c in w.items():
                out[(k, l)] = c
        return out

    def mul_dense(self, x: list, y: list) -> list:
        return sparse_to_dense(
            self.table.mul_vec(dense_to_sparse(x), dense_to_sparse(y)), self.dim)

    def star(self, x: list, y: list) -> list:
        """x * y = x.y - (1/3) tr(x.y) 1, for traceless x, y."""
        if self.trace_of(x) != 0 or self.trace_of(y) != 0:
            raise ValueError("star requires traceless arguments")
        z = self.mul_dense(x, y)
        t = self.trace_of(z) / 3
        return [a - t * u for a, u in zip(z, self.unit)]

    def traceless_basis(self) -> list[list]:
        """A basis of the traceless part (dimension dim - 1)."""
        rows = [self.trace]
        return kernel(rows, self.dim)


def _mat3_zero(c: Coeff):
    return [[[Fraction(0)] * c.dim for _ in range(3)] for _ in range(3)]


def _mat3_mul(c: Coeff, x, y):
    out = _mat3_zero(c)
    for i in range(3):
        for j in range(3):
            acc = [Fraction(0)] * c.dim
            for k in range(3):
                a, b = x[i][k], y[k][j]
                for p, ap in enumerate(a):
                    if ap == 0:
                        continue
                    for q, bq in enumerate(b):
                        if bq == 0:
                            continue
                        for r, cr in c.mul(p, q).items():
                            acc[r] += ap * bq * cr
            out[i][j] = acc
    return out


def build_h3_diag(coeff: Coeff, gamma: tuple[int, int, int],
                  kind: str) -> JordanH3:
    """H3(C, diag(gamma)) on the basis {E_ii, iota_i(c_b)}."""
    nc = coeff.dim
    dim = 3 + 3 * nc

    def matrix_of(idx):
        m = _mat3_zero(coeff)
        if idx < 3:
            m[idx][idx] = list(coeff.unit)
            return m
        slot, b = divmod(idx - 3, nc)
        i = slot + 1
        r, s = _POS[i]
        a = [Fraction(0)] * nc
        a[b] = Fraction(1)
        m[r][s] = a
        sign = gamma[r] * gamma[s]
        m[s][r] = [sign * x for x in coeff.conj_vec(a)]
        return m

    mats = [matrix_of(i) for i in range(dim)]

    def unit_multiple(vec):
        ref = next((t for t, u in enumerate(coeff.unit) if u != 0))
        scal = vec[ref] / coeff.unit[ref]
        for x, u in zip(vec, coeff.unit):
            if x != scal * u:
                raise ValueError("diagonal entry is not a multiple of the unit")
        return scal

    def coords_of(m):
        v = [Fraction(0)] * dim
        for i in range(3):
            v[i] = unit_multiple(m[i][i])
        for i in (1, 2, 3):
            r, s = _POS[i]
            a = m[r][s]
            for b in range(nc):
                v[3 + (i - 1) * nc + b] = a[b]
            sign = gamma[r] * gamma[s]
            back = [sign * x for x in coeff.conj_vec(a)]
            if back != m[s][r]:
                raise ValueError("matrix is not gamma-hermitian")
        return v

    def mul(i, j):
        xy = _mat3_mul(coeff, mats[i], mats[j])
        yx = _mat3_mul(coeff, mats[j], mats[i])
        sym = [[[Fraction(x + y, 2) for x, y in zip(a, b)]
                for a, b in zip(ra, rb)] for ra, rb in zip(xy, yx)]
        return dense_to_sparse(coords_of(sym))

    names = [f"E{i+1}{i+1}" for i in range(3)]
    for i in (1, 2, 3):
        for b in range(nc):
            names.append(f"i{i}(c{b})")
    table = AlgebraTable.build(dim, names, mul)
    trace = [Fraction(1)] * 3 + [Fraction(0)] * (3 * nc)
    unit = [Fraction(1)] * 3 + [Fraction(0)] * (3 * nc)
    meta = {"gamma": gamma, "coeff": coeff,
            "diag_idx": [0, 1, 2],
            "iota_idx": {(i, b): 3 + (i - 1) * nc + b
                         for i in (1, 2, 3) for b in range(nc)}}
    return JordanH3(table, trace, unit, kind, meta)


# ---------------------------------------------------------------------------
# M = H3(C, E11 + E23 + E32) on its Pauli-homogeneous basis
# ---------------------------------------------------------------------------

def _gamma3():
    z, o = Cyc(0), Cyc(1)
    return [[o, z, z], [z, z, o], [z, o, z]]


def _cmat_mul(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(3)), Cyc(0))
             for j in range(3)] for i in range(3)]


def _cmat_conj_t(x):
    return [[x[j][i].conj() for j in range(3)] for i in range(3)]


def _pauli_matrices() -> dict[tuple[int, int], list]:
    """Homogeneous unit of M for each degree (a, b) in Z3^2.

    For w = X^a Z^b one has gamma conj(w)^t gamma = mu * w with mu a cube
    root of unity; the unit is lambda * w with lambda = mu^2 (so that
    conj(lambda) mu = lambda), which lies in M.
    """
    z, o = Cyc(0), Cyc(1)
    x_mat = [[z, z, o], [o, z, z], [z, o, z]]
    z_mat = [[o, z, z], [z, OMEGA, z], [z, z, OMEGA * OMEGA]]
    gam = _gamma3()
    out = {}
    for a in range(3):
        for b in range(3):
            w = [[o if i == j else z for j in range(3)] for i in range(3)]
            for _ in range(a):
                w = _cmat_mul(x_mat, w)
            for _ in range(b):
                w = _cmat_mul(z_mat, w)
            tw = _cmat_mul(_cmat_mul(gam, _cmat_conj_t(w)), gam)
            # mu with tw = mu * w
            mu = None
            for i in range(3):
                for j in range(3):
                    if not w[i][j].is_zero():
                        q = tw[i][j] * w[i][j].inv()
                        if mu is None:
                            mu = q
                        elif not (mu - q).is_zero():
                            raise AssertionError("not a scalar multiple")
            lam = mu * mu
            u = [[lam * w[i][j] for j in range(3)] for i in range(3)]
            # membership: gamma conj(u)^t gamma == u
            tu = _cmat_mul(_cmat_mul(gam, _cmat_conj_t(u)), gam)
            for i in range(3):
                for j in range(3):
                    if not (tu[i][j] - u[i][j]).is_zero():
                        raise AssertionError("homogeneous unit escapes M")
            out[(a, b)] = u
    return out


def _mat3_plus() -> AlgebraTable:
    """Mat3(C)+ on the matrix units, E_ij . E_kl = (d_jk E_il + d_li E_kj)/2
    with E_ij at index 3i + j."""
    half = Fraction(1, 2)

    def mul(a, b):
        (i, j), (k, l) = divmod(a, 3), divmod(b, 3)
        out = {}
        if j == k:
            out[3 * i + l] = half
        if l == i:
            out[3 * k + j] = out.get(3 * k + j, 0) + half
        return out

    names = [f"E{i}{j}" for i in range(3) for j in range(3)]
    return AlgebraTable.build(9, names, mul)


def build_pauli_m() -> JordanH3:
    """M as the rational span of its homogeneous units inside Mat3(C)+."""
    units = _pauli_matrices()
    degs = sorted(units)
    mats = [units[d] for d in degs]
    basis = [{3 * i + j: u[i][j] for i in range(3) for j in range(3)
              if not u[i][j].is_zero()} for u in mats]
    rf = RealForm(_mat3_plus(), basis, [f"u{a}{b}" for a, b in degs])
    trace = [(u[0][0] + u[1][1] + u[2][2]).as_fraction() for u in mats]
    unit_vec = rf.to_real_coords({0: Cyc(1), 4: Cyc(1), 8: Cyc(1)})
    meta = {"degrees": degs, "matrices": mats}
    return JordanH3(rf.table, trace, unit_vec, "M", meta)


# ---------------------------------------------------------------------------
# named algebras
# ---------------------------------------------------------------------------

def build_h3(coeff: str, gamma: str) -> JordanH3:
    """One of the named pairs: (O, g1), (O, g2), (C, g3), (R+R, g1)."""
    key = (coeff, gamma)
    if key == ("O", "g1"):
        return build_h3_diag(coeff_octonions(), (1, 1, 1), "Jc")
    if key == ("O", "g2"):
        return build_h3_diag(coeff_octonions(), (1, -1, 1), "J")
    if key == ("C", "g3"):
        return build_pauli_m()
    if key == ("R+R", "g1"):
        return build_h3_diag(coeff_rr(), (1, 1, 1), "Ms")
    raise ValueError(f"unsupported (coefficient, gamma) pair: {key}")


def build_j() -> JordanH3:
    return build_h3("O", "g2")


def build_jc() -> JordanH3:
    return build_h3("O", "g1")


def build_m() -> JordanH3:
    return build_h3("C", "g3")


def build_ms() -> JordanH3:
    return build_h3("R+R", "g1")


# ---------------------------------------------------------------------------
# gradings on the Jordan algebras
# ---------------------------------------------------------------------------

PEIRCE_DEG = {1: (0, 1), 2: (1, 0), 3: (1, 1)}


def octonion_z2_degrees(j: JordanH3) -> list[tuple]:
    """Z2^5 degree of each basis vector of an H3(O, diag) algebra:
    three octonion-grading bits plus two off-diagonal-slot bits."""
    if j.meta["coeff"].name not in ("O", "Os"):
        raise ValueError("octonion grading requires an octonion algebra")
    degs = []
    odeg = composition.octonion_degrees()
    for i in range(3):
        degs.append((0, 0, 0, 0, 0))
    for i in (1, 2, 3):
        for b in range(8):
            degs.append(odeg[b] + PEIRCE_DEG[i])
    return degs


def jordan_octonion_grading(j: JordanH3) -> GradedDecomposition:
    """The Z2^5 grading refining the octonion Z2^3 grading with the
    off-diagonal-slot Z2^2 grading."""
    group = FgAbelianGroup(0, (2, 2, 2, 2, 2))
    return GradedDecomposition.from_degree_map(
        j.table, group, octonion_z2_degrees(j), name=f"Z2^5 on {j.kind}")


def jordan_coarse_z23_grading(j: JordanH3) -> GradedDecomposition:
    group = FgAbelianGroup(0, (2, 2, 2))
    degs = [d[:3] for d in octonion_z2_degrees(j)]
    return GradedDecomposition.from_degree_map(
        j.table, group, degs, name=f"Z2^3 on {j.kind}")


def z_grading_derivation(j: JordanH3) -> dict:
    """The derivation 4 [R_{iota1(1)}, R_{E22}] of H3(O, diag(1,-1,1))."""
    n = j.dim
    x = [Fraction(0)] * n
    x[j.meta["iota_idx"][(1, 0)]] = Fraction(1)
    y = [Fraction(0)] * n
    y[1] = Fraction(1)
    rx, ry = j.r_operator(x), j.r_operator(y)
    from .structalg import mat_commutator
    comm = mat_commutator(rx, ry)
    return {k: 4 * v for k, v in comm.items()}


def jordan_z_grading(j: JordanH3) -> GradedDecomposition:
    """Eigenspace Z-grading of J by 4 [R_{iota1(1)}, R_{E22}]."""
    if j.kind != "J":
        raise ValueError("the Z-grading is built on H3(O, diag(1,-1,1))")
    from .linalg import simultaneous_eigensplit
    from .structalg import leibniz_residual
    d = z_grading_derivation(j)
    if not leibniz_residual(j.table, d):
        raise AssertionError("grading operator is not a derivation")
    n = j.dim
    dense = [[Fraction(0)] * n for _ in range(n)]
    for (k, l), c in d.items():
        dense[k][l] = c
    eig = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    spaces = simultaneous_eigensplit([dense], [eig], n)
    group = FgAbelianGroup(1)
    comps = [((int(tag[0]),), vecs) for tag, vecs in spaces]
    return GradedDecomposition(j.table, group, comps, name="Z on J")


def jordan_z_x_z23_grading(j: JordanH3) -> GradedDecomposition:
    """The Z x Z2^3 grading: Z-grading refined by the octonion Z2^3."""
    from .gradings import refine
    return refine(jordan_z_grading(j), jordan_coarse_z23_grading(j),
                  name="Z x Z2^3 on J")


def pauli_grading(m: JordanH3) -> GradedDecomposition:
    """The Z3^2 grading of M with nine one-dimensional components."""
    if m.kind != "M":
        raise ValueError("the Pauli grading lives on M")
    group = FgAbelianGroup(0, (3, 3))
    return GradedDecomposition.from_degree_map(
        m.table, group, m.meta["degrees"], name="Z3^2 on M")
