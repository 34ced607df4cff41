"""The Jordan algebras H3(C, gamma), and the degrees that grade them.

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
from .linalg import commutator, kernel, mat_mul
from .scalar import Cyc, OMEGA
from .structalg import AlgebraTable, RealForm, vec_add_scaled


# ---------------------------------------------------------------------------
# coefficient algebras
# ---------------------------------------------------------------------------

@dataclass
class Coeff:
    name: str
    dim: int
    mul: object          # mul(i, j) -> dict
    conj_sign: list      # conj acts diagonally except for RR (handled below)
    unit: dict           # sparse coordinates of 1
    swap: bool = False   # RR exchange involution

    def conj_vec(self, v: dict) -> dict:
        """Conjugate of a sparse coefficient vector."""
        if self.swap:
            return {1 - p: x for p, x in v.items()}
        return {p: self.conj_sign[p] * x for p, x in v.items()}


def coeff_octonions() -> Coeff:
    table = composition.octonion_table()

    def mul(i, j):
        return table.prod[i][j]

    return Coeff("O", 8, mul,
                 [Fraction(1)] + [Fraction(-1)] * 7, {0: Fraction(1)})


def coeff_rr() -> Coeff:
    def mul(i, j):
        return {i: Fraction(1)} if i == j else {}

    return Coeff("R+R", 2, mul, [], {0: Fraction(1), 1: Fraction(1)},
                 swap=True)


# ---------------------------------------------------------------------------
# H3 over a diagonal gamma
# ---------------------------------------------------------------------------

# off-diagonal slots (0-indexed): iota_i places a at _POS[i], the conjugate
# partner at the transposed position with sign gamma_j * gamma_k.
_POS = {1: (1, 2), 2: (2, 0), 3: (0, 1)}


@dataclass
class JordanH3:
    table: AlgebraTable
    trace: dict            # sparse: trace of each basis element
    unit: dict             # sparse coordinates of the identity
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.table.dim

    def trace_of(self, v: dict) -> Fraction:
        return sum((c * self.trace[k] for k, c in v.items()
                    if k in self.trace), Fraction(0))

    def trace_form(self) -> list[dict]:
        """The form (x, y) -> tr(x . y) on the basis, as sparse columns:
        column j is {i: tr(b_i . b_j)}, nonzero entries only."""
        n = self.dim
        out = [{} for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s = Fraction(0)
                for k, c in self.table.prod[i][j].items():
                    s += c * self.trace.get(k, 0)
                if s:
                    out[j][i] = s
                    out[i][j] = s
        return [dict(sorted(col.items())) for col in out]

    def r_operator(self, x: dict) -> list[dict]:
        """The sparse columns of y -> x . y: column l is x . b_l."""
        return [self.table.mul_vec(x, {l: Fraction(1)})
                for l in range(self.dim)]

    def star(self, x: dict, y: dict) -> dict:
        """x * y = x.y - (1/3) tr(x.y) 1, for traceless x, y."""
        if self.trace_of(x) != 0 or self.trace_of(y) != 0:
            raise ValueError("star requires traceless arguments")
        z = self.table.mul_vec(x, y)
        vec_add_scaled(z, self.unit, -self.trace_of(z) / 3)
        return z

    def traceless_basis(self) -> list[dict]:
        """A basis of the traceless part (dimension dim - 1)."""
        return kernel([self.trace], self.dim)


def _sparse_mat3_mul(c: Coeff, x: list, y: list) -> list:
    """Product of two 3x3 matrices over C given by their sparse columns
    {row: sparse coefficient vector}, from the nonzero entries only."""
    out = [{} for _ in range(3)]
    for col_y, col in zip(y, out):
        for k, b in col_y.items():
            for r, a in x[k].items():
                acc = col.setdefault(r, {})
                for p, ap in a.items():
                    for q, bq in b.items():
                        vec_add_scaled(acc, c.mul(p, q), ap * bq)
    return out


def build_h3_diag(coeff: Coeff, gamma: tuple[int, int, int],
                  kind: str) -> JordanH3:
    """H3(C, diag(gamma)) on the basis {E_ii, iota_i(c_b)}.

    Each basis element is a 3x3 matrix held as its sparse columns {row:
    sparse coefficient vector}: E_ii has the single entry 1 at (i, i), and
    iota_i(c_b) has c_b at its slot and gamma_r gamma_s conj(c_b) at the
    transposed slot.  Only the nonzero entries are multiplied.  The product
    x . y = (xy + yx)/2 is symmetric by its definition, so
    ``AlgebraTable.build`` forms it for i <= j only.  Every product
    formed is read back through two guards: each diagonal entry must be a
    multiple of the unit, and each off-diagonal pair must be gamma-hermitian;
    a coefficient algebra that breaks either raises ValueError.
    """
    nc = coeff.dim
    dim = 3 + 3 * nc
    half = Fraction(1, 2)

    def partner(r, s, a):
        # the entry at (s, r) of a gamma-hermitian matrix with a at (r, s)
        sign = gamma[r] * gamma[s]
        return {p: sign * x for p, x in coeff.conj_vec(a).items()}

    def matrix_of(idx):
        m = [{} for _ in range(3)]
        if idx < 3:
            m[idx][idx] = dict(coeff.unit)
            return m
        slot, b = divmod(idx - 3, nc)
        r, s = _POS[slot + 1]
        m[s][r] = {b: Fraction(1)}
        m[r][s] = partner(r, s, m[s][r])
        return m

    mats = [matrix_of(i) for i in range(dim)]
    ref = min(coeff.unit)

    def unit_multiple(vec):
        scal = vec.get(ref, 0) / coeff.unit[ref]
        for p in vec.keys() | coeff.unit.keys():
            if vec.get(p, 0) != scal * coeff.unit.get(p, 0):
                raise ValueError("diagonal entry is not a multiple of the unit")
        return scal

    def coords_of(m) -> dict:
        """Sparse coordinates of a gamma-hermitian matrix given by columns."""
        v = {i: unit_multiple(m[i].get(i, {})) for i in range(3)}
        for i in (1, 2, 3):
            r, s = _POS[i]
            a = m[s].get(r, {})
            for b in range(nc):
                v[3 + (i - 1) * nc + b] = a.get(b, 0)
            if partner(r, s, a) != m[r].get(s, {}):
                raise ValueError("matrix is not gamma-hermitian")
        return {k: x for k, x in v.items() if x}

    def mul(i, j):
        sym = [{} for _ in range(3)]
        for x, y in ((mats[i], mats[j]), (mats[j], mats[i])):
            for col, sym_col in zip(_sparse_mat3_mul(coeff, x, y), sym):
                for r, w in col.items():
                    vec_add_scaled(sym_col.setdefault(r, {}), w, half)
        return coords_of(sym)

    names = [f"E{i+1}{i+1}" for i in range(3)]
    for i in (1, 2, 3):
        for b in range(nc):
            names.append(f"i{i}(c{b})")
    table = AlgebraTable.build(dim, names, mul, 1)
    trace = {i: Fraction(1) for i in range(3)}
    unit = {i: Fraction(1) for i in range(3)}
    meta = {"coeff": coeff,
            "iota_idx": {(i, b): 3 + (i - 1) * nc + b
                         for i in (1, 2, 3) for b in range(nc)}}
    return JordanH3(table, trace, unit, kind, meta)


# ---------------------------------------------------------------------------
# M = H3(C, E11 + E23 + E32) on its Pauli-homogeneous basis
# ---------------------------------------------------------------------------

def _pauli_matrices() -> dict[tuple[int, int], list[dict]]:
    """Homogeneous unit of M for each degree (a, b) in Z3^2, as the three
    sparse columns {row: Cyc} of a 3 x 3 matrix.

    For w = X^a Z^b one has gamma conj(w)^t gamma = mu * w with mu a cube
    root of unity; the unit is lambda * w with lambda = mu^2 (so that
    conj(lambda) mu = lambda), which lies in M.  mu is read off one entry
    of w; if twist(w) is not mu w, the unit fails the membership check (or
    is zero, which ``RealForm`` rejects).
    """
    one = Cyc(1)
    x_mat = [{1: one}, {2: one}, {0: one}]
    z_mat = [{0: one}, {1: OMEGA}, {2: OMEGA * OMEGA}]
    gam = [{0: one}, {2: one}, {1: one}]

    def twist(w):  # gamma conj(w)^t gamma; column r of conj(w)^t is row r
        conj_t = [{c: col[r].conj() for c, col in enumerate(w) if r in col}
                  for r in range(3)]
        return mat_mul(mat_mul(gam, conj_t), gam)

    out = {}
    for a in range(3):
        for b in range(3):
            w = [{i: one} for i in range(3)]
            for _ in range(a):
                w = mat_mul(x_mat, w)
            for _ in range(b):
                w = mat_mul(z_mat, w)
            # mu with twist(w) = mu * w, from the entry of w in column 0
            r, x = next(iter(w[0].items()))
            mu = twist(w)[0].get(r, Cyc(0)) * x.inv()
            lam = mu * mu
            u = [{r: lam * x for r, x in col.items()} for col in w]
            # membership: gamma conj(u)^t gamma == u
            if twist(u) != u:
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


def build_m() -> JordanH3:
    """M as the rational span of its homogeneous units inside Mat3(C)+."""
    units = _pauli_matrices()
    degs = sorted(units)
    mats = [units[d] for d in degs]
    basis = [dict(sorted((3 * i + j, x) for j, col in enumerate(u)
                         for i, x in col.items())) for u in mats]
    rf = RealForm(_mat3_plus(), basis, [f"u{a}{b}" for a, b in degs])
    trace = {}
    for t, u in enumerate(mats):
        tr = sum((u[i].get(i, 0) for i in range(3)), Cyc(0))
        if tr:
            trace[t] = tr.as_fraction()
    unit_vec = rf.to_real_coords({0: Cyc(1), 4: Cyc(1), 8: Cyc(1)})
    meta = {"degrees": degs}
    return JordanH3(rf.table, trace, unit_vec, "M", meta)


# ---------------------------------------------------------------------------
# named algebras
# ---------------------------------------------------------------------------

def build_j() -> JordanH3:
    return build_h3_diag(coeff_octonions(), (1, -1, 1), "J")


def build_jc() -> JordanH3:
    return build_h3_diag(coeff_octonions(), (1, 1, 1), "Jc")


def build_ms() -> JordanH3:
    return build_h3_diag(coeff_rr(), (1, 1, 1), "Ms")


# ---------------------------------------------------------------------------
# gradings on the Jordan algebras
# ---------------------------------------------------------------------------

PEIRCE_DEG = {1: (0, 1), 2: (1, 0), 3: (1, 1)}


def octonion_z2_degrees(j: JordanH3) -> list[tuple]:
    """Z2^5 degree of each basis vector of an H3(O, diag) algebra:
    three octonion-grading bits plus two off-diagonal-slot bits."""
    if j.meta["coeff"].name != "O":
        raise ValueError("octonion grading requires an octonion algebra")
    degs = []
    odeg = composition.octonion_degrees()
    for i in range(3):
        degs.append((0, 0, 0, 0, 0))
    for i in (1, 2, 3):
        for b in range(8):
            degs.append(odeg[b] + PEIRCE_DEG[i])
    return degs


def z_grading_derivation(j: JordanH3) -> list[dict]:
    """The derivation 4 [R_{iota1(1)}, R_{E22}] of H3(O, diag(1,-1,1)), as
    sparse columns."""
    rx = j.r_operator({j.meta["iota_idx"][(1, 0)]: Fraction(1)})
    ry = j.r_operator({1: Fraction(1)})
    return [{k: 4 * v for k, v in col.items()}
            for col in commutator(rx, ry)]
