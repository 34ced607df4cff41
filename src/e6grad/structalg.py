"""Finite-dimensional real algebras given by structure constants.

An ``AlgebraTable`` stores b_i * b_j = sum_k c[i][j][k] b_k with exact
scalars (Fractions; Cyc values are accepted but every concrete model in this
package has rational constants).  Identity checks (anticommutativity, Jacobi,
the linearized Jordan identity) run over a common-denominator integer scaling
of the table, so the exhaustive loops stay in machine/bigint arithmetic.

Derivation algebras are computed as the kernel of the Leibniz linear system
over all ordered basis pairs.  When the algebra carries a group grading with
homogeneous basis, the system splits into independent blocks indexed by the
degree shift of the unknown matrix entries, which both speeds the kernel up
by orders of magnitude and yields the induced grading on Der(A) for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import inverse, kernel_from_rref, rref
from .linalg import kernel as dense_kernel
from .scalar import Cyc, as_fraction, is_zero

Vec = dict  # sparse vector: index -> scalar


# ---------------------------------------------------------------------------
# sparse helpers
# ---------------------------------------------------------------------------

def vec_add_scaled(acc: Vec, v: Vec, c) -> None:
    for k, x in v.items():
        s = acc.get(k, 0) + c * x
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def dense_to_sparse(v: list) -> Vec:
    return {i: x for i, x in enumerate(v) if not is_zero(x)}


def sparse_to_dense(v: Vec, n: int) -> list:
    out = [Fraction(0)] * n
    for k, x in v.items():
        out[k] = x
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# algebra tables
# ---------------------------------------------------------------------------

class AlgebraTable:
    """A real algebra on an explicit basis, as exact structure constants."""

    def __init__(self, dim: int, basis_names: list[str],
                 prod: list[list[Vec]]):
        if len(basis_names) != dim or len(prod) != dim:
            raise ValueError("inconsistent dimensions")
        self.dim = dim
        self.basis_names = list(basis_names)
        self.prod = prod
        self._int_cache = None
        self._ad_cache = None

    @classmethod
    def build(cls, dim: int, basis_names: list[str], mul) -> "AlgebraTable":
        """Construct from a callable mul(i, j) -> sparse vector."""
        prod = [[{k: v for k, v in mul(i, j).items() if not is_zero(v)}
                 for j in range(dim)] for i in range(dim)]
        return cls(dim, basis_names, prod)

    # -- products ------------------------------------------------------------

    def mul(self, i: int, j: int) -> Vec:
        return self.prod[i][j]

    def mul_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            row = self.prod[i]
            for j, b in v.items():
                w = row[j]
                if w:
                    vec_add_scaled(out, w, a * b)
        return out

    # -- integer scaling -------------------------------------------------------

    def int_scaled(self):
        """(iprod, L): structure constants scaled by L, as ints.

        iprod[i][j] is a list of (k, integer) pairs.  Requires all constants
        rational.
        """
        if self._int_cache is None:
            denoms = [1]
            for row in self.prod:
                for cell in row:
                    for v in cell.values():
                        denoms.append(Fraction(v).denominator)
            scale = lcm(*denoms)
            iprod = [[[(k, int(v * scale)) for k, v in cell.items()]
                      for cell in row] for row in self.prod]
            self._int_cache = (iprod, scale)
        return self._int_cache

    # -- linear data -----------------------------------------------------------

    def ad_dict(self, i: int) -> dict:
        """Sparse matrix of ad(b_i) as {(k, l): int} over the scaled table."""
        if self._ad_cache is None:
            self._ad_cache = [None] * self.dim
        if self._ad_cache[i] is None:
            iprod, _ = self.int_scaled()
            row = iprod[i]
            self._ad_cache[i] = {(k, l): c for l in range(self.dim)
                                 for k, c in row[l]}
        return self._ad_cache[i]

    def is_real_table(self) -> bool:
        for row in self.prod:
            for cell in row:
                for v in cell.values():
                    if isinstance(v, Cyc) and not v.is_real():
                        return False
        return True

    # -- axiom checks ------------------------------------------------------------

    def check_anticommutative(self) -> CheckReport:
        for i in range(self.dim):
            if self.prod[i][i]:
                return CheckReport("anticommutative", False, (i, i),
                                   "nonzero square")
            for j in range(i + 1, self.dim):
                a, b = self.prod[i][j], self.prod[j][i]
                keys = set(a) | set(b)
                for k in keys:
                    if not is_zero(a.get(k, 0) + b.get(k, 0)):
                        return CheckReport("anticommutative", False, (i, j, k))
        return CheckReport("anticommutative", True)

    def check_commutative(self) -> CheckReport:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                a, b = self.prod[i][j], self.prod[j][i]
                keys = set(a) | set(b)
                for k in keys:
                    if not is_zero(a.get(k, 0) - b.get(k, 0)):
                        return CheckReport("commutative", False, (i, j, k))
        return CheckReport("commutative", True)

    def check_jacobi(self) -> CheckReport:
        iprod, _ = self.int_scaled()

        def imul(i, v):
            out = {}
            row = iprod[i]
            for l, c in v.items():
                for k, d in row[l]:
                    s = out.get(k, 0) + c * d
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            return out

        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = imul(i, dict(iprod[j][k]))
                    for key, val in imul(j, dict(iprod[k][i])).items():
                        s = acc.get(key, 0) + val
                        if s:
                            acc[key] = s
                        else:
                            acc.pop(key, None)
                    for key, val in imul(k, dict(iprod[i][j])).items():
                        s = acc.get(key, 0) + val
                        if s:
                            acc[key] = s
                        else:
                            acc.pop(key, None)
                    if acc:
                        return CheckReport("jacobi", False, (i, j, k))
        return CheckReport("jacobi", True)

    def check_lie(self) -> CheckReport:
        r = self.check_anticommutative()
        if not r:
            return r
        return self.check_jacobi()

    def check_jordan(self) -> CheckReport:
        """Commutativity plus the Jordan identity (x^2 y) x = x^2 (y x).

        The identity is verified in its full linearization: for all basis
        triples (a, b, c) the operator identity
        [R_a, R_{b.c}] + [R_b, R_{c.a}] + [R_c, R_{a.b}] = 0 is applied to
        every basis vector y, which in characteristic 0 is equivalent to the
        Jordan identity for all elements.
        """
        r = self.check_commutative()
        if not r:
            return r
        iprod, _ = self.int_scaled()
        n = self.dim

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
                            my = imul_vec(m, basis[y])
                            # R_x(R_m y) - R_m(R_x y)
                            t1 = imul_vec(basis[x], my)
                            t2 = imul_vec(m, imul_vec(basis[x], basis[y]))
                            for kk, vv in t1.items():
                                s = acc.get(kk, 0) + vv
                                if s:
                                    acc[kk] = s
                                else:
                                    acc.pop(kk, None)
                            for kk, vv in t2.items():
                                s = acc.get(kk, 0) - vv
                                if s:
                                    acc[kk] = s
                                else:
                                    acc.pop(kk, None)
                        if acc:
                            return CheckReport("jordan", False, (a, b, c, y))
        return CheckReport("jordan", True)


# ---------------------------------------------------------------------------
# real forms by restriction of scalars
# ---------------------------------------------------------------------------

class RealForm:
    """The Q-span of a Q(zeta_12)-basis of a rational complex table.

    ``complex_basis[t]`` is a sparse vector {coordinate: scalar} of the
    complex coordinate space of ``complex_table``.  The basis is inverted
    once, block by block: basis vectors whose supports overlap form a block,
    and each block must be a square, invertible matrix over Q(zeta_12).
    ``table`` is the restricted algebra: entry (i, j) holds the rational
    coordinates of the complex product of basis vectors i and j.
    """

    def __init__(self, complex_table: AlgebraTable, complex_basis: list[dict],
                 names: list[str]):
        n = complex_table.dim
        if len(complex_basis) != n:
            raise ValueError(f"{len(complex_basis)} vectors cannot be a "
                             f"basis of a {n}-dim space")
        self.complex = complex_table
        self.complex_basis = complex_basis
        self.names = names
        root = list(range(n))

        def find(k):
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        supports = []
        for t, v in enumerate(complex_basis):
            sup = [k for k, c in v.items() if not is_zero(c)]
            if not sup:
                raise ValueError(f"basis vector {t} is zero")
            for k in sup[1:]:
                root[find(k)] = find(sup[0])
            supports.append(sup)
        coords: dict = {}
        for k in range(n):
            coords.setdefault(find(k), []).append(k)
        vecs: dict = {}
        for t, sup in enumerate(supports):
            vecs.setdefault(find(sup[0]), []).append(t)
        # blocks: (basis indices, coordinates, inverse rows as (pos, scalar))
        self._blocks = []
        self._block_of = [0] * n
        for r, ks in coords.items():
            ts = vecs.get(r, [])
            if len(ts) != len(ks):
                raise ValueError(f"basis vectors {ts} span coordinates {ks}: "
                                 "not a basis")
            mat = [[complex_basis[t].get(k, Fraction(0)) for t in ts]
                   for k in ks]
            inv = [[(p, c) for p, c in enumerate(row) if not is_zero(c)]
                   for row in inverse(mat)]
            for k in ks:
                self._block_of[k] = len(self._blocks)
            self._blocks.append((ts, ks, inv))
        self.table = AlgebraTable.build(n, names, self._mul)

    def to_real_coords(self, w: dict) -> list[Fraction]:
        """Rational coordinates of the complex vector w in the basis.

        Raises ValueError when a coordinate is not rational, i.e. w is not
        in the real span.
        """
        out = [Fraction(0)] * self.complex.dim
        for b in {self._block_of[k] for k in w}:
            ts, ks, inv = self._blocks[b]
            wb = [w.get(k, 0) for k in ks]
            for t, row in zip(ts, inv):
                out[t] = as_fraction(sum((c * wb[p] for p, c in row),
                                         Fraction(0)))
        return out

    def _mul(self, i: int, j: int) -> dict:
        w = self.complex.mul_vec(self.complex_basis[i], self.complex_basis[j])
        return {k: c for k, c in enumerate(self.to_real_coords(w)) if c}

    def real_matrix_of(self, cols: list[dict]) -> list[list[Fraction]]:
        """Real-basis matrix of a complex-linear map given by its columns
        (sparse images of the complex coordinate vectors)."""
        out_cols = []
        for v in self.complex_basis:
            img: dict = {}
            for a, c in v.items():
                vec_add_scaled(img, cols[a], c)
            out_cols.append(self.to_real_coords(img))
        return [list(row) for row in zip(*out_cols)]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of an ambient coordinate space, held in RREF."""

    def __init__(self, ambient_dim: int, vectors: list[list]):
        self.ambient_dim = ambient_dim
        red, piv = rref([list(v) for v in vectors]) if vectors else ([], [])
        self.basis = red[: len(piv)]
        self.pivots = piv

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, v: list):
        """Coordinates of v in self.basis, or None if v is outside."""
        cs = [v[p] for p in self.pivots]
        for j in range(self.ambient_dim):
            s = v[j]
            for c, row in zip(cs, self.basis):
                if not is_zero(c) and not is_zero(row[j]):
                    s = s - c * row[j]
            if not is_zero(s):
                return None
        return cs

    def contains(self, v: list) -> bool:
        return self.coords(v) is not None

    def __iter__(self):
        return iter(self.basis)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def _mat_compose(a: dict, b: dict) -> dict:
    """(a b)[k][m] = sum_l a[k][l] b[l][m] for sparse {(row, col): val}."""
    byrow_b: dict = {}
    for (l, m), d in b.items():
        byrow_b.setdefault(l, []).append((m, d))
    out: dict = {}
    for (k, l), c in a.items():
        for m, d in byrow_b.get(l, ()):
            key = (k, m)
            s = out.get(key, 0) + c * d
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def mat_commutator(a: dict, b: dict) -> dict:
    ab = _mat_compose(a, b)
    for key, v in _mat_compose(b, a).items():
        s = ab.get(key, 0) - v
        if s:
            ab[key] = s
        else:
            ab.pop(key, None)
    return {k: v for k, v in ab.items() if not is_zero(v)}


class Derivations:
    """Basis of Der(A) as sparse matrices, with its commutator Lie table.

    ``blocks[t]`` is the degree shift of the t-th basis derivation under the
    grading used to split the Leibniz system (all equal for ungraded input);
    these are exactly the degrees of the induced grading on Der(A).
    """

    def __init__(self, algebra: AlgebraTable, mats: list, blocks: list,
                 group, block_data: dict, degrees: list):
        self.algebra = algebra
        self.mats = mats          # list of {(k, l): Fraction}
        self.blocks = blocks      # block key per basis derivation
        self.group = group
        self._degrees = degrees
        # block key -> (unknown order, free columns, kernel vectors, offset)
        self._block_data = block_data
        self.table = self._commutator_table()

    @property
    def dim(self):
        return len(self.mats)

    def apply(self, idx: int, v: Vec) -> Vec:
        out: Vec = {}
        for (k, l), c in self.mats[idx].items():
            if l in v:
                s = out.get(k, 0) + c * v[l]
                if is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    def coords_in_block(self, mat: dict, g) -> list:
        """Global coordinates of a block-g matrix in the derivation basis."""
        data = self._block_data.get(g)
        if data is None:
            if mat:
                raise ValueError("matrix is not in the derivation span")
            return [Fraction(0)] * self.dim
        unknowns, free, kvecs, offset = data
        uidx = {kl: t for t, kl in enumerate(unknowns)}
        dense = [Fraction(0)] * len(unknowns)
        for key, v in mat.items():
            t = uidx.get(key)
            if t is None:
                raise ValueError("matrix is not in the derivation span")
            dense[t] = Fraction(v)
        cs = [dense[fc] for fc in free]
        # residual check against the kernel basis
        for t in range(len(unknowns)):
            s = dense[t]
            for c, kv in zip(cs, kvecs):
                if not is_zero(c) and not is_zero(kv[t]):
                    s = s - c * kv[t]
            if not is_zero(s):
                raise ValueError("matrix is not in the derivation span")
        out = [Fraction(0)] * self.dim
        for r, c in enumerate(cs):
            out[offset + r] = c
        return out

    def coords(self, mat: dict) -> list:
        """Coordinates of an arbitrary derivation matrix (raises if outside)."""
        parts: dict = {}
        for key, v in mat.items():
            g = self._shift_of(key)
            parts.setdefault(g, {})[key] = v
        out = [Fraction(0)] * self.dim
        for g, sub in parts.items():
            for t, c in enumerate(self.coords_in_block(sub, g)):
                if not is_zero(c):
                    out[t] = out[t] + c
        return out

    def _shift_of(self, kl):
        k, l = kl
        return self.group.sub(self._degrees[k], self._degrees[l])

    def _commutator_table(self) -> AlgebraTable:
        n = self.dim
        prod = []
        for i in range(n):
            prow = []
            gi = self.blocks[i]
            for j in range(n):
                if i == j:
                    prow.append({})
                    continue
                g = self.group.add(gi, self.blocks[j])
                comm = mat_commutator(self.mats[i], self.mats[j])
                cs = self.coords_in_block(comm, g)
                prow.append({t: c for t, c in enumerate(cs) if not is_zero(c)})
            prod.append(prow)
        names = [f"D{t}" for t in range(n)]
        return AlgebraTable(n, names, prod)


def derivations(table: AlgebraTable, degrees=None, group=None) -> Derivations:
    """Der(A): kernel of the Leibniz system over all ordered basis pairs.

    With ``degrees`` (one group element per basis vector, ``group`` providing
    add/sub) the system splits into independent blocks: an unknown entry
    D[k][l] belongs to the block deg(k) - deg(l), and every scalar Leibniz
    equation touches exactly one block.  The block keys of the returned basis
    are the degrees of the induced grading on Der(A).
    """
    n = table.dim
    iprod, _ = table.int_scaled()
    if degrees is None:
        degrees = [0] * n

        class _Trivial:
            @staticmethod
            def sub(a, b):
                return 0

            @staticmethod
            def add(a, b):
                return 0
        group = _Trivial()

    shift = {}
    for k in range(n):
        for l in range(n):
            shift[(k, l)] = group.sub(degrees[k], degrees[l])
    blocks: dict = {}
    for k in range(n):
        for l in range(n):
            blocks.setdefault(shift[(k, l)], []).append((k, l))

    # colindex[j][k] = [(m, c[m][j][k])], rowindex[i][k] = [(m, c[i][m][k])]
    colindex = [dict() for _ in range(n)]
    rowindex = [dict() for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k, c in iprod[a][b]:
                colindex[b].setdefault(k, []).append((a, c))
                rowindex[a].setdefault(k, []).append((b, c))

    mats = []
    block_keys = []
    block_data = {}
    for g in sorted(blocks, key=repr):
        unknowns = blocks[g]
        uidx = {kl: t for t, kl in enumerate(unknowns)}
        ks_for = [[] for _ in range(n)]  # ks_for[l] = rows k with (k,l) in block
        for (k, l) in unknowns:
            ks_for[l].append(k)
        rows = {}
        for i in range(n):
            for j in range(n):
                prodij = iprod[i][j]
                # candidate output coordinates k contributing to this block
                cand = set()
                for l, _c in prodij:
                    cand.update(ks_for[l])
                for k, mc in colindex[j].items():
                    if any((m, i) in uidx for m, _c in mc):
                        cand.add(k)
                for k, mc in rowindex[i].items():
                    if any((m, j) in uidx for m, _c in mc):
                        cand.add(k)
                for k in cand:
                    row = {}
                    for l, c in prodij:
                        t = uidx.get((k, l))
                        if t is not None:
                            row[t] = row.get(t, 0) + c
                    for m, c in colindex[j].get(k, ()):
                        t = uidx.get((m, i))
                        if t is not None:
                            row[t] = row.get(t, 0) - c
                    for m, c in rowindex[i].get(k, ()):
                        t = uidx.get((m, j))
                        if t is not None:
                            row[t] = row.get(t, 0) - c
                    row = {t: v for t, v in row.items() if v}
                    if row:
                        key = tuple(sorted(row.items()))
                        rows[key] = row
        dense = []
        for row in rows.values():
            d = [Fraction(0)] * len(unknowns)
            for t, v in row.items():
                d[t] = Fraction(v)
            dense.append(d)
        if dense:
            red, pivots = rref(dense)
        else:
            red, pivots = [], []
        ker = kernel_from_rref(red, pivots, len(unknowns))
        if ker:
            pivset = set(pivots)
            free = [c for c in range(len(unknowns)) if c not in pivset]
            block_data[g] = (unknowns, free, ker, len(mats))
            for v in ker:
                mat = {unknowns[t]: x for t, x in enumerate(v) if not is_zero(x)}
                mats.append(mat)
                block_keys.append(g)
    return Derivations(table, mats, block_keys, group, block_data, degrees)


def leibniz_residual(table: AlgebraTable, mat: dict) -> bool:
    """True iff mat is exactly a derivation of the table."""
    n = table.dim

    def apply(v: Vec) -> Vec:
        out: Vec = {}
        for (k, l), c in mat.items():
            if l in v:
                s = out.get(k, 0) + c * v[l]
                if is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    for i in range(n):
        for j in range(n):
            lhs = apply(table.prod[i][j])
            rhs: Vec = {}
            di = apply({i: Fraction(1)})
            dj = apply({j: Fraction(1)})
            for m, c in di.items():
                vec_add_scaled(rhs, table.prod[m][j], c)
            for m, c in dj.items():
                vec_add_scaled(rhs, table.prod[i][m], c)
            keys = set(lhs) | set(rhs)
            for k in keys:
                if not is_zero(lhs.get(k, 0) - rhs.get(k, 0)):
                    return False
    return True


# ---------------------------------------------------------------------------
# Killing form and friends
# ---------------------------------------------------------------------------

def killing_form(table: AlgebraTable, degrees=None, group=None) -> list[list[Fraction]]:
    """kappa(b_i, b_j) = trace(ad b_i . ad b_j), computed exactly.

    When ``degrees``/``group`` describe a verified grading with homogeneous
    basis, only pairs with deg_i + deg_j = 0 are computed: for the others
    ad b_i ad b_j shifts every component by a nonzero degree, so its trace
    vanishes identically (grading orthogonality).
    """
    n = table.dim
    _, scale = table.int_scaled()
    ads = [table.ad_dict(i) for i in range(n)]
    denom = scale * scale
    out = [[Fraction(0)] * n for _ in range(n)]
    zero = group.zero() if group is not None else None
    for i in range(n):
        adi = ads[i]
        for j in range(i, n):
            if degrees is not None and \
                    group.add(degrees[i], degrees[j]) != zero:
                continue
            adj = ads[j]
            if len(adj) < len(adi):
                small, big = adj, adi
            else:
                small, big = adi, adj
            s = 0
            for (k, l), c in small.items():
                d = big.get((l, k))
                if d:
                    s += c * d
            val = Fraction(s, denom)
            out[i][j] = val
            out[j][i] = val
    return out


def killing_ad_invariance(table: AlgebraTable,
                          killing: list[list] | None = None) -> CheckReport:
    """kappa([x,y],z) + kappa(y,[x,z]) = 0 on all basis triples.

    Verified as the matrix identity ad_i^t K + K ad_i = 0 for every i, which
    is the same statement quantified over (j, k)."""
    if killing is None:
        killing = killing_form(table)
    n = table.dim
    _, scale = table.int_scaled()
    for i in range(n):
        ad = table.ad_dict(i)  # scaled by `scale`
        resid = {}
        for (k, l), c in ad.items():
            # (ad^t K)[l][j] = sum_k ad[k][l] K[k][j]
            row = killing[k]
            for j in range(n):
                if row[j]:
                    key = (l, j)
                    s = resid.get(key, 0) + c * row[j]
                    if s:
                        resid[key] = s
                    else:
                        resid.pop(key, None)
            # (K ad)[j][l] = sum_k K[j][k] ad[k][l]
            for j in range(n):
                if killing[j][k]:
                    key = (j, l)
                    s = resid.get(key, 0) + killing[j][k] * c
                    if s:
                        resid[key] = s
                    else:
                        resid.pop(key, None)
        if resid:
            return CheckReport("killing-invariance", False, (i,))
    return CheckReport("killing-invariance", True)


def form_restrict(form: list[list], vectors: list[list]) -> list[list]:
    """Gram matrix of a bilinear form on a family of vectors."""
    m = len(vectors)
    out = [[Fraction(0)] * m for _ in range(m)]
    sparse = [dense_to_sparse(v) for v in vectors]
    for a in range(m):
        for b in range(a, m):
            s = Fraction(0)
            for i, x in sparse[a].items():
                row = form[i]
                for j, y in sparse[b].items():
                    if not is_zero(row[j]):
                        s = s + x * y * row[j]
            out[a][b] = s
            out[b][a] = s
    return out


def subalgebra_table(table: AlgebraTable, sub: Subspace,
                     names: list[str] | None = None) -> AlgebraTable:
    """The algebra induced on a product-closed subspace (raises if not closed)."""
    n = table.dim
    basis = [dense_to_sparse(v) for v in sub.basis]
    prod = []
    for i in range(sub.dim):
        row = []
        for j in range(sub.dim):
            w = table.mul_vec(basis[i], basis[j])
            cs = sub.coords(sparse_to_dense(w, n))
            if cs is None:
                raise ValueError("subspace is not closed under the product")
            row.append({k: c for k, c in enumerate(cs) if not is_zero(c)})
        prod.append(row)
    if names is None:
        names = [f"s{t}" for t in range(sub.dim)]
    return AlgebraTable(sub.dim, names, prod)


def killing_ratio(table: AlgebraTable, sub: Subspace,
                  killing: list[list] | None = None) -> Fraction:
    """The scalar r with kappa_L|_sub = r * kappa_sub, verified entrywise.

    Raises ValueError when no single ratio fits (which would contradict the
    restriction lemma for simple subalgebras) or when both forms vanish.
    """
    if killing is None:
        killing = killing_form(table)
    sub_t = subalgebra_table(table, sub)
    k_sub = killing_form(sub_t)
    k_res = form_restrict(killing, sub.basis)
    m = sub.dim
    r = None
    for i in range(m):
        for j in range(m):
            a, b = k_res[i][j], k_sub[i][j]
            if is_zero(b):
                if not is_zero(a):
                    raise ValueError("forms are not proportional")
                continue
            q = a / b
            if r is None:
                r = q
            elif q != r:
                raise ValueError("forms are not proportional")
    if r is None:
        raise ValueError("Killing form of the subalgebra vanishes")
    return r


def twist_z2(table: AlgebraTable, parity: list[int], t) -> AlgebraTable:
    """Same space, odd-odd products scaled by t; requires a valid Z2-grading."""
    n = table.dim
    for i in range(n):
        for j in range(n):
            want = (parity[i] + parity[j]) % 2
            for k in table.prod[i][j]:
                if parity[k] % 2 != want:
                    raise ValueError(
                        f"parity vector is not a Z2-grading (witness {(i, j, k)})")
    tf = Fraction(t)
    prod = [[(dict((k, tf * v) for k, v in cell.items())
              if parity[i] and parity[j] else dict(cell))
             for j, cell in enumerate(row)] for i, row in enumerate(table.prod)]
    return AlgebraTable(n, table.basis_names, prod)


# ---------------------------------------------------------------------------
# derived algebra, center, closure
# ---------------------------------------------------------------------------

def derived_algebra(table: AlgebraTable, sub: Subspace | None = None) -> Subspace:
    n = table.dim
    if sub is None:
        vecs = [sparse_to_dense(table.prod[i][j], n)
                for i in range(n) for j in range(i + 1, n) if table.prod[i][j]]
    else:
        basis = [dense_to_sparse(v) for v in sub.basis]
        vecs = [sparse_to_dense(table.mul_vec(a, b), n)
                for ai, a in enumerate(basis) for b in basis[ai + 1:]]
    return Subspace(n, vecs)


def center(table: AlgebraTable) -> Subspace:
    n = table.dim
    rows = []
    for j in range(n):
        byk: dict = {}
        for i in range(n):
            for k, c in table.prod[i][j].items():
                byk.setdefault(k, {})[i] = c
        for k, row in byk.items():
            rows.append([row.get(i, Fraction(0)) for i in range(n)])
    ker = dense_kernel(rows, n)
    return Subspace(n, ker)


def closure(table: AlgebraTable, vectors: list[list]) -> Subspace:
    """Smallest product-closed subspace containing the given vectors."""
    n = table.dim
    sub = Subspace(n, vectors)
    while True:
        basis = [dense_to_sparse(v) for v in sub.basis]
        new_vecs = list(sub.basis)
        grew = False
        for ai, a in enumerate(basis):
            for b in basis:
                w = sparse_to_dense(table.mul_vec(a, b), n)
                if not sub.contains(w):
                    new_vecs.append(w)
                    grew = True
        if not grew:
            return sub
        sub = Subspace(n, new_vecs)
