"""Finite-dimensional real algebras given by structure constants.

An ``AlgebraTable`` stores b_i * b_j = sum_k c[i][j][k] b_k with rational
constants (Fractions or ints); so does every bilinear form here.  Q(zeta_12)
enters only through a ``RealForm``, whose complex basis holds ``Cyc``
coordinates: the table it restricts to is rational, and ``to_real_coords``
raises ValueError on a coordinate that is not.  Identity checks
(anticommutativity, Jacobi, the linearized Jordan identity) run over a
common-denominator integer scaling of the table, so the exhaustive loops
stay in machine/bigint arithmetic.
The Jacobi check packs each cell of that table into one int, one slot of
``bits`` bits per coordinate, with 2^(bits - 1) above 3 n M^2 (M the largest
|constant|), the most any coordinate of a Jacobi vector can reach in
absolute value; so a packed Jacobi vector is zero exactly when every
coordinate is, and each triple costs a few int products, not a dict.
Vectors are sparse dicts (index -> nonzero scalar) throughout: a
``Subspace`` holds the sparse RREF rows of a basis and reads coordinates off
its pivots, with a residual over the vector's keys.  A linear map (ad b_i,
R_x, a derivation) and a bilinear form (Killing, Gram) are both ``linalg``'s
list of sparse columns.  The Killing form
indexes every nonzero entry c_il^k of every ad b_i by its position (l, k)
once, and accumulates all kappa_ij together from the pairs of entries at
transposed positions (l, k) and (k, l).

Derivation algebras are computed as the kernel of the Leibniz linear system
over all ordered basis pairs, assembled in one pass over the integer-scaled
table.  When the algebra carries a group grading with homogeneous basis, the
system splits into independent blocks indexed by the degree shift of the
unknown matrix entries, which both speeds the kernel up by orders of
magnitude and yields the induced grading on Der(A) for free; an equation
whose unknowns leave its block shows that the degrees do not grade the
table, and raises.  Each basis derivation is also held as primitive
integer columns.  The coordinates of a map in the derivation basis are its
entries at the free unknowns of the Leibniz kernel, confirmed by
``IntSpan``, the integer span test that the grading product pass also
uses, and the commutator table of Der(A) is computed in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .abgroup import FgAbelianGroup
from .linalg import apply, commutator, inverse, kernel, kernel_from_rref, rref
from .scalar import Cyc

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


def _rational(x):
    """An int or Fraction as it is, a rational Cyc as a Fraction; raises
    ValueError for an irrational Cyc."""
    return x.as_fraction() if isinstance(x, Cyc) else x


def int_scaled_vectors(vecs: list[Vec]) -> tuple[list[Vec], int]:
    """(ints, s): the sparse vectors times the lcm s of the denominators of
    all their entries, as ints.  Raises ValueError for an entry that is not
    rational."""
    s = lcm(*(_rational(x).denominator for v in vecs for x in v.values()))
    out = []
    for v in vecs:
        w = {}
        for k, x in v.items():
            x = _rational(x)
            w[k] = x.numerator * (s // x.denominator)
        out.append(w)
    return out, s


def primitive(v: Vec) -> tuple[Vec, Fraction]:
    """(w, d) for a nonzero rational sparse vector v: w = d v is a primitive
    integer vector (its entries have gcd 1) and d > 0.  d is an integer when
    v has an entry 1, as an RREF row or a kernel vector does."""
    (w,), s = int_scaled_vectors([v])
    h = gcd(*w.values())
    return {k: x // h for k, x in w.items()}, Fraction(s, h)


class IntSpan:
    """The span of integer rows in echelon form: row r is d_r > 0 at its
    pivot p_r and 0 at every other pivot."""

    def __init__(self, rows: list[Vec], pivots: list):
        self.rows = rows
        self.pivots = pivots
        self._pivot_rows = {p: (row, row[p]) for p, row in zip(pivots, rows)}
        self._support = {k for row in rows for k in row}

    def outside(self, w: Vec) -> bool:
        """Is the integer vector w outside the span?

        w is in the span exactly when D w - sum_r (D / d_r) w[p_r] row_r
        vanishes, with D the lcm of the d_r of the pivots where w is
        nonzero.  A key of w that no row touches decides it at once."""
        if not self._support.issuperset(w):
            return True
        used = [(self._pivot_rows[k], x) for k, x in w.items()
                if k in self._pivot_rows]
        big = lcm(*(d for (_, d), _ in used))
        resid = {k: big * x for k, x in w.items()}
        for (row, d), x in used:
            f = (big // d) * x
            for k, y in row.items():
                resid[k] = resid.get(k, 0) - f * y
        return any(resid.values())


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

    @classmethod
    def build(cls, dim: int, basis_names: list[str], mul,
              sign=None) -> "AlgebraTable":
        """Construct from a callable mul(i, j) -> sparse vector.

        With ``sign`` -1 (a Lie table) or +1 (a Jordan table), mul is called
        for i <= j only and cell (j, i) is ``sign`` times cell (i, j); with
        None it is called for every pair.  This is the one place a table is
        mirrored; on a mirrored table, anticommutativity or commutativity
        off the diagonal holds by construction."""
        prod = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i if sign else 0, dim):
                cell = {k: v for k, v in mul(i, j).items() if v}
                prod[i][j] = cell
                if sign and j != i:
                    prod[j][i] = {k: sign * v for k, v in cell.items()}
        return cls(dim, basis_names, prod)

    # -- products ------------------------------------------------------------

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

        iprod[i][j] is a list of (k, integer) pairs.  Raises ValueError
        when a constant is not rational.
        """
        if self._int_cache is None:
            n = self.dim
            ints, scale = int_scaled_vectors(
                [cell for row in self.prod for cell in row])
            iprod = [[list(ints[i * n + j].items()) for j in range(n)]
                     for i in range(n)]
            self._int_cache = (iprod, scale)
        return self._int_cache

    def int_mul_vec(self, u: Vec, v: Vec) -> Vec:
        """L u v for integer vectors u and v, over ``int_scaled()`` with
        scale L, without zero entries."""
        iprod, _ = self.int_scaled()
        acc: Vec = {}
        for i, a in u.items():
            row = iprod[i]
            for j, b in v.items():
                ab = a * b
                for k, c in row[j]:
                    acc[k] = acc.get(k, 0) + ab * c
        return {k: x for k, x in acc.items() if x}

    # -- axiom checks ------------------------------------------------------------

    def check_anticommutative(self) -> CheckReport:
        return self._check_symmetry("anticommutative", -1)

    def check_commutative(self) -> CheckReport:
        return self._check_symmetry("commutative", 1)

    def _check_symmetry(self, name: str, sign: int) -> CheckReport:
        """b_j b_i = sign b_i b_j, cell by cell over ``int_scaled()`` (a
        positive multiple of the table) for every i < j, and for i = j too
        when sign is -1.  The witness is (i, j, k), k the smallest coordinate
        where the two cells differ."""
        iprod, _ = self.int_scaled()
        for i, row in enumerate(iprod):
            for j in range(i if sign < 0 else i + 1, self.dim):
                a = {k: c for k, c in row[j] if c}
                b = {k: sign * c for k, c in iprod[j][i] if c}
                if a != b:
                    k = min(k for k in a.keys() | b.keys()
                            if a.get(k) != b.get(k))
                    return CheckReport(name, False, (i, j, k),
                                       "nonzero square" if i == j else "")
        return CheckReport(name, True)

    def check_jacobi(self) -> CheckReport:
        """The Jacobi identity on every basis triple i < j < k, exactly.

        With c the integer-scaled constants, the Jacobi vector of (i, j, k)
        is sum_l c_jk^l b_i b_l + c_ki^l b_j b_l + c_ij^l b_k b_l.  Each of
        its n coordinates is a sum of at most 3n products of two constants,
        so its absolute value is at most 3 n M^2, with M the largest
        |constant|.  Take bits = bit_length(3 n M^2) + 1 and pack each cell
        b_i b_l of the table into one int, P[i][l] = sum_m c_il^m 2^(bits m).
        Packing is linear, so sum_l c_jk^l P[i][l] + c_ki^l P[j][l] +
        c_ij^l P[k][l] is the packed Jacobi vector.  It is also injective on
        vectors whose coordinates are below 2^bits in absolute value: if the
        lowest nonzero coordinate is d at slot m, the packed int is
        d 2^(bits m) plus a multiple of 2^(bits (m + 1)), and 0 < |d| <
        2^bits, so it is not zero.  So the packed int is zero exactly when
        the Jacobi vector is.  The witness of a failure is the first triple
        (i, j, k) in lexicographic order whose Jacobi vector is not zero.
        """
        iprod, _ = self.int_scaled()
        n = self.dim
        big = max((abs(c) for row in iprod for cell in row for _, c in cell),
                  default=0)
        bits = (3 * n * big * big).bit_length() + 1
        packed = [[sum(c << (bits * m) for m, c in cell) for cell in row]
                  for row in iprod]
        for i in range(n):
            pi = packed[i]
            for j in range(i + 1, n):
                pj, row_j, c_ij = packed[j], iprod[j], iprod[i][j]
                for k in range(j + 1, n):
                    s = 0
                    for l, c in row_j[k]:
                        s += c * pi[l]
                    for l, c in iprod[k][i]:
                        s += c * pj[l]
                    for l, c in c_ij:
                        s += c * packed[k][l]
                    if s:
                        return CheckReport("jacobi", False, (i, j, k))
        return CheckReport("jacobi", True)

    def check_lie(self) -> CheckReport:
        r = self.check_anticommutative()
        if not r:
            return r
        return self.check_jacobi()

    def check_jordan(self) -> CheckReport:
        """Commutativity plus the Jordan identity (x^2 y) x = x^2 (y x).

        The identity is verified in its full linearization, as an operator
        identity over the integer-scaled table: for every basis triple
        a <= b <= c,

            sum_k (b.c)_k [R_a, R_k] + sum_k (c.a)_k [R_b, R_k]
                + sum_k (a.b)_k [R_c, R_k] = 0,

        i.e. [R_a, R_{b.c}] + [R_b, R_{c.a}] + [R_c, R_{a.b}] = 0 as a whole
        matrix.  A zero matrix is the identity applied to every basis column
        y at once, and the linearization is symmetric in (a, b, c), so the
        triples a <= b <= c and all y cover every case; in characteristic 0
        this is equivalent to the Jordan identity for all elements.  Each
        commutator [R_x, R_k] is formed once per call, on columns, and
        flattened into a dict keyed by n column + row for the triple sums.
        The witness of a failure is (a, b, c, y) for the first failing triple
        and the smallest column y with a nonzero entry.

        On a table mirrored by ``AlgebraTable.build`` (the H3 tables of
        ``jordan``, M) the commutativity half holds by construction; there
        the Jordan half carries the proof.
        """
        r = self.check_commutative()
        if not r:
            return r
        iprod, _ = self.int_scaled()
        n = self.dim
        r_ops = [[dict(cell) for cell in row] for row in iprod]
        comms: dict = {}

        def comm(x, k):
            # [R_x, R_k] for x < k
            if (x, k) not in comms:
                comms[x, k] = {
                    n * l + r: v
                    for l, col in enumerate(commutator(r_ops[x], r_ops[k]))
                    for r, v in col.items()}
            return comms[x, k]

        for a in range(n):
            for b in range(a, n):
                for c in range(b, n):
                    acc = {}
                    for x, m in ((a, iprod[b][c]), (b, iprod[c][a]),
                                 (c, iprod[a][b])):
                        for k, mk in m:
                            if x < k:
                                mat = comm(x, k)
                            elif x > k:
                                mat, mk = comm(k, x), -mk
                            else:
                                continue  # [R_x, R_x] = 0
                            for key, v in mat.items():
                                s = acc.get(key, 0) + mk * v
                                if s:
                                    acc[key] = s
                                else:
                                    del acc[key]
                    if acc:
                        y = min(acc) // n  # the smallest column
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

    When ``complex_table`` is anticommutative (a Lie table) or commutative
    (a Jordan table), checked over all pairs, ``AlgebraTable.build`` mirrors
    the restricted table with that sign.  This is exact: if e_b e_a =
    s e_a e_b for all coordinates a, b (s = -1 or +1), then by bilinearity
    b_j b_i = s b_i b_j, and the real coordinates of s w are s times those
    of w, since ``to_real_coords`` is linear.  Any other table has all n^2
    products formed.
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
            sup = [k for k, c in v.items() if c]
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
        # blocks: (basis indices, inverse rows keyed by coordinate)
        self._blocks = []
        self._block_of = [0] * n
        for r, ks in coords.items():
            ts = vecs.get(r, [])
            if len(ts) != len(ks):
                raise ValueError(f"basis vectors {ts} span coordinates {ks}: "
                                 "not a basis")
            pos = {k: p for p, k in enumerate(ks)}
            rows = [{} for _ in ks]  # row k, column t: coordinate k of b_t
            for q, t in enumerate(ts):
                for k, c in complex_basis[t].items():
                    if c:
                        rows[pos[k]][q] = c
            inv = [{ks[p]: c for p, c in row.items()} for row in inverse(rows)]
            for k in ks:
                self._block_of[k] = len(self._blocks)
            self._blocks.append((ts, inv))
        sign = (-1 if complex_table.check_anticommutative()
                else 1 if complex_table.check_commutative() else None)
        self.table = AlgebraTable.build(n, names, self._mul, sign)

    def to_real_coords(self, w: dict) -> dict:
        """Rational coordinates of the complex vector w in the basis, as a
        sparse vector with ascending keys.

        Raises ValueError when a coordinate is not rational, i.e. w is not
        in the real span.
        """
        out = {}
        for b in {self._block_of[k] for k in w}:
            ts, inv = self._blocks[b]
            for t, row in zip(ts, inv):
                x = _rational(sum((c * w[k] for k, c in row.items()
                                    if k in w), Fraction(0)))
                if x:
                    out[t] = x
        return dict(sorted(out.items()))

    def _mul(self, i: int, j: int) -> dict:
        w = self.complex.mul_vec(self.complex_basis[i], self.complex_basis[j])
        return self.to_real_coords(w)

    def real_matrix_of(self, cols: list[dict]) -> list[dict]:
        """Sparse real-basis columns of a complex-linear map given by its
        columns (sparse images of the complex coordinate vectors)."""
        out = []
        for v in self.complex_basis:
            img: dict = {}
            for a, c in v.items():
                vec_add_scaled(img, cols[a], c)
            out.append(self.to_real_coords(img))
        return out


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of an ambient coordinate space, held as the sparse RREF
    rows of a basis."""

    def __init__(self, ambient_dim: int, vectors: list[Vec]):
        self.ambient_dim = ambient_dim
        self.basis, self.pivots = rref(vectors)
        if any(not 0 <= k < ambient_dim for v in self.basis for k in v):
            raise ValueError(f"vector outside the {ambient_dim}-dim space")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, v: Vec) -> Vec | None:
        """Sparse coordinates of v in self.basis, or None if v is outside.

        The coordinates are v's entries at the pivots; v is inside iff the
        residual v - sum_r c_r basis[r] vanishes at every key."""
        cs = {r: v[p] for r, p in enumerate(self.pivots) if v.get(p)}
        resid = dict(v)
        for r, c in cs.items():
            vec_add_scaled(resid, self.basis[r], -c)
        return None if any(resid.values()) else cs

    def contains(self, v: Vec) -> bool:
        return self.coords(v) is not None

    def __iter__(self):
        return iter(self.basis)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

_NO_SPAN = IntSpan([], [])  # the span of a block without derivations


class Derivations:
    """Basis of Der(A) as sparse columns, with its commutator Lie table.

    The t-th basis derivation D_t is held once, as primitive integer
    columns ``int_mats[t]`` (column l a sparse vector of ints, the entries
    of all columns with gcd 1) and a positive integer ``denoms[t]``: the
    coefficient of b_k in D_t(b_l) is int_mats[t][l][k] / denoms[t].
    ``blocks[t]`` is the degree shift of D_t under the grading used to split
    the Leibniz system (all equal for ungraded input); these are exactly the
    degrees of the induced grading on Der(A).  The Leibniz unknown (k, l)
    is the entry at row k of column l, and its block is ``_shifts[l][k]``.

    Each basis derivation of a block is a kernel vector read off the RREF:
    it is 1 at its own free unknown and 0 at the block's other free
    unknowns, so int_mats[t] is denoms[t] there.  The block's ``IntSpan``
    holds these integer forms flattened to keys n l + k, with the free
    unknowns as pivots: the coordinates of a map M of the block are its
    entries at the free unknowns, once ``IntSpan.outside`` has found M in
    the span (a rational M is scaled to integers first).  The commutator
    table is taken on the integer forms, once per unordered pair, because
    [D_j, D_i] = -[D_i, D_j].
    """

    def __init__(self, algebra: AlgebraTable, int_mats: list, denoms: list,
                 blocks: list, group, block_data: dict, shifts: list):
        self.algebra = algebra
        self.int_mats = int_mats  # primitive integer columns per D_t
        self.denoms = denoms      # D_t = int_mats[t] / denoms[t]
        self.blocks = blocks      # block key per basis derivation
        self.group = group
        self._shifts = shifts     # [l][k] -> block key of unknown (k, l)
        # block key -> (index of its first derivation, IntSpan)
        self._block_data = block_data
        self.table = self._commutator_table()

    @property
    def dim(self):
        return len(self.int_mats)

    def apply(self, idx: int, v: Vec) -> Vec:
        """D_idx v, for a sparse vector v."""
        inv = Fraction(1, self.denoms[idx])
        return {k: inv * x for k, x in apply(self.int_mats[idx], v).items()}

    def _int_coords(self, cols: list[Vec], g) -> tuple[int, list]:
        """(offset, coordinates) of a block-g map with integer columns."""
        n = self.algebra.dim
        if len(cols) != n:
            raise ValueError(f"{len(cols)} columns for a {n}-dim algebra")
        w = {}  # entry (k, l) at key n l + k
        for l, col in enumerate(cols):
            if col:
                shifts = self._shifts[l]
                for k, v in col.items():
                    if shifts[k] != g:
                        raise ValueError(
                            f"entry {(k, l)} lies outside block {g!r}")
                    w[n * l + k] = v
        offset, span = self._block_data.get(g, (0, _NO_SPAN))
        if span.outside(w):
            raise ValueError("matrix is not in the derivation span")
        return offset, [w.get(p, 0) for p in span.pivots]

    def coords_in_block(self, cols: list[Vec], g) -> Vec:
        """Sparse coordinates of a block-g map, given by its columns, in the
        derivation basis."""
        ints, scale = int_scaled_vectors(cols)
        offset, cs = self._int_coords(ints, g)
        return {offset + r: Fraction(c, scale) for r, c in enumerate(cs) if c}

    def _commutator_table(self) -> AlgebraTable:
        w, d = self.int_mats, self.denoms

        def mul(i, j):
            g = self.group.add(self.blocks[i], self.blocks[j])
            offset, cs = self._int_coords(commutator(w[i], w[j]), g)
            return {offset + r: Fraction(c, d[i] * d[j])
                    for r, c in enumerate(cs) if c}

        return AlgebraTable.build(self.dim, [f"D{t}" for t in range(self.dim)],
                                  mul, -1)


def derivations(table: AlgebraTable, degrees=None, group=None) -> Derivations:
    """Der(A): kernel of the Leibniz system over all ordered basis pairs.

    The unknown D[k][l] is the coefficient of b_k in D(b_l).  Equation
    (i, j, k) is coordinate k of D(b_i b_j) - D(b_i) b_j - b_i D(b_j) over
    the integer-scaled table, and one pass over the n^2 basis pairs
    assembles them all.  With ``degrees`` (one element of ``group`` per
    basis vector) the unknown D[k][l] belongs to the block deg(k) - deg(l)
    and equation (i, j, k) to the block deg(k) - deg(i) - deg(j); without
    them every degree is () in the trivial group ``FgAbelianGroup(0)``.  An
    equation with an unknown outside its block raises ValueError: the
    degrees are not a grading of the table.  Each block is row-reduced on
    its own, and its block key is the degree of its derivations in the
    induced grading on Der(A).
    """
    n = table.dim
    iprod, _ = table.int_scaled()
    if degrees is None:
        degrees = [()] * n
        group = FgAbelianGroup(0)
    # shifts[l][k]: the block of the unknown (k, l)
    shifts = [[group.sub(degrees[k], degrees[l]) for k in range(n)]
              for l in range(n)]
    unknowns: dict = {}  # block key -> unknowns (k, l) in row-major order
    for k in range(n):
        for l in range(n):
            unknowns.setdefault(shifts[l][k], []).append((k, l))
    col = {kl: t for us in unknowns.values() for t, kl in enumerate(us)}
    rows: dict = {g: {} for g in unknowns}
    block_of: dict = {}  # (k, deg i + deg j) -> block of equation (i, j, k)
    for i in range(n):
        for j in range(n):
            eqs: dict = {}
            for l, c in iprod[i][j]:
                for k in range(n):
                    e = eqs.setdefault(k, {})
                    e[k, l] = e.get((k, l), 0) + c
            for m in range(n):
                for k, c in iprod[m][j]:
                    e = eqs.setdefault(k, {})
                    e[m, i] = e.get((m, i), 0) - c
                for k, c in iprod[i][m]:
                    e = eqs.setdefault(k, {})
                    e[m, j] = e.get((m, j), 0) - c
            dij = group.add(degrees[i], degrees[j])
            for k, e in eqs.items():
                g = block_of.get((k, dij))
                if g is None:
                    g = block_of[k, dij] = group.sub(degrees[k], dij)
                row = []
                for kl, c in e.items():
                    if c:
                        if shifts[kl[1]][kl[0]] != g:
                            raise ValueError(
                                f"degrees are not a grading of the table: "
                                f"equation {(i, j, k)} has unknown {kl} "
                                f"outside block {g!r}")
                        row.append((col[kl], c))
                if not row:
                    continue
                row.sort()
                h = gcd(*(c for _, c in row))
                if row[0][1] < 0:
                    h = -h
                rows[g][tuple((t, c // h) for t, c in row)] = None
    int_mats, denoms, block_keys = [], [], []
    block_data = {}
    for g in sorted(unknowns, key=repr):
        keys = [n * l + k for k, l in unknowns[g]]
        red, pivots = rref([dict(row) for row in rows[g]])
        ker = kernel_from_rref(red, pivots, len(keys))
        if not ker:
            continue
        pivset = set(pivots)
        free = [keys[c] for c in range(len(keys)) if c not in pivset]
        span_rows = []
        for v in ker:
            w, d = primitive({keys[t]: x for t, x in v.items()})
            cols = [{} for _ in range(n)]
            for key, x in w.items():
                l, k = divmod(key, n)
                cols[l][k] = x
            int_mats.append(cols)
            denoms.append(d.numerator)  # v is 1 at its free unknown
            block_keys.append(g)
            span_rows.append(w)
        block_data[g] = (len(int_mats) - len(ker), IntSpan(span_rows, free))
    return Derivations(table, int_mats, denoms, block_keys, group,
                       block_data, shifts)


# ---------------------------------------------------------------------------
# Killing form and friends
# ---------------------------------------------------------------------------

def killing_form(table: AlgebraTable) -> list[Vec]:
    """kappa(b_i, b_j) = trace(ad b_i . ad b_j), computed exactly, as the
    sparse columns of the form: column j is {i: kappa(b_i, b_j)}, nonzero
    entries only, ascending i.

    With c the integer-scaled constants, ad b_i has the entry c_il^k at row
    k of column l, and trace(ad b_i ad b_j) = sum_{k, l} c_il^k c_jk^l.  The
    nonzero entries (i, c_il^k) of all the ad b_i are indexed once by their
    position (l, k); then every kappa_ij is accumulated together, from the
    products c d of an entry (i, c) at (l, k) with an entry (j, d) at the
    transposed position (k, l).  Only matching nonzero constants are
    multiplied, and no pair (i, j) scans a column for a missing entry.
    """
    n = table.dim
    iprod, scale = table.int_scaled()
    index: dict = {}  # n l + k -> [(i, c_il^k)]
    for i, row in enumerate(iprod):
        for l, cell in enumerate(row):
            for k, c in cell:
                if c:
                    index.setdefault(n * l + k, []).append((i, c))
    acc = [{} for _ in range(n)]  # column j -> {i: scaled kappa_ij}
    for key, ents in index.items():
        l, k = divmod(key, n)
        other = index.get(n * k + l)
        if other:
            for j, d in other:
                col = acc[j]
                for i, c in ents:
                    col[i] = col.get(i, 0) + c * d
    denom = scale * scale
    return [{i: Fraction(s, denom) for i, s in sorted(col.items()) if s}
            for col in acc]


def form_restrict(form: list[Vec], vectors: list[Vec]) -> list[Vec]:
    """Gram matrix of a symmetric bilinear form on a family of sparse
    vectors, both forms given by sparse columns: column b of the result is
    {a: form(v_a, v_b)}, nonzero entries only."""
    m = len(vectors)
    out = [{} for _ in range(m)]
    for b in range(m):
        w = apply(form, vectors[b])  # form(b_i, v_b) at i
        for a in range(b + 1):
            s = Fraction(0)
            for i, x in vectors[a].items():
                if i in w:
                    s = s + x * w[i]
            if s:
                out[b][a] = s
                out[a][b] = s
    return [dict(sorted(col.items())) for col in out]


def subalgebra_table(table: AlgebraTable, sub: Subspace) -> AlgebraTable:
    """The algebra induced on a product-closed subspace (raises if not closed)."""
    prod = []
    for a in sub.basis:
        row = []
        for b in sub.basis:
            cs = sub.coords(table.mul_vec(a, b))
            if cs is None:
                raise ValueError("subspace is not closed under the product")
            row.append(cs)
        prod.append(row)
    return AlgebraTable(sub.dim, [f"s{t}" for t in range(sub.dim)], prod)


def killing_ratio(table: AlgebraTable, sub: Subspace,
                  killing: list[Vec] | None = None) -> Fraction:
    """The scalar r with kappa_L|_sub = r * kappa_sub, verified entrywise.

    Raises ValueError when no single ratio fits (which would contradict the
    restriction lemma for simple subalgebras) or when both forms vanish.
    """
    if killing is None:
        killing = killing_form(table)
    sub_t = subalgebra_table(table, sub)
    k_sub = killing_form(sub_t)
    k_res = form_restrict(killing, sub.basis)
    r = None
    for res, kap in zip(k_res, k_sub):
        for i in res.keys() | kap.keys():
            if i not in kap:
                raise ValueError("forms are not proportional")
            q = res.get(i, 0) / kap[i]
            if r is None:
                r = q
            elif q != r:
                raise ValueError("forms are not proportional")
    if r is None:
        raise ValueError("Killing form of the subalgebra vanishes")
    return r


def twist_z2(table: AlgebraTable, parity: list[int], t) -> AlgebraTable:
    """Same space, odd-odd products scaled by t; requires a valid Z2-grading
    with each parity 0 or 1."""
    n = table.dim
    if len(parity) != n or any(p not in (0, 1) for p in parity):
        raise ValueError(f"parity vector is not {n} entries of 0 or 1")
    for i in range(n):
        for j in range(n):
            want = parity[i] ^ parity[j]
            for k in table.prod[i][j]:
                if parity[k] != want:
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

def derived_algebra(table: AlgebraTable) -> Subspace:
    n = table.dim
    return Subspace(n, [table.prod[i][j] for i in range(n)
                        for j in range(i + 1, n) if table.prod[i][j]])


def center(table: AlgebraTable) -> Subspace:
    n = table.dim
    rows = []
    for j in range(n):
        byk: dict = {}
        for i in range(n):
            for k, c in table.prod[i][j].items():
                byk.setdefault(k, {})[i] = c
        rows.extend(byk.values())
    return Subspace(n, kernel(rows, n))


def closure(table: AlgebraTable, vectors: list[Vec]) -> Subspace:
    """Smallest product-closed subspace containing the given vectors."""
    n = table.dim
    sub = Subspace(n, vectors)
    while True:
        new_vecs = list(sub.basis)
        grew = False
        for a in sub.basis:
            for b in sub.basis:
                w = table.mul_vec(a, b)
                if not sub.contains(w):
                    new_vecs.append(w)
                    grew = True
        if not grew:
            return sub
        sub = Subspace(n, new_vecs)
