"""Finite-dimensional real algebras given by structure constants.

An ``AlgebraTable`` stores b_i * b_j = sum_k c[i][j][k] b_k with rational
constants (Fractions or ints); so does every bilinear form here.  Q(zeta_12)
enters only through a ``RealForm``, whose complex basis holds ``Cyc``
coordinates: the table it restricts to is rational, and ``to_real_coords``
raises ValueError on a coordinate that is not.  The restriction itself runs
in Z[zeta_12], on integer vectors split by powers of z over one scale per
family, with the products taken over the integer-scaled complex table.
Identity checks (anticommutativity, Jacobi, the linearized Jordan identity)
run over a common-denominator integer scaling of the table, so the
exhaustive loops stay in machine/bigint arithmetic.
The Jacobi check packs each cell of that table into one int, one slot of
``bits`` bits per coordinate, with 2^(bits - 1) above 3 n M^2 (M the largest
|constant|), the most any coordinate of a Jacobi vector can reach in
absolute value; so a packed Jacobi vector is zero exactly when every
coordinate is, and each triple costs a few int products, not a dict.  It
scans only the triples that meet a generating set S, by a lemma that holds
in any algebra: if the left multiplications L_x and L_y are derivations,
then L_{xy} = [L_x, L_y] is one, so the x with L_x a derivation form a
subalgebra.  On an anticommutative table, L_s is a derivation exactly when
every Jacobi vector of a triple containing s vanishes; so when S generates
and every triple meeting S passes, every triple passes.  S is found by
closing span(S) under the L_s by fraction-free integer elimination.
Vectors are sparse dicts (index -> nonzero scalar) throughout: a
``Subspace`` holds the sparse RREF rows of a basis and reads coordinates off
its pivots, with a residual over the vector's keys.  A linear map (ad b_i,
R_x, a derivation) and a bilinear form (Killing, Gram) are both ``linalg``'s
list of sparse columns.  The Killing form
indexes every nonzero entry c_il^k of every ad b_i by its position (l, k)
once, and accumulates all kappa_ij together from the pairs of entries at
transposed positions (l, k) and (k, l).

A ``Derivations`` is reduced from integer maps that span it: the inner
derivations the model builders form, or the kernel vectors of the Leibniz
linear system that ``derivations(table)`` solves.  The maps go to one
fraction-free echelon (``linalg.IntEchelon``) with pivots taken from the
right in the row-major order of the matrix entries (k, l).  That reduced
echelon basis depends only on the span, and it is the Leibniz kernel basis:
a kernel vector is 1 at its free unknown c and 0 at the other free
unknowns, its other entries sit at pivots of the equations' RREF rows that
contain c, and a pivot is its row's least index, so c is the largest
unknown of its support.  The coordinates of a map in the derivation basis
are its entries at the pivots, confirmed by ``IntSpan``, the integer span
test that the grading product pass also uses, and the commutator table of
the derivations is computed in integers.  The Leibniz system is assembled
in one pass over the integer-scaled table; on a commutative or
anticommutative table, equation (j, i, k) is +-equation (i, j, k), so only
the pairs i <= j are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import (IntEchelon, apply, commutator, int_kernel, inverse,
                     kernel, rref)
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


def _int_parts(vecs: list[dict]) -> tuple[list[list], int]:
    """(parts, s) for sparse vectors over Q(zeta_12): s is the lcm of the
    denominators of all their coordinates in the power basis, and parts[v]
    lists (p, u_p) for the powers p of z with s vecs[v] = sum_p z^p u_p,
    u_p a nonzero integer sparse vector, p ascending."""
    coords = [[(k, x.c if isinstance(x, Cyc) else (x,)) for k, x in v.items()]
              for v in vecs]
    s = lcm(*(y.denominator for v in coords for _, c in v for y in c))
    out = []
    for v in coords:
        by_power: dict = {}
        for k, c in v:
            for p, y in enumerate(c):
                if y:
                    by_power.setdefault(p, {})[k] = \
                        y.numerator * (s // y.denominator)
        out.append(sorted(by_power.items()))
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

    def generators(self) -> list[int]:
        """Indices S, ascending, such that the smallest subspace that holds
        every b_s (s in S) and is closed under every left multiplication L_s
        (s in S) is the whole space; so S generates the algebra.

        The basis is walked in index order, and b_t joins S when it lies
        outside the current subspace V.  V is then closed under the L_s by
        fraction-free elimination (``linalg.IntEchelon``) over
        ``int_scaled()``: each vector kept in V is taken through every L_s,
        and a new L_s through every vector kept so far, until no product
        leaves V.  The walk stops when V has rank n.
        """
        n = self.dim
        span = IntEchelon()
        gens: list[int] = []
        vecs: list[Vec] = []  # the vectors kept in V, in order
        for t in range(n):
            if len(span.red) == n:
                break
            v = span.add({t: 1})
            if not v:
                continue
            gens.append(t)
            # (s, u): L_s u is still to be taken; the loop reaches the
            # pairs appended while it runs
            todo = [(t, u) for u in vecs] + [(s, v) for s in gens]
            vecs.append(v)
            for s, u in todo:
                if len(span.red) == n:
                    break
                w = span.add(self.int_mul_vec({s: 1}, u))
                if w:
                    vecs.append(w)
                    todo += [(s2, w) for s2 in gens]
        return gens

    def check_jacobi(self) -> CheckReport:
        """The Jacobi identity on every basis triple i < j < k, exactly,
        proved from the triples that meet a generating set.  The witness of
        a failure is the first failing triple (i, j, k) in lexicographic
        order.

        *Lemma.*  In any algebra, if L_x is a derivation, then (x y) z =
        x (y z) - y (x z), i.e. L_{xy} = [L_x, L_y], and a commutator of
        two derivations is one.  So N = {x : L_x is a derivation} is a
        subalgebra (a subspace, as L is linear).  On an anticommutative
        table (b_i b_i = 0 and b_j b_i = -b_i b_j) the Jacobi vector is
        alternating, and L_s is a derivation exactly when the Jacobi vector
        of every triple that contains s vanishes.

        Take S = ``generators()`` and let (i, j, k) be the first failing
        triple.  Every triple that contains an s < i comes before it and
        passes, so N holds b_s for each s < i in S; being a subalgebra, N
        then holds the subspace that the walk of ``generators`` had closed
        under those L_s when it reached b_i.  Were i not in S, b_i would
        lie in that subspace, L_{b_i} would be a derivation, and (i, j, k)
        would pass.  So i is in S: scanning only the triples that meet S,
        in lexicographic order, finds the same first failure as scanning
        them all, and when none of them fails the identity holds on every
        triple.  A table that is not anticommutative has every triple
        scanned.

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
        the Jacobi vector is, and, as 2 M < 2^bits, the table is
        anticommutative exactly when P[j][i] = -P[i][j] for all i <= j.
        """
        iprod, _ = self.int_scaled()
        n = self.dim
        big = max((abs(c) for row in iprod for cell in row for _, c in cell),
                  default=0)
        bits = (3 * n * big * big).bit_length() + 1
        packed = [[sum(c << (bits * m) for m, c in cell) for cell in row]
                  for row in iprod]
        anti = all(packed[i][j] == -packed[j][i]
                   for i in range(n) for j in range(i, n))
        gens = set(self.generators() if anti else range(n))
        # later[j]: the k > j in gens, for a triple that meets gens at k only
        later = [sorted(k for k in gens if k > j) for j in range(n)]
        for i in range(n):
            pi = packed[i]
            for j in range(i + 1, n):
                pj, row_j, c_ij = packed[j], iprod[j], iprod[i][j]
                ks = range(j + 1, n) if i in gens or j in gens else later[j]
                for k in ks:
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

    The restriction runs in Z[zeta_12], held as integers.  The basis, the
    rows of the block inverses and every vector whose coordinates are read
    are each scaled by one positive integer (``_int_parts``) and split by
    powers of z: a vector is sum_p z^p u_p with integer vectors u_p.  The
    product of basis vectors i and j is then sum_{p, q} z^(p + q) u_p v_q,
    each u_p v_q an integer product over ``complex_table.int_scaled()``,
    and coordinate t of a vector sum_m z^m w_m is sum_{r, m} z^(r + m)
    <row t of the inverse at z^r, w_m>, an integer polynomial in z of
    degree at most 9.  ``_coords`` reduces it with z^6 = -1, z^4 = z^2 - 1
    and z^5 = z^3 - z to the power basis {1, z, z^2, z^3}; the coordinate
    is rational exactly when the z, z^2 and z^3 parts are zero, and it is
    the 1 part over the product of the scales.

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
        inv_rows = [None] * n  # row t of the inverse, keyed by coordinate
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
            for t, row in zip(ts, inverse(rows)):
                inv_rows[t] = {ks[p]: c for p, c in row.items()}
        # _inv_cols[k]: (t, r, c) for entry c z^r at coordinate k of row t
        parts, self._inv_scale = _int_parts(inv_rows)
        self._inv_cols = [[] for _ in range(n)]
        for t, row_parts in enumerate(parts):
            for r, row in row_parts:
                for k, c in row.items():
                    self._inv_cols[k].append((t, r, c))
        self._basis_parts, scale = _int_parts(complex_basis)
        self._prod_scale = scale * scale * complex_table.int_scaled()[1]
        sign = (-1 if complex_table.check_anticommutative()
                else 1 if complex_table.check_commutative() else None)
        self.table = AlgebraTable.build(n, names, self._mul, sign)

    def to_real_coords(self, w: dict) -> dict:
        """Rational coordinates of the complex vector w in the basis, as a
        sparse vector with ascending keys.

        Raises ValueError when a coordinate is not rational, i.e. w is not
        in the real span.
        """
        (parts,), scale = _int_parts([w])
        return self._coords(parts, scale)

    def _mul(self, i: int, j: int) -> dict:
        mul = self.complex.int_mul_vec
        return self._coords([(p + q, mul(u, v))
                             for p, u in self._basis_parts[i]
                             for q, v in self._basis_parts[j]],
                            self._prod_scale)

    def _coords(self, parts: list, scale: int) -> dict:
        """The coordinates of sum_m z^m w_m / scale, for the (m, w_m) of
        ``parts`` with 0 <= m <= 6 and integer vectors w_m."""
        acc: dict = {}  # t -> coefficients of z^0 .. z^9
        cols = self._inv_cols
        for m, w in parts:
            for k, x in w.items():
                for t, r, c in cols[k]:
                    a = acc.get(t)
                    if a is None:
                        a = acc[t] = [0] * 10
                    a[r + m] += c * x
        den = scale * self._inv_scale
        out = {}
        for t in sorted(acc):
            a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = acc[t]
            c0, c1 = a0 - a6 - a4, a1 - a7 - a5
            c2, c3 = a2 - a8 + a4, a3 - a9 + a5
            if c1 or c2 or c3:
                raise ValueError("not rational: " + repr(Cyc(
                    *(Fraction(c, den) for c in (c0, c1, c2, c3)))))
            if c0:
                out[t] = Fraction(c0, den)
        return out

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

class Derivations:
    """A basis of a Lie algebra of derivations, as sparse columns, with its
    commutator Lie table, reduced from integer maps that span it.

    The t-th basis derivation D_t is held once, as primitive integer
    columns ``int_mats[t]`` (column l a sparse vector of ints, the entries
    of all columns with gcd 1) and a positive integer ``denoms[t]``: the
    coefficient of b_k in D_t(b_l) is int_mats[t][l][k] / denoms[t].
    ``blocks[t]`` is the degree of D_t: ``degree(k, l)`` of each of its
    entries (k, l), () for every entry by default.  For the degrees of a
    grading of the algebra (deg k - deg l), these are the degrees of the
    induced grading on the span.

    The maps are fed to an ``IntEchelon`` with the entry (k, l) at key
    -(n k + l), i.e. with pivots taken from the right in the row-major
    order of (k, l); a map whose entries have two degrees raises
    ValueError.  So D_t / denoms[t] is the reduced echelon basis of the
    span with pivots from the right: 1 at its pivot, the largest (k, l) of
    its support, and 0 at every other pivot.  That basis depends only on
    the span.  The Leibniz kernel vector of a free unknown c is 1 at c and
    0 at the other free unknowns, and nonzero elsewhere only at pivots of
    the equations' RREF rows that contain c; a pivot is its row's least
    index, so c is the largest unknown of its support.  So the Leibniz
    kernel, split by degree or not, is this basis of Der(A), and spanning
    Der(A) by any maps (inner derivations, say) gives it too; homogeneous
    maps of different degrees have disjoint supports, so the echelon of
    their span is the union of the echelons of its degree parts.  The basis
    is ordered by ``repr`` of the degree, then by ascending pivot (k, l).

    ``IntSpan`` holds the rows with their pivots: the coordinates of a map
    are its entries at the pivots, once ``IntSpan.outside`` has found it in
    the span.  The commutator table is taken on the integer forms, once per
    unordered pair, because [D_j, D_i] = -[D_i, D_j].
    """

    def __init__(self, algebra: AlgebraTable, maps,
                 degree=lambda k, l: ()):
        n = self.n = algebra.dim
        self.algebra = algebra
        span = IntEchelon()
        deg_at: dict = {}  # key -> degree of the entry there
        deg_of: dict = {}  # pivot key -> degree of its derivation
        for idx, cols in enumerate(maps):
            w = self._flat(cols)
            g = None
            for key in w:
                h = deg_at.get(key)
                if h is None:
                    h = deg_at[key] = degree(*divmod(-key, n))
                if g is None:
                    g = h
                elif h != g:
                    raise ValueError(
                        f"map {idx} has entry {divmod(-key, n)} of degree "
                        f"{h!r} and an entry of degree {g!r}")
            row = span.add(w)
            if row:
                deg_of[min(row)] = g
        pivots = sorted(span.red, key=lambda p: (repr(deg_of[p]), -p))
        rows = [span.red[p] for p in pivots]
        self.blocks = [deg_of[p] for p in pivots]  # degree per D_t
        self.denoms = [row[p] for row, p in zip(rows, pivots)]
        self.int_mats = []  # primitive integer columns per D_t
        for row in rows:
            cols = [{} for _ in range(n)]
            for key, x in sorted(row.items(), reverse=True):
                k, l = divmod(-key, n)
                cols[l][k] = x
            self.int_mats.append(cols)
        self._span = IntSpan(rows, pivots)
        self.table = self._commutator_table()

    @property
    def dim(self):
        return len(self.int_mats)

    def _flat(self, cols: list[Vec]) -> Vec:
        """The entries of integer columns, entry (k, l) at key -(n k + l)."""
        n = self.n
        if len(cols) != n:
            raise ValueError(f"{len(cols)} columns for a {n}-dim algebra")
        return {-(n * k + l): x for l, col in enumerate(cols)
                for k, x in col.items() if x}

    def apply(self, idx: int, v: Vec) -> Vec:
        """D_idx v, for a sparse vector v."""
        inv = Fraction(1, self.denoms[idx])
        return {k: inv * x for k, x in apply(self.int_mats[idx], v).items()}

    def coords(self, cols: list[Vec], scale: int) -> Vec:
        """Sparse coordinates in the derivation basis of the map cols /
        scale, for integer columns cols and a nonzero integer scale; raises
        ValueError when the map is not in the span."""
        w = self._flat(cols)
        if self._span.outside(w):
            raise ValueError("matrix is not in the derivation span")
        return {t: Fraction(w[p], scale)
                for t, p in enumerate(self._span.pivots) if p in w}

    def _commutator_table(self) -> AlgebraTable:
        w, d = self.int_mats, self.denoms
        return AlgebraTable.build(
            self.dim, [f"D{t}" for t in range(self.dim)],
            lambda i, j: self.coords(commutator(w[i], w[j]), d[i] * d[j]), -1)


def derivations(table: AlgebraTable) -> Derivations:
    """Der(A): kernel of the Leibniz system over all ordered basis pairs.

    The unknown D[k][l] is the coefficient of b_k in D(b_l), at column
    n k + l.  Equation (i, j, k) is coordinate k of D(b_i b_j) - D(b_i) b_j
    - b_i D(b_j) over the integer-scaled table, and one pass over the n^2
    basis pairs assembles them all.  On a table that passes
    ``check_commutative`` or ``check_anticommutative`` (b_j b_i = s b_i
    b_j, s = +-1), D(b_j b_i) - D(b_j) b_i - b_j D(b_i) = s (D(b_i b_j) -
    b_i D(b_j) - D(b_i) b_j), so equation (j, i, k) is s times equation
    (i, j, k) and the pass takes the pairs i <= j only.  Each row is kept
    once, primitive and positive at its first unknown, and the rows of
    (i, j) came first, so the system is the same as from every ordered
    pair.  The primitive integer equations are row-reduced in integers
    (``linalg.int_kernel``), and ``Derivations`` takes the kernel vectors,
    each already its reduced row with pivots from the right.
    """
    n = table.dim
    iprod, _ = table.int_scaled()
    rows: dict = {}
    mirrored = table.check_commutative() or table.check_anticommutative()
    for i in range(n):
        for j in range(i if mirrored else 0, n):
            eqs: dict = {}
            for l, c in iprod[i][j]:
                for k in range(n):
                    e = eqs.setdefault(k, {})
                    e[n * k + l] = e.get(n * k + l, 0) + c
            for m in range(n):
                for k, c in iprod[m][j]:
                    e = eqs.setdefault(k, {})
                    e[n * m + i] = e.get(n * m + i, 0) - c
                for k, c in iprod[i][m]:
                    e = eqs.setdefault(k, {})
                    e[n * m + j] = e.get(n * m + j, 0) - c
            for e in eqs.values():
                row = sorted((t, c) for t, c in e.items() if c)
                if not row:
                    continue
                h = gcd(*(c for _, c in row))
                if row[0][1] < 0:
                    h = -h
                rows[tuple((t, c // h) for t, c in row)] = None
    maps = []
    for _, w in int_kernel([dict(row) for row in rows], n * n):
        cols = [{} for _ in range(n)]
        for t, x in w.items():
            k, l = divmod(t, n)
            cols[l][k] = x
        maps.append(cols)
    return Derivations(table, maps)


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
