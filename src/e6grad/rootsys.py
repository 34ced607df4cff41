"""The E6 root system, a Chevalley basis, and the order-2 torus machinery.

Simple roots are ordered with the branch node second (alpha2 attaches to
alpha4): edges 1-3, 3-4, 4-5, 5-6, 2-4.  Roots live as integer 6-tuples of
coefficients over the simple roots.

Structure-constant signs come from a bimultiplicative asymmetry function
eps on the root lattice with eps(a_i, a_i) = -1 and
eps(a, b) eps(b, a) = (-1)^(a, b); setting [E_a, E_b] = eps(a, b) E_{a+b},
[E_a, E_{-a}] = -h_a and f_a = -E_{-a} yields a Chevalley basis with
integer constants, N_{a,b} = +-1 and N_{-a,-b} = -N_{a,b}, verified here by
an exhaustive Jacobi check.  The Chevalley involution then acts as
omega(e_a) = -f_a on every root vector.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroup import FgAbelianGroup
from .gradings import GradedDecomposition
from .linalg import apply
from .scalar import Cyc, I as CYC_I
from .structalg import AlgebraTable, RealForm, int_scaled_vectors

CARTAN = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]

HIGHEST_ROOT = (1, 2, 2, 3, 2, 1)


def ip(a, b) -> int:
    """Inner product with simple roots of norm 2."""
    return sum(a[i] * CARTAN[i][j] * b[j] for i in range(6) for j in range(6))


def build_e6_roots() -> list[tuple[int, ...]]:
    """All 72 roots by reflection closure from the simple roots."""
    simple = [tuple(1 if j == i else 0 for j in range(6)) for i in range(6)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for r in frontier:
            for i, s in enumerate(simple):
                w = tuple(r[j] - ip(r, s) * s[j] for j in range(6))
                if w not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    return sorted(roots)


def positive_roots(roots) -> list[tuple[int, ...]]:
    """Positive roots sorted by height then lexicographically."""
    pos = [r for r in roots if all(x >= 0 for x in r)]
    return sorted(pos, key=lambda r: (sum(r), r))


# ---------------------------------------------------------------------------
# asymmetry function
# ---------------------------------------------------------------------------

_EPS_EXP = [[(1 if i == j else (CARTAN[i][j] % 2 if i > j else 0))
             for j in range(6)] for i in range(6)]


def eps(a, b) -> int:
    e = 0
    for i in range(6):
        if a[i]:
            row = _EPS_EXP[i]
            for j in range(6):
                if b[j] and row[j]:
                    e += a[i] * b[j]
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# Chevalley basis
# ---------------------------------------------------------------------------

class ChevalleyE6:
    """The 78-dim Lie algebra table over Q on {h_i} + {e_a, f_a : a > 0}.

    Basis order: h1..h6, then e_a for positive roots in standard order,
    then f_a in the same order.
    """

    def __init__(self):
        self.roots = build_e6_roots()
        self.pos = positive_roots(self.roots)
        self.pos_index = {r: t for t, r in enumerate(self.pos)}
        self.rootset = set(self.roots)
        n = 6 + 2 * len(self.pos)
        names = [f"h{i+1}" for i in range(6)]
        names += [f"e[{','.join(map(str, r))}]" for r in self.pos]
        names += [f"f[{','.join(map(str, r))}]" for r in self.pos]
        self.dim = n
        self.table = AlgebraTable.build(n, names, self._mul, -1)

    def e_idx(self, r) -> int:
        return 6 + self.pos_index[r]

    def f_idx(self, r) -> int:
        return 6 + len(self.pos) + self.pos_index[r]

    def x_idx(self, r) -> tuple[int, int]:
        """(index, sign) with E_r = sign * basis[index] for any root r."""
        if all(x >= 0 for x in r):
            return self.e_idx(r), 1
        neg = tuple(-x for x in r)
        return self.f_idx(neg), -1

    def _mul(self, i: int, j: int) -> dict:  # i <= j
        npos = len(self.pos)
        if i < 6:
            if j < 6:
                return {}
            if j < 6 + npos:
                r = self.pos[j - 6]
                c = ip(r, tuple(1 if t == i else 0 for t in range(6)))
                return {j: Fraction(c)} if c else {}
            r = self.pos[j - 6 - npos]
            c = -ip(r, tuple(1 if t == i else 0 for t in range(6)))
            return {j: Fraction(c)} if c else {}
        # both are root vectors; recover signed roots
        def root_of(idx):
            if idx < 6 + npos:
                return self.pos[idx - 6], 1
            return self.pos[idx - 6 - npos], -1

        ra, sa = root_of(i)
        rb, sb = root_of(j)
        a = ra if sa > 0 else tuple(-x for x in ra)
        b = rb if sb > 0 else tuple(-x for x in rb)
        # sign of x_a as a multiple of E: e_a = E_a, f_a = -E_{-a}
        ca = 1 if sa > 0 else -1
        cb = 1 if sb > 0 else -1
        s = tuple(x + y for x, y in zip(a, b))
        if all(x == 0 for x in s):
            # [E_a, E_{-a}] = -h_a for a > 0, [E_{-a}, E_a] = +h_a
            pos_a = a if sa > 0 else b
            sgn = -1 if sa > 0 else 1
            out = {}
            for t in range(6):
                c = ca * cb * sgn * pos_a[t]
                if c:
                    out[t] = Fraction(c)
            return out
        if s not in self.rootset:
            return {}
        idx, sign = self.x_idx(s)
        c = ca * cb * eps(a, b) * sign
        return {idx: Fraction(c)}


def z_grading_from_weights(chev: ChevalleyE6, weights) -> GradedDecomposition:
    """The Z-grading with deg e_a = sum k_i l_i for a = sum k_i alpha_i."""
    degs = []
    for t in range(chev.dim):
        if t < 6:
            degs.append((0,))
        elif t < 6 + len(chev.pos):
            r = chev.pos[t - 6]
            degs.append((sum(k * l for k, l in zip(r, weights)),))
        else:
            r = chev.pos[t - 6 - len(chev.pos)]
            degs.append((-sum(k * l for k, l in zip(r, weights)),))
    return GradedDecomposition.from_degree_map(
        chev.table, FgAbelianGroup(1), degs,
        name=f"Z-grading by weights {tuple(weights)}")


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def _character(r, signs) -> int:
    """The value prod s_i^{k_i} (+-1) of the torus element with signs s_i
    on the root r = sum k_i alpha_i."""
    chi = 1
    for k, s in zip(r, signs):
        if s < 0 and k % 2:
            chi = -chi
    return chi


def torus_auto(chev: ChevalleyE6, signs) -> list[dict]:
    """The order-2 torus element acting by prod s_i^{k_i} on root spaces,
    as sparse columns."""
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1")
    cols = [{t: Fraction(1)} for t in range(chev.dim)]
    for r in chev.pos:
        chi = _character(r, signs)
        for t in (chev.e_idx(r), chev.f_idx(r)):
            cols[t] = {t: Fraction(chi)}
    return cols


def omega_auto(chev: ChevalleyE6) -> list[dict]:
    """The Chevalley involution: h -> -h, e_a -> -f_a, f_a -> -e_a, as
    sparse columns."""
    cols = [{t: Fraction(-1)} for t in range(chev.dim)]
    for r in chev.pos:
        ie, if_ = chev.e_idx(r), chev.f_idx(r)
        cols[ie] = {if_: Fraction(-1)}
        cols[if_] = {ie: Fraction(-1)}
    return cols


def is_table_automorphism(table: AlgebraTable, cols: list[dict]) -> bool:
    """phi([x, y]) == [phi x, phi y] on all basis pairs i < j, exactly, for
    the map phi with sparse columns ``cols``.

    The check runs in integers: P = s phi, its columns scaled by the lcm s
    of their denominators, and the table scaled by L (``int_scaled()``).
    Then s P(L b_i b_j) and L [P b_i, P b_j] are s^2 L phi(b_i b_j) and
    s^2 L [phi b_i, phi b_j], so they agree exactly when the two sides do.
    Raises ValueError when a constant of the table or an entry of the map
    is not rational.
    """
    iprod, _ = table.int_scaled()
    ints, s = int_scaled_vectors(cols)
    n = table.dim
    for i in range(n):
        row, pi = iprod[i], ints[i]
        for j in range(i + 1, n):
            lhs = apply(ints, dict(row[j]))
            rhs = table.int_mul_vec(pi, ints[j])
            if {k: s * x for k, x in lhs.items()} != rhs:
                return False
    return True


def fix_dimension(chev: ChevalleyE6, signs) -> int:
    """dim fix(t) on the complex algebra = 6 + #{roots with character 1}."""
    return 6 + sum(1 for r in chev.roots if _character(r, signs) == 1)


# ---------------------------------------------------------------------------
# the real forms spanned by compact/split combinations
# ---------------------------------------------------------------------------

H_PRIME = [
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (1, 0, 2, 0, 0, 0),
    (2, 3, 4, 6, 0, 0),
    (2, 3, 4, 6, 5, 0),
    (2, 3, 4, 6, 5, 4),
]


class ChevalleyRealForm(RealForm):
    """The real span of B = {i h'_j} + {e-f, i(e+f)} + {e+f, i(e-f)}.

    Whether a positive root contributes the compact pair (e-f, i(e+f)) or
    the split pair (e+f, i(e-f)) is decided by the torus parameter: roots
    with character 1 under t are compact.  For t = 1 this is the compact
    real form; for t = t_{-1,1,1,1,1,1} a real form of signature -14.

    Basis order: the six Cartan vectors i h'_j, then for each positive root
    (standard order) the pair (p_a, q_a).
    """

    def __init__(self, chev: ChevalleyE6, signs):
        self.chev = chev
        self.signs = tuple(signs)
        self.compact_root = {r: _character(r, self.signs) == 1
                             for r in chev.pos}
        names = [f"ih'{j+1}" for j in range(6)]
        for r in chev.pos:
            tag = ",".join(map(str, r))
            names += [f"p[{tag}]", f"q[{tag}]"]
        super().__init__(chev.table, [self._basis_vector(t) for t in range(78)],
                         names)

    def _basis_vector(self, t: int) -> dict:
        """The basis vector as a Cyc-coefficient vector over the table of
        the complexification."""
        chev = self.chev
        if t < 6:
            return {m: CYC_I * Fraction(H_PRIME[t][m]) for m in range(6)
                    if H_PRIME[t][m]}
        r = chev.pos[(t - 6) // 2]
        ie, if_ = chev.e_idx(r), chev.f_idx(r)
        one = Cyc(1)
        if (t - 6) % 2 == 0:  # p
            if self.compact_root[r]:
                return {ie: one, if_: -one}
            return {ie: one, if_: one}
        if self.compact_root[r]:
            return {ie: CYC_I, if_: CYC_I}
        return {ie: CYC_I, if_: -CYC_I}
