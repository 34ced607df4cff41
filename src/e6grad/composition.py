"""The real octonion algebra with the Fano-plane product.

Basis {1, e1, ..., e7}; each oriented line (a, b, c) of the Fano plane means
e_a e_b = e_c (cyclically), e_b e_a = -e_c, and e_i^2 = -1.  Of the 128
orientation assignments of the seven lines, 16 yield a composition algebra;
the one used here matches the figure conventions of the source construction
(sides (5,3,4), (4,2,6), (6,1,5); medians (5,7,2), (4,7,1), (6,7,3); circle
(1,3,2)) and is certified by the norm multiplicativity check
``check_norm_multiplicativity`` - any valid orientation gives an isomorphic
algebra, so downstream results do not depend on the choice.

The split octonions (norm of signature (4, 4)) are the Z2-twist of this
algebra by the third coordinate of its Z2^3 degrees: products of two of
e4, ..., e7 change sign.  ``basis_mul(split=True)`` gives that product so
that ``check_norm_multiplicativity`` can certify it; T(Os, M) is built as
the same twist of T(O, M).

An octonion is a sparse vector {index: Fraction}, multiplied through
``octonion_table().mul_vec``; ``d_ab`` returns the sparse columns of an
inner derivation, the form ``Derivations.coords_in_block`` reads.  ``d_ab``
and the two identity checks run on the (index, sign) table of
``basis_mul``.
"""

from __future__ import annotations

from fractions import Fraction

from .structalg import AlgebraTable, CheckReport, vec_add_scaled

FANO_LINES = ((5, 3, 4), (4, 2, 6), (6, 1, 5),
              (5, 7, 2), (4, 7, 1), (6, 7, 3), (1, 3, 2))

# Z2^3 degrees of the basis: deg e1 = 100, deg e2 = 010, deg e7 = 001 and the
# rest are forced by multiplicativity along the lines.
OCT_DEGREES = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 0),
               4: (1, 0, 1), 5: (0, 1, 1), 6: (1, 1, 1), 7: (0, 0, 1)}


def _pair_table(lines) -> dict:
    mul = {}
    for (a, b, c) in lines:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            mul[(x, y)] = (z, 1)
            mul[(y, x)] = (z, -1)
    return mul

_MUL = _pair_table(FANO_LINES)


def basis_mul(i: int, j: int, split: bool = False) -> tuple[int, Fraction]:
    """(k, sign) with e_i e_j = sign * e_k (index 0 is the unit).

    With ``split=True`` the product of the split octonions, the
    Cayley-Dickson double of the quaternions on {1, e1, e2, e3} with
    parameter +1 instead of -1: the sign flips when both factors lie in
    {e4, ..., e7}, so e_k^2 = +1 for k >= 4."""
    if i == 0:
        return j, Fraction(1)
    if j == 0:
        return i, Fraction(1)
    if i == j:
        return 0, Fraction(1) if (split and i >= 4) else Fraction(-1)
    k, s = _MUL[(i, j)]
    if split and i >= 4 and j >= 4:
        s = -s
    return k, Fraction(s)


def d_ab(a: dict, b: dict) -> list[dict]:
    """The inner derivation c -> [[a,b],c] + 3(ac)b - 3a(cb) of sparse
    octonions a, b, as its eight sparse columns: column c holds the image
    of e_c.

    Requires traceless a, b (t(a) = 2 a_0).
    """
    if a.get(0) or b.get(0):
        raise ValueError("d_ab requires traceless arguments")
    prod = [[basis_mul(i, j) for j in range(8)] for i in range(8)]

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


def octonion_table() -> AlgebraTable:
    """The octonions as an AlgebraTable on the basis {1, e1, ..., e7}."""
    def mul(i, j):
        k, s = basis_mul(i, j)
        return {k: s}

    names = ["1"] + [f"e{i}" for i in range(1, 8)]
    return AlgebraTable.build(8, names, mul)


def check_norm_multiplicativity(split: bool = False) -> CheckReport:
    """n(xy) = n(x) n(y) for all octonions, proved on the basis.

    Over Q, multiplicativity is equivalent to its full polarization
    n(xy, wz) + n(wy, xz) = 2 n(x, w) n(y, z), with n(a, b) the bilinear form
    of n, which is multilinear and so holds everywhere once it holds on all
    8^4 basis quadruples (x, y, w, z).  The witness is the first failing
    quadruple.
    """
    sign = [1] * 4 + [-1 if split else 1] * 4
    basis = [(k, 1) for k in range(8)]
    prod = [[basis_mul(i, j, split) for j in range(8)] for i in range(8)]

    def form(p, q):  # n(s e_k, t e_l) for p = (k, s), q = (l, t)
        return sign[p[0]] * p[1] * q[1] if p[0] == q[0] else 0

    for x in range(8):
        for y in range(8):
            for w in range(8):
                for z in range(8):
                    lhs = (form(prod[x][y], prod[w][z])
                           + form(prod[w][y], prod[x][z]))
                    if lhs != 2 * form(basis[x], basis[w]) * \
                            form(basis[y], basis[z]):
                        return CheckReport("norm-multiplicativity", False,
                                           (x, y, w, z))
    return CheckReport("norm-multiplicativity", True)


def check_alternativity() -> CheckReport:
    """(xx)y = x(xy) and (yx)x = y(xx) for all octonions, proved on the basis.

    With (a, b, c) = (ab)c - a(bc), the laws are (x, x, y) = 0 and
    (y, x, x) = 0.  They are quadratic in x, so holding for basis x proves
    nothing; over Q they are equivalent to their linearizations
    (x, z, y) + (z, x, y) = 0 and (y, x, z) + (y, z, x) = 0 (put z = x one
    way; expand (x + z, x + z, y) the other), which are trilinear and so
    hold everywhere once they hold on all 8^3 basis triples (x, z, y).  The
    witness is the first failing (x, z, y, side).
    """
    prod = [[(k, int(s)) for k, s in (basis_mul(i, j) for j in range(8))]
            for i in range(8)]

    def assoc(a, b, c, acc):  # acc += (e_a, e_b, e_c)
        k, s = prod[a][b]
        m, t = prod[k][c]
        acc[m] = acc.get(m, 0) + s * t
        k, s = prod[b][c]
        m, t = prod[a][k]
        acc[m] = acc.get(m, 0) - s * t

    for x in range(8):
        for z in range(8):
            for y in range(8):
                for side, terms in (("left", ((x, z, y), (z, x, y))),
                                    ("right", ((y, x, z), (y, z, x)))):
                    acc: dict = {}
                    for a, b, c in terms:
                        assoc(a, b, c, acc)
                    if any(acc.values()):
                        return CheckReport("alternativity", False,
                                           (x, z, y, side))
    return CheckReport("alternativity", True)


def octonion_degrees() -> list[tuple[int, int, int]]:
    """Z2^3 degree of each basis element, in basis order."""
    return [OCT_DEGREES[i] for i in range(8)]
