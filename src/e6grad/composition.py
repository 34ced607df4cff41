"""The real octonion algebra with the Fano-plane product.

Basis {1, e1, ..., e7}; each oriented line (a, b, c) of the Fano plane means
e_a e_b = e_c (cyclically), e_b e_a = -e_c, and e_i^2 = -1.  Of the 128
orientation assignments of the seven lines, 16 yield a composition algebra;
the one used here matches the figure conventions of the source construction
(sides (5,3,4), (4,2,6), (6,1,5); medians (5,7,2), (4,7,1), (6,7,3); circle
(1,3,2)) and is certified by the norm multiplicativity check
``check_norm_multiplicativity`` - any valid orientation gives an isomorphic
algebra, so downstream results do not depend on the choice.

A split variant (norm of signature (4,4)) is provided for the optional
signature-2 construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .structalg import AlgebraTable, CheckReport

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

Octonion = list  # 8 Fractions, index 0 = real unit


def oct(*coords) -> Octonion:
    v = [Fraction(0)] * 8
    for i, c in enumerate(coords):
        v[i] = Fraction(c)
    return v


def unit(i: int) -> Octonion:
    v = [Fraction(0)] * 8
    v[i] = Fraction(1)
    return v


def basis_mul(i: int, j: int, split: bool = False) -> tuple[int, Fraction]:
    """(k, sign) with e_i e_j = sign * e_k (index 0 is the unit)."""
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


def oct_mul(a: Octonion, b: Octonion, split: bool = False) -> Octonion:
    out = [Fraction(0)] * 8
    for i in range(8):
        if a[i] == 0:
            continue
        for j in range(8):
            if b[j] == 0:
                continue
            k, s = basis_mul(i, j, split)
            out[k] += s * a[i] * b[j]
    return out


def oct_conj(a: Octonion) -> Octonion:
    return [a[0]] + [-x for x in a[1:]]


def norm(a: Octonion) -> Fraction:
    return sum(x * x for x in a)


def trace_o(a: Octonion) -> Fraction:
    return 2 * a[0]


def oct_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def oct_add(a, b):
    return [x + y for x, y in zip(a, b)]


def commutator(a: Octonion, b: Octonion, split: bool = False) -> Octonion:
    return oct_sub(oct_mul(a, b, split), oct_mul(b, a, split))


def d_ab(a: Octonion, b: Octonion, split: bool = False) -> list[list[Fraction]]:
    """The inner derivation c -> [[a,b],c] + 3(ac)b - 3a(cb), as an 8x8 matrix.

    Requires traceless a, b.
    """
    if trace_o(a) != 0 or trace_o(b) != 0:
        raise ValueError("d_ab requires traceless arguments")
    ab = commutator(a, b, split)
    cols = []
    for j in range(8):
        c = unit(j)
        v = commutator(ab, c, split)
        v = oct_add(v, [3 * x for x in oct_mul(oct_mul(a, c, split), b, split)])
        v = oct_sub(v, [3 * x for x in oct_mul(a, oct_mul(c, b, split), split)])
        cols.append(v)
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def octonion_table(split: bool = False) -> AlgebraTable:
    """The octonions as an AlgebraTable (split variant negates n on e4..e7).

    The split table is obtained by the standard sign twist: products where
    exactly one factor or the result would leave the quaternion subalgebra
    spanned by {1, e1, e2, e3}... implemented as the Cayley-Dickson doubling
    of H with parameter +1 instead of -1: e_i e_j keeps its index but signs
    change so that e_k^2 = +1 for k in {4, 5, 6, 7}.
    """
    def mul(i, j):
        k, s = basis_mul(i, j, split)
        return {k: s} if s else {}

    names = ["1"] + [f"e{i}" for i in range(1, 8)]
    return AlgebraTable.build(8, names, mul)


def split_norm(a: Octonion) -> Fraction:
    return sum(a[i] * a[i] for i in range(4)) - sum(a[i] * a[i] for i in range(4, 8))


def check_norm_multiplicativity(n_random: int = 1000, seed: int = 0,
                                split: bool = False) -> CheckReport:
    """n(xy) = n(x) n(y) on all 64 basis pairs and random pairs."""
    table = octonion_table(split)
    nf = split_norm if split else norm

    def mulv(a, b):
        out = [Fraction(0)] * 8
        for i in range(8):
            if a[i] == 0:
                continue
            for j in range(8):
                if b[j] == 0:
                    continue
                for k, s in table.prod[i][j].items():
                    out[k] += s * a[i] * b[j]
        return out

    for i in range(8):
        for j in range(8):
            x, y = unit(i), unit(j)
            if nf(mulv(x, y)) != nf(x) * nf(y):
                return CheckReport("norm-multiplicativity", False, (i, j))
    rng = random.Random(seed)
    for _ in range(n_random):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)]
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)]
        if nf(mulv(x, y)) != nf(x) * nf(y):
            return CheckReport("norm-multiplicativity", False, (x, y))
    return CheckReport("norm-multiplicativity", True)


def check_alternativity() -> CheckReport:
    """(xx)y = x(xy) and (yx)x = y(xx) on all basis pairs."""
    for i in range(8):
        for j in range(8):
            x, y = unit(i), unit(j)
            if oct_mul(oct_mul(x, x), y) != oct_mul(x, oct_mul(x, y)):
                return CheckReport("alternativity", False, (i, j, "left"))
            if oct_mul(oct_mul(y, x), x) != oct_mul(y, oct_mul(x, x)):
                return CheckReport("alternativity", False, (i, j, "right"))
    return CheckReport("alternativity", True)


def octonion_degrees() -> list[tuple[int, int, int]]:
    """Z2^3 degree of each basis element, in basis order."""
    return [OCT_DEGREES[i] for i in range(8)]


def octonion_grading(split: bool = False):
    """The Z2^3 grading of O with eight one-dimensional components."""
    from .abgroup import FgAbelianGroup
    from .gradings import GradedDecomposition
    return GradedDecomposition.from_degree_map(
        octonion_table(split), FgAbelianGroup(0, (2, 2, 2)),
        octonion_degrees(), name="Z2^3 on O")
