"""Exact arithmetic in the cyclotomic field Q(zeta_12).

``Cyc`` stores coordinates in the power basis {1, z, z^2, z^3} of Q(zeta_12),
where z is a primitive 12th root of unity with minimal polynomial
z^4 - z^2 + 1.  The field contains

    i     = z^3                (i^2 = -1),
    omega = z^4 = z^2 - 1      (primitive cube root of unity),

so a single field covers every eigenvalue and matrix entry of the complex
bases in this package: those of the flag, Chevalley and M real forms
(``structalg.RealForm``), the Pauli units of M and the 8 x 8 matrices of
the sp8 lemma.  Every algebra table, bilinear form and JSON scalar is a
``fractions.Fraction``; ``Cyc.as_fraction`` is where a complex computation
comes back to Q.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coerce4(x) -> tuple:
    """Coordinates of an int/Fraction/Cyc in the power basis."""
    if isinstance(x, Cyc):
        return x.c
    return (Fraction(x), _ZERO, _ZERO, _ZERO)


def _one_term(c: tuple):
    """k if every coordinate of c but coordinate k is zero, else None.

    For c = 0 this is 3, so the caller scales by c[3] = 0."""
    c0, c1, c2, c3 = c
    if c0:
        return None if c1 or c2 or c3 else 0
    if c1:
        return None if c2 or c3 else 1
    if c2:
        return None if c3 else 2
    return 3


def _plus(x: Fraction, y: Fraction) -> Fraction:
    return x + y if x and y else x or y


def _shift(b: tuple, s, k: int) -> "Cyc":
    """(s * z^k) * b for rational s and 0 <= k < 4: scale, then shift k
    times by z with z^4 = z^2 - 1, z^5 = z^3 - z and z^6 = -1."""
    if not s:
        return CYC_ZERO
    b0, b1, b2, b3 = b
    if s != 1:
        b0 = b0 * s if b0 else b0
        b1 = b1 * s if b1 else b1
        b2 = b2 * s if b2 else b2
        b3 = b3 * s if b3 else b3
    if k == 0:
        return Cyc._make((b0, b1, b2, b3))
    if k == 1:  # z * b
        return Cyc._make((-b3, b0, _plus(b1, b3), b2))
    if k == 2:  # z^2 * b
        return Cyc._make((-b2, -b3, _plus(b0, b2), _plus(b1, b3)))
    # z^3 * b
    return Cyc._make((-_plus(b1, b3), -b2, b1, _plus(b0, b2)))


class Cyc:
    """An element of Q(zeta_12) in the power basis {1, z, z^2, z^3}."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    @staticmethod
    def _make(c: tuple) -> "Cyc":
        out = object.__new__(Cyc)
        out.c = c
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Cyc, int, Fraction)):
            return NotImplemented
        # A zero coordinate on either side adds nothing, so only pairs of
        # nonzero coordinates go through Fraction addition.
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = _coerce4(other)
        return Cyc._make((a0 + b0 if a0 and b0 else a0 or b0,
                          a1 + b1 if a1 and b1 else a1 or b1,
                          a2 + b2 if a2 and b2 else a2 or b2,
                          a3 + b3 if a3 and b3 else a3 or b3))

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return Cyc._make((-a[0], -a[1], -a[2], -a[3]))

    def __sub__(self, other):
        if not isinstance(other, (Cyc, int, Fraction)):
            return NotImplemented
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = _coerce4(other)
        return Cyc._make((a0 - b0 if a0 and b0 else a0 or -b0,
                          a1 - b1 if a1 and b1 else a1 or -b1,
                          a2 - b2 if a2 and b2 else a2 or -b2,
                          a3 - b3 if a3 and b3 else a3 or -b3))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _shift(self.c, other, 0)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self.c, other.c
        # Two fast paths skip the convolution.  A rational operand s scales
        # the coordinates of the other; a one-term operand s*z^k scales them
        # and shifts them k times.  Neither multiplies a zero coordinate.
        k = _one_term(b)
        if k is not None:
            return _shift(a, b[k], k)
        k = _one_term(a)
        if k is not None:
            return _shift(b, a[k], k)
        # Convolution up to degree 6, then reduce with z^4 = z^2 - 1,
        # z^5 = z^3 - z, z^6 = -1.
        d0 = a[0] * b[0]
        d1 = a[0] * b[1] + a[1] * b[0]
        d2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
        d3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0]
        d4 = a[1] * b[3] + a[2] * b[2] + a[3] * b[1]
        d5 = a[2] * b[3] + a[3] * b[2]
        d6 = a[3] * b[3]
        return Cyc._make((d0 - d4 - d6, d1 - d5, d2 + d4, d3 + d5))

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_12)")
        c = self.c
        if not (c[1] or c[2] or c[3]):
            return Cyc._make((_ONE / c[0], _ZERO, _ZERO, _ZERO))
        # Solve (self * x) = 1 as a 4x4 rational linear system in the
        # coordinates of x.  Columns are self * z^k.
        cols = []
        p = CYC_ONE
        for _ in range(4):
            cols.append((self * p).c)
            p = p * ZETA
        m = [[cols[j][i] for j in range(4)] + [_ONE if i == 0 else _ZERO]
             for i in range(4)]
        for col in range(4):
            piv = next(r for r in range(col, 4) if m[r][col] != 0)
            m[col], m[piv] = m[piv], m[col]
            d = m[col][col]
            m[col] = [v / d for v in m[col]]
            for r in range(4):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [v - f * w for v, w in zip(m[r], m[col])]
        return Cyc._make((m[0][4], m[1][4], m[2][4], m[3][4]))

    # -- structure ---------------------------------------------------------

    def conj(self) -> "Cyc":
        """Complex conjugation, the field automorphism z -> z^(-1)."""
        c0, c1, c2, c3 = self.c
        # z^-1 = z - z^3, z^-2 = 1 - z^2, z^-3 = -z^3
        return Cyc._make((c0 + c2, c1, -c2, -c1 - c3))

    def __bool__(self) -> bool:
        c = self.c
        return bool(c[0] or c[1] or c[2] or c[3])

    def is_rational(self) -> bool:
        return self.c[1] == 0 and self.c[2] == 0 and self.c[3] == 0

    def as_fraction(self) -> Fraction:
        """The value as a rational number; raises ValueError if irrational."""
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.c[0]

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.c == _coerce4(other)
        if isinstance(other, Cyc):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        names = ("", "*z", "*z^2", "*z^3")
        terms = [f"{v}{n}" for v, n in zip(self.c, names) if v != 0]
        return " + ".join(terms) if terms else "0"


CYC_ZERO = Cyc(0)
CYC_ONE = Cyc(1)
ZETA = Cyc(0, 1, 0, 0)
I = Cyc(0, 0, 0, 1)            # z^3
OMEGA = Cyc(-1, 0, 1, 0)       # z^2 - 1

