"""Finitely generated abelian groups Z^r x Z_m1 x ... x Z_mk.

Elements are integer tuples of length r + k, free coordinates first; torsion
coordinates are kept reduced mod m_i.  The moduli need not form a
divisibility chain: groups used for degree bookkeeping (e.g. Z2^3 x Z3^2)
keep their natural coordinates.  ``canonical()`` maps to the invariant-factor
form, so isomorphism testing is equality of canonical forms.  Every
structural question goes through ``presented_group``, which reads a group off
the invariant factors of its relation matrix.
"""

from __future__ import annotations

from .linalg import smith_normal_form


class FgAbelianGroup:
    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if any(m < 2 for m in torsion):
            raise ValueError("torsion orders must be >= 2")
        self.rank = rank
        self.torsion = tuple(int(m) for m in torsion)

    @property
    def ncoords(self) -> int:
        return self.rank + len(self.torsion)

    # -- element arithmetic --------------------------------------------------

    def reduce(self, g) -> tuple[int, ...]:
        g = tuple(g)
        if len(g) != self.ncoords:
            raise ValueError("element has wrong length")
        return g[: self.rank] + tuple(
            x % m for x, m in zip(g[self.rank:], self.torsion))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ncoords

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a) -> tuple[int, ...]:
        return self.reduce(tuple(-x for x in a))

    def sub(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x - y for x, y in zip(a, b)))

    def scale(self, k: int, a) -> tuple[int, ...]:
        return self.reduce(tuple(k * x for x in a))

    def has_order_dividing_2(self, a) -> bool:
        return self.add(a, a) == self.zero()

    # -- structure ------------------------------------------------------------

    def product(self, other: "FgAbelianGroup") -> "_Product":
        """Coordinate product; element tuples are (self coords, other coords)."""
        return _Product(self, other)

    def canonical(self) -> "FgAbelianGroup":
        """Isomorphic group with torsion in invariant-factor form."""
        rels = [[(self.torsion[i] if i == j else 0)
                 for j in range(len(self.torsion))]
                for i in range(len(self.torsion))]
        return presented_group(len(self.torsion), rels, extra_rank=self.rank)

    def is_isomorphic_to(self, other: "FgAbelianGroup") -> bool:
        a, b = self.canonical(), other.canonical()
        return a.rank == b.rank and a.torsion == b.torsion

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        i = 0
        tors = list(self.torsion)
        while i < len(tors):
            j = i
            while j < len(tors) and tors[j] == tors[i]:
                j += 1
            parts.append(f"Z{tors[i]}" + (f"^{j - i}" if j - i > 1 else ""))
            i = j
        return " x ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (isinstance(other, FgAbelianGroup)
                and self.rank == other.rank and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"FgAbelianGroup(rank={self.rank}, torsion={self.torsion})"


class _Product(FgAbelianGroup):
    """Product group whose element tuples concatenate the factors' tuples."""

    def __init__(self, left: FgAbelianGroup, right: FgAbelianGroup):
        self.left, self.right = left, right
        self._nl = left.ncoords
        super().__init__(left.rank + right.rank, left.torsion + right.torsion)

    def reduce(self, g):
        g = tuple(g)
        n = self._nl
        return self.left.reduce(g[:n]) + self.right.reduce(g[n:])

    def zero(self):
        return self.left.zero() + self.right.zero()

    def add(self, a, b):
        n = self._nl
        return self.left.add(a[:n], b[:n]) + self.right.add(a[n:], b[n:])

    def neg(self, a):
        n = self._nl
        return self.left.neg(a[:n]) + self.right.neg(a[n:])

    def pair(self, a, b):
        return tuple(a) + tuple(b)

    @property
    def ncoords(self):
        return self.left.ncoords + self.right.ncoords


def presented_group(n_generators: int, relations: list[list[int]],
                    extra_rank: int = 0) -> FgAbelianGroup:
    """Canonical form of <x_1..x_n | relations> (plus extra free factors).

    Each relation is a length-n integer vector meaning sum r_i x_i = 0.  The
    invariant factors of the relation matrix, one row per relation, give the
    torsion (those above 1) and, by their count of nonzeros, the rank; its
    transpose has the same factors.
    """
    if not relations:
        return FgAbelianGroup(n_generators + extra_rank)
    factors = smith_normal_form(relations)
    rank = n_generators - sum(1 for x in factors if x != 0)
    torsion = tuple(x for x in factors if x > 1)
    return FgAbelianGroup(rank + extra_rank, torsion)
