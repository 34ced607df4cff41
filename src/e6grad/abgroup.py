"""Finitely generated abelian groups Z^r x Z_m1 x ... x Z_mk.

Elements are integer tuples of length r + k, free coordinates first;
torsion coordinates are kept reduced mod m_i.  Two groups are equal when
they have the same rank and the same torsion tuple, so equal groups share
their element layout.  The moduli need not form a divisibility chain:
groups used for degree bookkeeping (e.g. Z2^3 x Z3^2) keep their natural
coordinates.
``canonical()`` maps to the invariant-factor form, so isomorphism testing
is equality of canonical forms.  Every structural question goes through
``presented_group``, which reads a group off the invariant factors of its
relation matrix.
"""

from __future__ import annotations

from .linalg import smith_normal_form


class FgAbelianGroup:
    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if any(m < 2 for m in torsion):
            raise ValueError("torsion orders must be >= 2")
        self.rank = rank
        self.torsion = tuple(int(m) for m in torsion)
        # the modulus of each coordinate, 0 for a free one
        self._mods = (0,) * rank + self.torsion

    @property
    def ncoords(self) -> int:
        return len(self._mods)

    # -- element arithmetic --------------------------------------------------

    def reduce(self, g) -> tuple[int, ...]:
        g = tuple(g)
        if len(g) != len(self._mods):
            raise ValueError("element has wrong length")
        return tuple(x % m if m else x for x, m in zip(g, self._mods))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ncoords

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def sub(self, a, b) -> tuple[int, ...]:
        return self.reduce(tuple(x - y for x, y in zip(a, b)))

    def has_order_dividing_2(self, a) -> bool:
        return self.add(a, a) == self.zero()

    # -- structure ------------------------------------------------------------

    def canonical(self) -> "FgAbelianGroup":
        """Isomorphic group with torsion in invariant-factor form."""
        rels = [{i: m} for i, m in enumerate(self.torsion)]
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
        return (isinstance(other, FgAbelianGroup) and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"FgAbelianGroup(rank={self.rank}, torsion={self.torsion})"


def presented_group(n_generators: int, relations: list[dict],
                    extra_rank: int = 0) -> FgAbelianGroup:
    """Canonical form of <x_1..x_n | relations> (plus extra free factors).

    Each relation is a sparse integer row {i: r_i} with no zero entries,
    meaning sum r_i x_i = 0 (so {g: 1, h: 1, k: -1} says x_g + x_h = x_k).
    The invariant factors of the relation matrix, one row per relation,
    give the torsion (those above 1) and, by their count of nonzeros, the
    rank; its transpose has the same factors.
    """
    if not relations:
        return FgAbelianGroup(n_generators + extra_rank)
    factors = smith_normal_form(relations, n_generators)
    rank = n_generators - sum(1 for x in factors if x != 0)
    torsion = tuple(x for x in factors if x > 1)
    return FgAbelianGroup(rank + extra_rank, torsion)
