"""Exact linear algebra over Fraction / Q(zeta_12) scalars.

A vector is sparse: a dict from index to nonzero scalar.  A linear map is a
list of sparse columns (column l is the image of basis vector l); this is
the one matrix form that crosses a function boundary, for maps on a 78-dim
algebra and for 3 x 3 or 8 x 8 matrices alike.  Gaussian elimination,
kernels and inverses work on lists of sparse rows.  Dense row lists are kept
for what reads a whole square or integer matrix: Sylvester inertia of a
symmetric form by congruence, and the invariant factors of an integer
matrix (the diagonal of its Smith normal form), which are read off sparse
rows by unit-pivot elimination before a small dense core is reduced.  The
joint eigenspaces of commuting maps are split off by the images of their
Lagrange projectors.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .scalar import Cyc, is_zero, sign_exact

Matrix = list  # list[list[scalar]]: dense rows, for forms and integer matrices


def apply(cols: list[dict], v: dict, shift=0) -> dict:
    """(A - shift) v for the map A with sparse columns ``cols`` and the
    sparse vector v, without zero entries."""
    out = {k: -shift * x for k, x in v.items()} if shift else {}
    for l, x in v.items():
        for k, y in cols[l].items():
            out[k] = out[k] + x * y if k in out else x * y
    return out if all(out.values()) else {k: x for k, x in out.items() if x}


def mat_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """The columns of the composite a b of two maps given by columns."""
    return [apply(a, c) for c in b]


def commutator(a: list[dict], b: list[dict]) -> list[dict]:
    """The columns of [a, b] = a b - b a of two maps given by columns:
    column l is a(b e_l) - b(a e_l), skipping the empty columns of a, b."""
    out = []
    for al, bl in zip(a, b):
        col: dict = {}
        for m, x in bl.items():
            am = a[m]
            if am:
                for k, y in am.items():
                    col[k] = col[k] + x * y if k in col else x * y
        for m, x in al.items():
            bm = b[m]
            if bm:
                for k, y in bm.items():
                    col[k] = col[k] - x * y if k in col else -x * y
        out.append(col if all(col.values()) else
                   {k: x for k, x in col.items() if x})
    return out


def rref(m: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows; returns (R, pivot_columns).

    R holds the nonzero reduced rows in order of their pivots, each a sparse
    vector with ascending keys.  Rows are reduced one at a time against the
    rows kept so far, each of which is 1 at its pivot, its least index, and
    0 at every other pivot; so one pass over an incoming row's pivot entries
    reduces it, and a new pivot is then cleared from the kept rows.
    """
    red: dict = {}  # pivot column -> reduced row
    for row in m:
        v = {k: x for k, x in row.items() if x}
        for c in [c for c in v if c in red]:
            f = v[c]
            for k, x in red[c].items():
                s = v.get(k, 0) - f * x
                if s:
                    v[k] = s
                else:
                    del v[k]
        if not v:
            continue
        p = min(v)
        d = v[p]
        if d != 1:
            inv = d.inv() if isinstance(d, Cyc) else Fraction(1) / d
            v = {k: x * inv for k, x in v.items()}
        for r in red.values():
            f = r.get(p)
            if f:
                for k, x in v.items():
                    s = r.get(k, 0) - f * x
                    if s:
                        r[k] = s
                    else:
                        del r[k]
        red[p] = v
    pivots = sorted(red)
    return [dict(sorted(red[p].items())) for p in pivots], pivots


def rank(m: list[dict]) -> int:
    return len(rref(m)[1])


def kernel_from_rref(red: list[dict], pivots: list[int],
                     cols: int) -> list[dict]:
    """Kernel basis read off an RREF: one sparse vector per free column,
    1 there and 0 at the other free columns."""
    pivset = set(pivots)
    ker = {c: {c: Fraction(1)} for c in range(cols) if c not in pivset}
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                ker[c][pc] = -x
    return [dict(sorted(v.items())) for v in ker.values()]


def kernel(m: list[dict], cols: int) -> list[dict]:
    """Basis of {v : m v = 0} for ``cols`` unknowns, as sparse vectors."""
    red, pivots = rref(m)
    return kernel_from_rref(red, pivots, cols)


def inverse(m: list[dict]) -> list[dict]:
    """The inverse of the square matrix with sparse rows ``m``, as sparse
    rows."""
    n = len(m)
    red, pivots = rref([{**row, n + i: 1} for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [{k - n: x for k, x in row.items() if k >= n} for row in red]


# ---------------------------------------------------------------------------
# Sylvester inertia
# ---------------------------------------------------------------------------

def signature(g: Matrix) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric real matrix.

    Exact symmetric congruence: diagonal pivots when available; a rank-two
    block with zero diagonal is first symmetrized by a congruence adding one
    row/column into another.  Entries may be Fractions or real Cyc values.
    """
    n = len(g)
    m = [row[:] for row in g]
    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero(m[i][j] - m[j][i]):
                raise ValueError("matrix is not symmetric")
    alive = list(range(n))
    n_plus = n_minus = 0
    while alive:
        piv = next((i for i in alive if not is_zero(m[i][i])), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive
                         if i != j and not is_zero(m[i][j])), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # congruence: row/col i += row/col j, making m[i][i] = 2 m[i][j]
            for k in range(n):
                m[i][k] = m[i][k] + m[j][k]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            piv = i
        d = m[piv][piv]
        if sign_exact(d) > 0:
            n_plus += 1
        else:
            n_minus += 1
        alive.remove(piv)
        dinv = d.inv() if isinstance(d, Cyc) else Fraction(1) / d
        factors = [(i, m[i][piv] * dinv) for i in alive
                   if not is_zero(m[i][piv])]
        for i, f in factors:
            for j in alive:
                m[i][j] = m[i][j] - f * m[piv][j]
    return n_plus, n_minus, n - n_plus - n_minus


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(a: Matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix, one per index up
    to min(rows, cols), as non-negative ints with the zeros last.

    Entries of ``a`` must be ints (Fractions with denominator 1 are
    accepted).  The unimodular transforms are not formed.  The matrix is
    first reduced as sparse rows by unit-pivot (Tietze) elimination
    (Havas, Holt and Rees 1993, "Recognizing badly presented Z-modules"):
    zero rows are deleted; then, while some entry is +-1, one is taken from
    the shortest live row (its column the one in fewest rows, to keep the
    fill-in small), its column is cleared from every other row, and the
    pivot row and column are dropped for one invariant factor 1.  With no
    unit entry left, duplicate rows (up to sign) and zero columns are
    dropped, and the small core goes to integer row and column elimination
    on the smallest nonzero pivot, the only path for entries other than
    +-1.

    Every step keeps the determinantal divisors D_k (the gcd of the k x k
    minors), and so the invariant factors d_k = D_k / D_{k-1}:
    - adding an integer multiple of one row to another, or of one column
      to another, is unimodular;
    - once its column is cleared, the other entries of a pivot row with
      pivot p = +-1 are cleared by column operations that change nothing
      else, leaving diag(p, B), whose D_k is D_{k-1}(B) because D_{k-1}(B) | D_k(B); so
      its factors are 1 followed by those of B;
    - a row equal to another or to its negative becomes zero after one row
      operation, and a zero row or column is in no nonzero minor.
    Each dropped pivot takes one row and one column, so the units, the
    core's factors and zeros up to min(rows, cols) are the whole chain.
    """
    width = len(a[0]) if a else 0
    live = {}  # row index -> sparse row {column: nonzero int}
    where = [set() for _ in range(width)]  # column -> live rows holding it
    for i, row in enumerate(a):
        r = {}
        for j, x in enumerate(row):
            if type(x) is not int:
                if Fraction(x).denominator != 1:
                    raise ValueError("smith_normal_form requires integer "
                                     "entries")
                x = int(x)
            if x:
                r[j] = x
                where[j].add(i)
        if r:
            live[i] = r

    ones = 0
    heap = [(len(r), i) for i, r in live.items()]
    heapq.heapify(heap)
    while heap:
        n, i = heapq.heappop(heap)
        r = live.get(i)
        if r is None or len(r) != n:
            continue  # stale entry: the row was cleared or changed
        units = [j for j, x in r.items() if x == 1 or x == -1]
        if not units:
            continue  # pushed again if a row operation changes it
        c = min(units, key=lambda j: (len(where[j]), j))
        p = r[c]
        for k in sorted(where[c]):
            if k == i:
                continue
            s = live[k]
            f = s[c] * p  # s -= (s[c] / p) r, and 1 / p = p
            for j, x in r.items():
                y = s.get(j, 0) - f * x
                if y:
                    if j not in s:
                        where[j].add(k)
                    s[j] = y
                else:
                    del s[j]
                    where[j].discard(k)
            if s:
                heapq.heappush(heap, (len(s), k))
            else:
                del live[k]
        for j in r:
            where[j].discard(i)
        del live[i]
        ones += 1

    seen = set()
    core = []
    for r in live.values():
        key = tuple(sorted(r.items()))
        if key[0][1] < 0:
            key = tuple((j, -x) for j, x in key)
        if key not in seen:
            seen.add(key)
            core.append(r)
    kept = [j for j in range(width) if where[j]]
    d = [[r.get(j, 0) for j in kept] for r in core]
    rows, cols = len(d), len(kept)

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in d:
            row[i] -= q * row[j]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        entries = [(abs(d[i][j]), i, j)
                   for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        d[t], d[pi] = d[pi], d[t]
        swap_cols(t, pj)
        # reduce all of column t and row t by the pivot; the smallest
        # nonzero remainder, if any, becomes the next (smaller) pivot
        while True:
            for i in range(t + 1, rows):
                if d[i][t]:
                    row_op(i, t, d[i][t] // d[t][t])
            for j in range(t + 1, cols):
                if d[t][j]:
                    col_op(j, t, d[t][j] // d[t][t])
            rest = [(abs(d[i][t]), i, t) for i in range(t + 1, rows)
                    if d[i][t]]
            rest += [(abs(d[t][j]), t, j) for j in range(t + 1, cols)
                     if d[t][j]]
            if not rest:
                break
            _, pi, pj = min(rest)
            d[t], d[pi] = d[pi], d[t]
            swap_cols(t, pj)
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, rows):
            if fixed:
                break
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    row_op(t, i, -1)  # add row i to row t, then redo
                    fixed = True
                    break
        if fixed:
            continue
        t += 1
    factors = [1] * ones + [abs(d[i][i]) for i in range(min(rows, cols))]
    return factors + [0] * (min(len(a), width) - len(factors))


# ---------------------------------------------------------------------------
# Simultaneous eigenspace splitting
# ---------------------------------------------------------------------------

class EigensplitError(ValueError):
    pass


def simultaneous_eigensplit(ops: list[list[dict]], eigenvalues: list[list],
                            dim: int, start=None) -> list[tuple[tuple, list]]:
    """Joint eigenspace decomposition for commuting exact operators, each
    given by its ``dim`` sparse columns.

    ``eigenvalues[k]`` lists the distinct allowed eigenvalues of ``ops[k]``.
    ``start``, by default ``[((), range(dim))]``, lists (tag, basis indices)
    buckets that partition range(dim).  Returns [(tag, sparse RREF basis)]
    for the nonzero joint eigenspaces in each bucket, in deterministic order;
    a tag is its bucket's tag followed by one eigenvalue per operator.

    Each operator A splits each current component C by the images of its
    Lagrange projectors prod_{mu != lam} (A - mu) / (lam - mu) on C's sparse
    basis, row-reduced (the scalar does not change an image).  Raises
    EigensplitError unless the operators commute (A(B e_k) = B(A e_k) for
    all k), each maps each bucket into itself, A v = lam v exactly on every
    image vector, the image dimensions of each C add up to dim C, and every
    returned vector is a joint eigenvector with its tag's values.

    This proves as much as prod(A - lam) = 0.  C is A-invariant (a bucket
    by the check, an eigenspace of an operator B by AB = BA), so the images
    lie in C; exact eigenvectors for distinct lam are independent, so they
    exhaust C only if A is diagonalizable on C with its spectrum in the list.
    """
    if len(eigenvalues) != len(ops):
        raise EigensplitError("one eigenvalue list per operator is needed")
    for a in ops:
        if len(a) != dim or any(not 0 <= k < dim for c in a for k in c):
            raise EigensplitError("operator has wrong shape")
    for n, lams in enumerate(eigenvalues):
        if any(is_zero(lam - mu)
               for i, lam in enumerate(lams) for mu in lams[:i]):
            raise EigensplitError(f"operator {n} has a repeated eigenvalue")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            a, b = ops[i], ops[j]
            if any(apply(a, b[k]) != apply(b, a[k]) for k in range(dim)):
                raise EigensplitError(f"operators {i} and {j} do not commute")

    if start is None:
        start = [((), range(dim))]
    if sorted(k for _, idx in start for k in idx) != list(range(dim)):
        raise EigensplitError("start buckets do not partition the basis")
    spaces = []
    for tag, idx in start:
        members = set(idx)
        for n, a in enumerate(ops):
            if any(not members.issuperset(a[k]) for k in idx):
                raise EigensplitError(f"operator {n} moves start bucket {tag}")
        spaces.append((tuple(tag), [{k: Fraction(1)} for k in idx]))

    for n, (a, lams) in enumerate(zip(ops, eigenvalues)):
        nxt = []
        for tag, basis in spaces:
            found = 0
            for i, lam in enumerate(lams):
                image = basis
                for mu in lams[:i] + lams[i + 1:]:
                    image = [w for w in (apply(a, v, mu) for v in image) if w]
                eig, _ = rref(image)
                if any(apply(a, v, lam) for v in eig):
                    raise EigensplitError(f"operator {n} is not {lam} on its "
                                          f"projector image in {tag}")
                found += len(eig)
                if eig:
                    nxt.append((tag + (lam,), eig))
            if found != len(basis):
                raise EigensplitError(f"eigenspaces of operator {n} span "
                                      f"{found} of the {len(basis)} in {tag}")
        spaces = nxt
    for tag, basis in spaces:
        for a, lam in zip(ops, tag[len(tag) - len(ops):]):
            if any(apply(a, v, lam) for v in basis):
                raise EigensplitError("inexact eigenvector (internal)")
    return spaces
