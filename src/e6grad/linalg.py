"""Exact linear algebra over Fraction and Q(zeta_12) scalars.

A vector is sparse: a dict from index to nonzero scalar.  A matrix is a list
of sparse columns (column l is the image of basis vector l); this is the one
matrix form that crosses a function boundary, for maps on a 78-dim algebra
and for 3 x 3 or 8 x 8 matrices alike, and for a symmetric bilinear form
(column j is {i: kappa(b_i, b_j)}), whose Sylvester inertia is read by
symmetric congruence on its sparse rows.  Gaussian elimination, kernels and
inverses work on lists of sparse rows, and so does the Smith form: the
invariant factors of an integer matrix given by its sparse rows are read off
by unit-pivot elimination before a small dense core is reduced.  The joint
eigenspaces of commuting maps are split off by the images of their Lagrange
projectors.

Entries are Fractions or ints, except that elimination, inverses, products
and the eigensplit also take ``Cyc`` entries, as the complex bases of the
real forms and the 8 x 8 matrices of the sp8 lemma need.  A bilinear form
is rational, so its signature compares pivots with 0; a Smith relation
matrix is integer.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .scalar import Cyc


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

def signature(form: list[dict]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric real bilinear form
    given by its sparse columns (column j is {i: form(b_i, b_j)}).

    Exact symmetric congruence on sparse rows (a row is its column, by
    symmetry): each step takes a nonzero diagonal pivot from the shortest
    such row and replaces the rest by its Schur complement.  When every
    diagonal entry is zero but some entry (i, j) is not, row and column j
    are first added into row and column i, which makes the diagonal entry
    at i equal to 2 form(b_i, b_j).  Inertia does not depend on the pivot
    order (Sylvester's law).  Entries are rational (ints or Fractions).
    """
    n = len(form)
    rows = [{i: x for i, x in col.items() if x} for col in form]
    for j, col in enumerate(rows):
        for i, x in col.items():
            if rows[i].get(j, 0) - x:
                raise ValueError("matrix is not symmetric")
    live = {i: r for i, r in enumerate(rows) if r}
    n_plus = n_minus = 0
    while live:
        piv = min((i for i, r in live.items() if i in r),
                  key=lambda i: len(live[i]), default=None)
        if piv is None:
            # congruence: row/col i += row/col j with form(b_i, b_j) != 0
            i, r = next(iter(live.items()))
            j = min(r)
            new = dict(r)
            for k, x in live[j].items():
                s = new.get(k, 0) + x
                if s:
                    new[k] = s
                else:
                    new.pop(k, None)
            new[i] = new[i] + new[j] if i in new else new[j]
            for k in set(r) | set(new):
                if k != i:
                    if k in new:
                        live[k][i] = new[k]
                    else:
                        del live[k][i]
            live[i] = new
            piv = i
        prow = live.pop(piv)
        d = prow.pop(piv)
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        dinv = Fraction(1) / d
        for i, x in prow.items():
            row = live[i]
            del row[piv]
            f = x * dinv
            for j, y in prow.items():
                s = row.get(j, 0) - f * y
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
        for i in [i for i in prow if not live[i]]:
            del live[i]
    return n_plus, n_minus, n - n_plus - n_minus


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(rows: list[dict], cols: int) -> list[int]:
    """Invariant factors d1 | d2 | ... of the integer matrix with sparse rows
    ``rows`` and ``cols`` columns, one per index up to min(len(rows), cols),
    as non-negative ints with the zeros last.

    Entries must be ints (Fractions with denominator 1 are accepted).  The
    unimodular transforms are not formed.  The rows are first reduced by
    unit-pivot (Tietze) elimination (Havas, Holt and Rees 1993,
    "Recognizing badly presented Z-modules"): zero rows are deleted; then,
    while some entry is +-1, one is taken from the shortest live row (its
    column the one in fewest rows, to keep the fill-in small), its column
    is cleared from every other row, and the pivot row and column are
    dropped for one invariant factor 1.  With no unit entry left, duplicate
    rows (up to sign) and zero columns are dropped, and the small core goes
    to dense integer row and column elimination on the smallest nonzero
    pivot, the only path for entries other than +-1.

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
    live = {}  # row index -> sparse row {column: nonzero int}
    where = [set() for _ in range(cols)]  # column -> live rows holding it
    for i, row in enumerate(rows):
        r = {}
        for j, x in row.items():
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
    kept = [j for j in range(cols) if where[j]]
    d = [[r.get(j, 0) for j in kept] for r in core]
    nr, nc = len(d), len(kept)

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
                   for i in range(t, nr) for j in range(t, nc) if d[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        d[t], d[pi] = d[pi], d[t]
        swap_cols(t, pj)
        # reduce all of column t and row t by the pivot; the smallest
        # nonzero remainder, if any, becomes the next (smaller) pivot
        while True:
            for i in range(t + 1, nr):
                if d[i][t]:
                    row_op(i, t, d[i][t] // d[t][t])
            for j in range(t + 1, nc):
                if d[t][j]:
                    col_op(j, t, d[t][j] // d[t][t])
            rest = [(abs(d[i][t]), i, t) for i in range(t + 1, nr)
                    if d[i][t]]
            rest += [(abs(d[t][j]), t, j) for j in range(t + 1, nc)
                     if d[t][j]]
            if not rest:
                break
            _, pi, pj = min(rest)
            d[t], d[pi] = d[pi], d[t]
            swap_cols(t, pj)
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, nr):
            if fixed:
                break
            for j in range(t + 1, nc):
                if d[i][j] % d[t][t]:
                    row_op(t, i, -1)  # add row i to row t, then redo
                    fixed = True
                    break
        if fixed:
            continue
        t += 1
    factors = [1] * ones + [abs(d[i][i]) for i in range(min(nr, nc))]
    return factors + [0] * (min(len(rows), cols) - len(factors))


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
        if any(lam == mu
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
