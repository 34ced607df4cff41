"""Exact dense linear algebra over Fraction / Q(zeta_12) scalars.

Matrices are plain lists of row lists.  Everything here is exact: Gaussian
elimination over the field of the entries, Sylvester inertia by symmetric
congruence, the invariant factors of an integer matrix (the diagonal of its
Smith normal form), and simultaneous eigenspace splitting for commuting
operators.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Cyc, is_zero, sign_exact

Matrix = list  # list[list[scalar]]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = zeros(len(a), cb)
    for i, row in enumerate(a):
        oi = out[i]
        for k, av in enumerate(row):
            if is_zero(av):
                continue
            brow = b[k]
            for j in range(cb):
                bv = brow[j]
                if not is_zero(bv):
                    oi[j] = oi[j] + av * bv
    return out


def mat_vec(a: Matrix, v: list) -> list:
    out = [Fraction(0)] * len(a)
    for i, row in enumerate(a):
        s = Fraction(0)
        for j, av in enumerate(row):
            if not is_zero(av) and not is_zero(v[j]):
                s = s + av * v[j]
        out[i] = s
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        all(is_zero(x - y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns)."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        if d != 1:
            inv = (Fraction(1) / d) if not isinstance(d, Cyc) else d.inv()
            m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                mi, mr = m[i], m[r]
                m[i] = [x - f * y for x, y in zip(mi, mr)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r] + m[r:], pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_from_rref(red: Matrix, pivots: list[int], cols: int) -> list[list]:
    """Kernel basis read off an RREF: one vector per free column."""
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def kernel(m: Matrix, cols: int | None = None) -> list[list]:
    """Basis of {v : m v = 0}.  Vectors are dense lists.

    The basis is the standard one read off the RREF: one vector per free
    column, with entry 1 at that column.
    """
    if cols is None:
        cols = len(m[0]) if m else 0
    if not m:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(cols)]
                for j in range(cols)]
    red, pivots = rref(m)
    return kernel_from_rref(red, pivots, cols)


def solve(m: Matrix, rhs: list) -> list | None:
    """One solution of m x = rhs, or None if inconsistent."""
    aug = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    ncols = len(m[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red[:n]]


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

    Integer row and column elimination on the smallest nonzero pivot; the
    unimodular transforms are not formed.  Entries of ``a`` must be ints
    (Fractions with denominator 1 are accepted).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [[int(x) for x in row] for row in a]
    for row in a:
        for x in row:
            if Fraction(x).denominator != 1:
                raise ValueError("smith_normal_form requires integer entries")

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
    return [abs(d[i][i]) for i in range(min(rows, cols))]


# ---------------------------------------------------------------------------
# Simultaneous eigenspace splitting
# ---------------------------------------------------------------------------

class EigensplitError(ValueError):
    pass


def _restrict(op: Matrix, basis: list[list]) -> Matrix:
    """Coordinates of op(basis[l]) in ``basis``, which must be in RREF (so
    coordinates can be read off pivot columns).  Raises if the span is not
    invariant."""
    red, pivots = rref(basis)
    dim = len(pivots)
    cols = []
    for b in basis:
        img = mat_vec(op, b)
        coords = [img[p] for p in pivots]
        # residual check: img must equal sum coords[r] * red[r]
        for j in range(len(img)):
            s = img[j]
            for r in range(dim):
                s = s - coords[r] * red[r][j]
            if not is_zero(s):
                raise EigensplitError("subspace is not invariant under operator")
        cols.append(coords)
    return cols


def simultaneous_eigensplit(ops: list[Matrix], eigenvalues: list[list],
                            dim: int) -> list[tuple[tuple, list[list]]]:
    """Joint eigenspace decomposition for commuting exact operators.

    ``eigenvalues[k]`` lists the allowed eigenvalues of ``ops[k]``; each
    operator must be annihilated by prod(x - lam) over its list.  Returns
    [(eigentuple, basis)] with nonzero spaces only, in deterministic order.
    Raises EigensplitError if the operators do not commute, an annihilating
    polynomial fails, or the split does not exhaust the space.
    """
    for a in ops:
        if len(a) != dim or any(len(r) != dim for r in a):
            raise EigensplitError("operator has wrong shape")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not mat_eq(mat_mul(ops[i], ops[j]), mat_mul(ops[j], ops[i])):
                raise EigensplitError(f"operators {i} and {j} do not commute")
    for a, lams in zip(ops, eigenvalues):
        prod = identity(dim)
        for lam in lams:
            shifted = [[a[r][c] - (lam if r == c else 0) for c in range(dim)]
                       for r in range(dim)]
            prod = mat_mul(prod, shifted)
        if any(not is_zero(x) for row in prod for x in row):
            raise EigensplitError("operator is not annihilated by its eigenvalue list")

    spaces = [((), identity(dim))]
    for a, lams in zip(ops, eigenvalues):
        nxt = []
        for tag, basis in spaces:
            red, pivots = rref(basis)
            red = red[: len(pivots)]
            sub = _restrict(a, red)
            d = len(pivots)
            # sub[l][r] = coords of a(red[l]); operator matrix M[r][l]
            m_op = [[sub[l][r] for l in range(d)] for r in range(d)]
            for lam in lams:
                shifted = [[m_op[r][c] - (lam if r == c else 0)
                            for c in range(d)] for r in range(d)]
                ker = kernel(shifted, d)
                if not ker:
                    continue
                vecs = []
                for k in ker:
                    v = [Fraction(0)] * dim
                    for coef, row in zip(k, red):
                        if not is_zero(coef):
                            v = [x + coef * y for x, y in zip(v, row)]
                    vecs.append(v)
                nxt.append((tag + (lam,), vecs))
        spaces = nxt
    total = sum(len(b) for _, b in spaces)
    if total != dim:
        raise EigensplitError(
            f"eigenspaces span dimension {total}, expected {dim}")
    # exactness: each returned vector is an exact eigenvector of every op
    for tag, basis in spaces:
        for a, lam in zip(ops, tag):
            for v in basis:
                img = mat_vec(a, v)
                if any(not is_zero(x - lam * y) for x, y in zip(img, v)):
                    raise EigensplitError("inexact eigenvector (internal)")
    return spaces
