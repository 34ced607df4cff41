import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from e6grad import linalg as la
from e6grad.scalar import Cyc, OMEGA


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def cols(m):
    """The sparse columns of a dense matrix."""
    return [{k: row[l] for k, row in enumerate(m) if row[l]}
            for l in range(len(m[0]))]


def rows(m):
    """The sparse rows of a dense matrix."""
    return [{k: x for k, x in enumerate(row) if x} for row in m]


def dense(sparse_rows, n):
    """The dense n-column matrix of sparse rows."""
    return [[r.get(k, Fraction(0)) for k in range(n)] for r in sparse_rows]


def snf(a):
    """The Smith invariant factors of a dense integer matrix."""
    return la.smith_normal_form(rows(a), len(a[0]) if a else 0)


# Dense products, identities and equality, for the row-list matrices of
# elimination and forms and for the dense reference eigensplit and
# signature below.

def _transpose(m):
    return [list(col) for col in zip(*m)]


def _dense_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _dense_mul(a, b):
    return [[sum((x * row[j] for x, row in zip(ra, b)), Fraction(0))
             for j in range(len(b[0]))] for ra in a]


def _dense_eq(a, b):
    return len(a) == len(b) and all(
        all(not x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def test_kernel_basics():
    assert la.kernel(rows(_dense_identity(3)), 3) == []
    k = la.kernel([{}, {}], 3)
    assert k == [{0: 1}, {1: 1}, {2: 1}]
    m = frac_mat([[1, 2, 3], [2, 4, 6]])
    basis = la.kernel(rows(m), 3)
    assert basis == [{0: -2, 1: 1}, {0: -3, 2: 1}]
    for v in basis:
        assert all(sum(r[i] * v.get(i, 0) for i in range(3)) == 0 for r in m)


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = frac_mat([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        assert la.rank(rows(m)) + len(la.kernel(rows(m), c)) == c


def _dense_rref(m):
    """Reference Gauss-Jordan that updates every entry of every row."""
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        inv = d.inv() if isinstance(d, Cyc) else Fraction(1) / d
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _sparse_entry(rng, cyc):
    """0 with probability 0.7, else a small Fraction or Q(zeta_12) value."""
    if rng.random() < 0.7:
        return Fraction(0)
    if not cyc:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
    if rng.random() < 0.5:
        coeffs[1:] = [0, 0, 0]
    return Cyc(*coeffs)


def _sparse_cases(rng, cyc):
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        m = [[_sparse_entry(rng, cyc) for _ in range(c)] for _ in range(r)]
        yield m
        # rank-deficient: append a combination of two rows
        f = _sparse_entry(rng, cyc) or Fraction(2)
        i, j = rng.randrange(r), rng.randrange(r)
        yield m + [[x + f * y for x, y in zip(m[i], m[j])]]
        # a zero row and a zero column inserted
        k = rng.randrange(c + 1)
        z = [row[:k] + [Fraction(0)] + row[k:] for row in m]
        yield z[:1] + [[Fraction(0)] * (c + 1)] + z[1:]


def test_rref_matches_dense_gauss_jordan():
    rng = random.Random(17)
    deficient = set()
    for cyc in (False, True):
        for m in _sparse_cases(rng, cyc):
            red, piv = la.rref(rows(m))
            want, want_piv = _dense_rref(m)
            assert piv == want_piv
            assert not any(x for row in want[len(piv):] for x in row)
            assert red == rows(want[:len(piv)])
            # ascending keys, no zero entries, 1 at each row's pivot
            for row, p in zip(red, piv):
                assert list(row) == sorted(row) and min(row) == p
                assert row[p] == 1 and all(row.values())
            deficient.add(len(piv) < min(len(m), len(m[0])))
    assert deficient == {False, True}


def test_inverse_of_cyc_matrix():
    rng = random.Random(23)
    n = 6
    while True:
        m = [[_sparse_entry(rng, True) for _ in range(n)] for _ in range(n)]
        if la.rank(rows(m)) == n:
            break
    prod = _dense_mul(dense(la.inverse(rows(m)), n), m)
    assert _dense_eq(prod, _dense_identity(n))
    with pytest.raises(ValueError, match="not invertible"):
        la.inverse(rows(frac_mat([[1, 2], [2, 4]])))


def reference_signature(g):
    """Inertia of a dense symmetric matrix by dense symmetric congruence:
    the first diagonal pivot in index order, or, with a zero diagonal, row
    and column j added into row and column i for the first nonzero (i, j)."""
    n = len(g)
    m = [row[:] for row in g]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] - m[j][i]:
                raise ValueError("matrix is not symmetric")
    alive = list(range(n))
    n_plus = n_minus = 0
    while alive:
        piv = next((i for i in alive if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive
                         if i != j and m[i][j]), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for k in range(n):
                m[i][k] = m[i][k] + m[j][k]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            piv = i
        d = m[piv][piv]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        alive.remove(piv)
        dinv = Fraction(1) / d
        factors = [(i, m[i][piv] * dinv) for i in alive if m[i][piv]]
        for i, f in factors:
            for j in alive:
                m[i][j] = m[i][j] - f * m[piv][j]
    return n_plus, n_minus, n - n_plus - n_minus


def test_signature_examples_and_congruence():
    g = frac_mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert la.signature(cols(g)) == (1, 2, 0)
    assert la.signature(cols(frac_mat([[0, 1], [1, 0]]))) == (1, 1, 0)
    assert la.signature(cols(frac_mat([[0, 0], [0, 0]]))) == (0, 0, 2)
    assert la.signature([]) == (0, 0, 0)
    rng = random.Random(11)
    for _ in range(15):
        n = 5
        s = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        g = [[s[i][j] + s[j][i] for j in range(n)] for i in range(n)]
        sig = la.signature(cols(g))
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if la.rank(rows(t)) < n:
            continue
        g2 = _dense_mul(_transpose(t), _dense_mul(g, t))
        assert la.signature(cols(g2)) == sig


def _random_symmetric(rng, n, kind):
    """A dense symmetric n x n matrix: sparse, with zero diagonal, of rank
    at most 2 (x x^t - y y^t), or a congruent image of a diagonal with
    zeros (so rank-deficient and dense)."""
    if kind == "rank2":
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        return [[x[i] * x[j] - y[i] * y[j] for j in range(n)]
                for i in range(n)]
    if kind == "congruent":
        d = [Fraction(rng.choice([-2, -1, 0, 0, 1, 3])) for _ in range(n)]
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        return [[sum((t[k][i] * d[k] * t[k][j] for k in range(n)),
                     Fraction(0)) for j in range(n)] for i in range(n)]
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i != j or kind == "sparse") and rng.random() < 0.3:
                g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 3))
    return g


def test_signature_agrees_with_the_dense_reference():
    rng = random.Random(2024)
    seen = set()
    for t in range(320):
        kind = ("sparse", "zero_diagonal", "rank2", "congruent")[t % 4]
        g = _random_symmetric(rng, rng.randint(1, 9), kind)
        want = reference_signature(g)
        assert la.signature(cols(g)) == want, (kind, g)
        seen.add((kind, want[2] > 0))
    # every kind met both a degenerate and (but rank2) a nondegenerate form
    assert {k for k, z in seen if z} == {"sparse", "zero_diagonal", "rank2",
                                         "congruent"}
    assert {k for k, z in seen if not z} >= {"sparse", "zero_diagonal",
                                              "congruent"}


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        la.signature(cols(frac_mat([[0, 1], [0, 0]])))
    with pytest.raises(ValueError):
        la.signature(cols(frac_mat([[1, 2], [3, 1]])))


def _det(m) -> int:
    """Determinant by exact Gaussian elimination."""
    m = frac_mat(m)
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


def _determinantal_divisor(a, k) -> int:
    """gcd of all k x k minors of a."""
    g = 0
    for rows in combinations(range(len(a)), k):
        for cols in combinations(range(len(a[0])), k):
            g = math.gcd(g, _det([[a[i][j] for j in cols] for i in rows]))
    return g


# Smith forms that once grew their entries without bound when each remainder
# was swapped in before the rest of the pivot row and column were reduced.
SNF_HARD = [
    [[0, 0, -1, 1, 1, 0, 3, 3], [0, -1, 6, 0, 0, 0, 0, 3],
     [15, 0, -7, 3, -1, 2, 16, 1], [-2, -9, 0, 0, -1, -18, 0, 0],
     [6, -3, 3, 0, 0, -1, 0, 0], [-26, 0, 28, 0, 2, -2, 0, 0],
     [3, 0, 3, -1, 0, 3, -1, 6]],
]


def _snf_in_child(a, seconds=30):
    """smith_normal_form(a) in a child process, so a hang fails the test."""
    src = os.path.dirname(os.path.dirname(la.__file__))
    code = ("import json, sys; from e6grad.linalg import smith_normal_form; "
            "a = json.loads(sys.argv[1]); "
            "rows = [{j: x for j, x in enumerate(r) if x} for r in a]; "
            "print(json.dumps(smith_normal_form(rows, len(a[0]))))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(a)],
                         capture_output=True, text=True, check=True,
                         timeout=seconds, env=dict(os.environ, PYTHONPATH=src))
    return json.loads(out.stdout)


def _relation_rows(rng, r, c):
    """r rows with at most 3 nonzeros: g + h - k (coefficients 1, 1, -1,
    or 2, -1 and 0 when indices meet) or 2 g - k."""
    a = []
    for _ in range(r):
        row = [0] * c
        if rng.random() < 0.3:
            terms = [(rng.randrange(c), 2), (rng.randrange(c), -1)]
        else:
            terms = [(rng.randrange(c), 1), (rng.randrange(c), 1),
                     (rng.randrange(c), -1)]
        for j, x in terms:
            row[j] += x
        a.append(row)
    return a


def _unit_pivot_cases(rng):
    """Matrices for the unit-pivot pre-pass: relation-shaped ones, ones
    without a unit entry, and ones with duplicate, negated and zero rows."""
    for _ in range(40):
        yield _relation_rows(rng, rng.randint(1, 7), rng.randint(1, 5))
    for n in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        if n % 2:
            yield [[2 * rng.randint(-4, 4) for _ in range(c)]
                   for _ in range(r)]
        else:
            yield [[rng.choice([0, 0, 2, -2, 3, -3, 6]) for _ in range(c)]
                   for _ in range(r)]
    for n in range(30):
        c = rng.randint(1, 5)
        if n % 2:
            a = _relation_rows(rng, rng.randint(1, 3), c)
        else:
            a = [[rng.randint(-3, 3) for _ in range(c)]
                 for _ in range(rng.randint(1, 3))]
        a += [list(rng.choice(a)), [-x for x in rng.choice(a)], [0] * c]
        rng.shuffle(a)
        yield a


def test_smith_normal_form():
    assert snf([[1, 0], [0, 1]]) == [1, 1]
    assert snf([[2, 0], [0, 3]]) == [1, 6]
    assert snf([[2, 0], [0, 3], [0, 0]]) == [1, 6]
    assert snf([[4, 6], [6, 4]]) == [2, 10]
    assert snf([[1, 2], [-1, -2], [1, 2], [0, 0]]) == [1, 0]
    assert snf([[2, 4], [-2, -4], [0, 0]]) == [2, 0]
    rng = random.Random(5)
    cases = []
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        cases.append((a, snf(a)))
    for a in _unit_pivot_cases(random.Random(11)):
        dd = snf(a)
        assert snf(_transpose(a)) == dd
        cases.append((a, dd))
    cases += [(a, _snf_in_child(a)) for a in SNF_HARD]
    assert cases[-1][1] == [1, 1, 1, 1, 1, 1, 2]
    for a, dd in cases:
        r, c = len(a), len(a[0])
        assert len(dd) == min(r, c) and all(x >= 0 for x in dd)
        for x, y in zip(dd, dd[1:]):
            assert y == 0 or (x != 0 and y % x == 0)
        k = la.rank(rows(frac_mat(a)))
        assert sum(1 for x in dd if x) == k
        # d1...dj is the j-th determinantal divisor, independent of the
        # elimination
        prod = 1
        for j in range(1, k + 1):
            prod *= dd[j - 1]
            assert prod == _determinantal_divisor(a, j)


def test_smith_normal_form_edge_shapes():
    assert snf([[0]]) == [0]
    assert snf([[0] * 4 for _ in range(3)]) == [0, 0, 0]
    assert snf([[0, 4, -6]]) == [2]
    assert snf([[0], [4], [-6]]) == [2]
    assert snf([[3, 0, -1]]) == [1]
    assert snf([[-5]]) == [5]
    assert snf([]) == []
    assert snf([[]]) == []
    assert snf([[Fraction(4)], [Fraction(-6, 1)]]) == [2]
    with pytest.raises(ValueError):
        snf([[1, Fraction(1, 2)]])
    rng = random.Random(14)
    for _ in range(10):
        row = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        g = math.gcd(*row)
        assert snf([row]) == [g]
        assert snf([[x] for x in row]) == [g]


def test_eigensplit_identity():
    ops = [cols(_dense_identity(4))]
    sp = la.simultaneous_eigensplit(ops, [[Fraction(1)]], 4)
    assert len(sp) == 1 and len(sp[0][1]) == 4


def test_eigensplit_noncommuting_rejected():
    a = cols(frac_mat([[0, 1], [0, 0]]))
    b = cols(frac_mat([[0, 0], [1, 0]]))
    with pytest.raises(la.EigensplitError):
        la.simultaneous_eigensplit([a, b], [[Fraction(0)], [Fraction(0)]], 2)


def test_eigensplit_wrong_annihilator_rejected():
    a = cols(frac_mat([[2, 0], [0, 3]]))
    with pytest.raises(la.EigensplitError):
        la.simultaneous_eigensplit([a], [[Fraction(2)]], 2)


def test_eigensplit_cube_roots_of_unity():
    # the cyclic permutation has eigenvalues {1, w, w^2} in Q(zeta_12)
    z, o = Cyc(0), Cyc(1)
    perm = cols([[z, z, o], [o, z, z], [z, o, z]])
    eig = [Cyc(1), OMEGA, OMEGA * OMEGA]
    sp = la.simultaneous_eigensplit([perm], [eig], 3)
    assert sorted(len(b) for _, b in sp) == [1, 1, 1]
    tags = {t[0] for t, _ in sp}
    assert OMEGA in tags


def test_eigensplit_two_commuting():
    a = cols(frac_mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    b = cols(frac_mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    pm = [Fraction(1), Fraction(-1)]
    sp = la.simultaneous_eigensplit([a, b], [pm, pm], 3)
    got = {t: len(v) for t, v in sp}
    assert got == {(Fraction(1), Fraction(1)): 1,
                   (Fraction(-1), Fraction(1)): 1,
                   (Fraction(1), Fraction(-1)): 1}


def test_eigensplit_rejects_a_jordan_block():
    with pytest.raises(la.EigensplitError, match="is not 1"):
        la.simultaneous_eigensplit([cols(frac_mat([[1, 1], [0, 1]]))],
                                   [[Fraction(1)]], 2)


def test_eigensplit_rejects_a_repeated_eigenvalue():
    for lams in ([Fraction(1), Fraction(1)], [Fraction(-1), Cyc(-1)]):
        with pytest.raises(la.EigensplitError, match="repeated"):
            la.simultaneous_eigensplit([cols(_dense_identity(2))], [lams],
                                       2)


def test_eigensplit_rejects_noncommuting_involutions():
    a = cols(frac_mat([[1, 0], [0, -1]]))
    b = cols(frac_mat([[0, 1], [1, 0]]))
    pm = [Fraction(1), Fraction(-1)]
    with pytest.raises(la.EigensplitError, match="do not commute"):
        la.simultaneous_eigensplit([a, b], [pm, pm], 2)


def test_eigensplit_rejects_a_moved_start_bucket():
    swap = cols(frac_mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    pm = [Fraction(1), Fraction(-1)]
    with pytest.raises(la.EigensplitError, match="moves start bucket"):
        la.simultaneous_eigensplit([swap], [pm], 3,
                                   start=[((0,), [0, 2]), ((1,), [1])])
    with pytest.raises(la.EigensplitError, match="partition"):
        la.simultaneous_eigensplit([swap], [pm], 3, start=[((0,), [0, 1])])
    sp = la.simultaneous_eigensplit([swap], [pm], 3,
                                    start=[((0,), [0, 1]), ((1,), [2])])
    assert [(t, len(b)) for t, b in sp] == [((0, 1), 1), ((0, -1), 1),
                                            ((1, 1), 1)]


def test_eigensplit_rejects_a_wrong_shape():
    pm = [Fraction(1), Fraction(-1)]
    for op in ([{0: Fraction(1)}], [{0: Fraction(1)}, {2: Fraction(1)}]):
        with pytest.raises(la.EigensplitError, match="wrong shape"):
            la.simultaneous_eigensplit([op], [pm], 2)


def test_mat_mul_matches_the_dense_product():
    rng = random.Random(37)
    for cyc in (False, True):
        for _ in range(40):
            r, m, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = [[_sparse_entry(rng, cyc) for _ in range(m)] for _ in range(r)]
            b = [[_sparse_entry(rng, cyc) for _ in range(c)] for _ in range(m)]
            got = la.mat_mul(cols(a), cols(b))
            want = cols(_dense_mul(a, b))
            assert [set(x) for x in got] == [set(y) for y in want]
            assert all(not x[k] - y[k] for x, y in zip(got, want)
                       for k in x)


def test_commutator_matches_the_dense_products():
    rng = random.Random(41)
    for kind in ("int", "fraction", "cyc"):
        for _ in range(40):
            n = rng.randint(1, 6)
            if kind == "int":
                a, b = ([[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)]
                         for _ in range(n)] for _ in range(2))
            else:
                a, b = ([[_sparse_entry(rng, kind == "cyc") for _ in range(n)]
                         for _ in range(n)] for _ in range(2))
            ab, ba = _dense_mul(a, b), _dense_mul(b, a)
            want = cols([[x - y for x, y in zip(u, v)]
                         for u, v in zip(ab, ba)])
            got = la.commutator(cols(a), cols(b))
            assert [set(x) for x in got] == [set(y) for y in want]
            assert all(not x[k] - y[k] for x, y in zip(got, want)
                       for k in x)
    # [E12, E21] = E11 - E22, and entries that cancel leave no explicit zero
    e12, e21 = [{}, {0: 1}], [{1: 1}, {}]
    assert la.commutator(e12, e21) == [{0: 1}, {1: -1}]
    a = [{0: 1, 1: 2}, {0: 3, 1: 1}]
    assert la.commutator(a, a) == [{}, {}]


# The dense eigensplit that the sparse projector split replaced, kept as the
# reference: an annihilating-polynomial check, then kernels of each
# restricted operator minus lam.

def _dense_mat_vec(a, v):
    out = [Fraction(0)] * len(a)
    for i, row in enumerate(a):
        s = Fraction(0)
        for j, av in enumerate(row):
            if av and v[j]:
                s = s + av * v[j]
        out[i] = s
    return out


def _dense_restrict(op, basis):
    red, pivots = _dense_rref(basis)
    dim = len(pivots)
    cols = []
    for b in basis:
        img = _dense_mat_vec(op, b)
        coords = [img[p] for p in pivots]
        for j in range(len(img)):
            s = img[j]
            for r in range(dim):
                s = s - coords[r] * red[r][j]
            if s:
                raise la.EigensplitError("subspace is not invariant")
        cols.append(coords)
    return cols


def _dense_eigensplit(ops, eigenvalues, dim):
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not _dense_eq(_dense_mul(ops[i], ops[j]),
                             _dense_mul(ops[j], ops[i])):
                raise la.EigensplitError("operators do not commute")
    for a, lams in zip(ops, eigenvalues):
        prod = _dense_identity(dim)
        for lam in lams:
            shifted = [[a[r][c] - (lam if r == c else 0) for c in range(dim)]
                       for r in range(dim)]
            prod = _dense_mul(prod, shifted)
        if any(x for row in prod for x in row):
            raise la.EigensplitError("not annihilated")
    spaces = [((), _dense_identity(dim))]
    for a, lams in zip(ops, eigenvalues):
        nxt = []
        for tag, basis in spaces:
            red, pivots = _dense_rref(basis)
            red = red[: len(pivots)]
            sub = _dense_restrict(a, red)
            d = len(pivots)
            m_op = [[sub[l][r] for l in range(d)] for r in range(d)]
            for lam in lams:
                shifted = [[m_op[r][c] - (lam if r == c else 0)
                            for c in range(d)] for r in range(d)]
                ker = la.kernel(rows(shifted), d)
                if not ker:
                    continue
                vecs = []
                for k in ker:
                    v = [Fraction(0)] * dim
                    for r, coef in k.items():
                        v = [x + coef * y for x, y in zip(v, red[r])]
                    vecs.append(v)
                nxt.append((tag + (lam,), vecs))
        spaces = nxt
    if sum(len(b) for _, b in spaces) != dim:
        raise la.EigensplitError("eigenspaces do not exhaust the space")
    return spaces


def _reduced(vecs):
    return la.rref(rows(vecs))[0]


def _commuting_ops(rng, n, blocks):
    """P D_k P^-1 for diagonal D_k and a random P invertible on each block
    of the coordinate partition ``blocks``."""
    while True:
        p = [[Fraction(0)] * n for _ in range(n)]
        for b in blocks:
            for i in b:
                for j in b:
                    if rng.random() < 0.6:
                        p[i][j] = Fraction(rng.randint(-3, 3))
        if la.rank(rows(p)) == n:
            break
    pinv = dense(la.inverse(rows(p)), n)
    ops, eigs = [], []
    for _ in range(rng.randint(1, 3)):
        lams = ([Fraction(1), Fraction(-1)] if rng.random() < 0.5
                else [Fraction(v) for v in range(-2, 3)])
        d = [[rng.choice(lams) if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        ops.append(_dense_mul(_dense_mul(p, d), pinv))
        eigs.append(lams)
    return ops, eigs


def test_eigensplit_matches_the_dense_reference():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 8)
        ops, eigs = _commuting_ops(rng, n, [range(n)])
        got = la.simultaneous_eigensplit([cols(a) for a in ops], eigs, n)
        want = _dense_eigensplit(ops, eigs, n)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, basis), (_, ref) in zip(got, want):
            assert basis == _reduced(ref)


def test_eigensplit_from_start_buckets_intersects_the_reference():
    from oracles import subspace_intersection
    from e6grad.structalg import Subspace
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        labels = [rng.randrange(3) for _ in range(n)]
        start = [((b,), [i for i in range(n) if labels[i] == b])
                 for b in range(3)]
        ops, eigs = _commuting_ops(rng, n, [idx for _, idx in start])
        got = {t: basis for t, basis in
               la.simultaneous_eigensplit([cols(a) for a in ops], eigs, n,
                                          start=start)}
        want = {}
        for tag, ref in _dense_eigensplit(ops, eigs, n):
            for (b,), idx in start:
                units = [{k: Fraction(1)} for k in idx]
                inter = subspace_intersection(Subspace(n, rows(ref)),
                                              Subspace(n, units), n)
                if inter.dim:
                    want[(b,) + tag] = inter.basis
        assert got == want
