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


def test_kernel_basics():
    assert la.kernel(la.identity(3)) == []
    k = la.kernel([[Fraction(0)] * 3, [Fraction(0)] * 3])
    assert len(k) == 3
    m = frac_mat([[1, 2, 3], [2, 4, 6]])
    basis = la.kernel(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in m)


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = frac_mat([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        assert la.rank([row[:] for row in m]) + len(la.kernel(m)) == c


def test_signature_examples_and_congruence():
    assert la.signature(frac_mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])) == (1, 2, 0)
    assert la.signature(frac_mat([[0, 1], [1, 0]])) == (1, 1, 0)
    assert la.signature(frac_mat([[0, 0], [0, 0]])) == (0, 0, 2)
    rng = random.Random(11)
    for _ in range(15):
        n = 5
        s = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        g = [[s[i][j] + s[j][i] for j in range(n)] for i in range(n)]
        sig = la.signature(g)
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if la.rank([row[:] for row in t]) < n:
            continue
        g2 = la.mat_mul(la.transpose(t), la.mat_mul(g, t))
        assert la.signature(g2) == sig


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        la.signature(frac_mat([[0, 1], [0, 0]]))


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
            "print(json.dumps(smith_normal_form(json.loads(sys.argv[1]))))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(a)],
                         capture_output=True, text=True, check=True,
                         timeout=seconds, env=dict(os.environ, PYTHONPATH=src))
    return json.loads(out.stdout)


def test_smith_normal_form():
    assert la.smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert la.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    rng = random.Random(5)
    cases = []
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        cases.append((a, la.smith_normal_form(a)))
    cases += [(a, _snf_in_child(a)) for a in SNF_HARD]
    assert cases[-1][1] == [1, 1, 1, 1, 1, 1, 2]
    for a, dd in cases:
        r, c = len(a), len(a[0])
        assert len(dd) == min(r, c) and all(x >= 0 for x in dd)
        for x, y in zip(dd, dd[1:]):
            assert y == 0 or (x != 0 and y % x == 0)
        k = la.rank(frac_mat(a))
        assert sum(1 for x in dd if x) == k
        # d1...dj is the j-th determinantal divisor, independent of the
        # elimination
        prod = 1
        for j in range(1, k + 1):
            prod *= dd[j - 1]
            assert prod == _determinantal_divisor(a, j)


def test_eigensplit_identity():
    ops = [la.identity(4)]
    sp = la.simultaneous_eigensplit(ops, [[Fraction(1)]], 4)
    assert len(sp) == 1 and len(sp[0][1]) == 4


def test_eigensplit_noncommuting_rejected():
    a = frac_mat([[0, 1], [0, 0]])
    b = frac_mat([[0, 0], [1, 0]])
    with pytest.raises(la.EigensplitError):
        la.simultaneous_eigensplit([a, b], [[Fraction(0)], [Fraction(0)]], 2)


def test_eigensplit_wrong_annihilator_rejected():
    a = frac_mat([[2, 0], [0, 3]])
    with pytest.raises(la.EigensplitError):
        la.simultaneous_eigensplit([a], [[Fraction(2)]], 2)


def test_eigensplit_cube_roots_of_unity():
    # the cyclic permutation has eigenvalues {1, w, w^2} in Q(zeta_12)
    z, o = Cyc(0), Cyc(1)
    perm = [[z, z, o], [o, z, z], [z, o, z]]
    eig = [Cyc(1), OMEGA, OMEGA * OMEGA]
    sp = la.simultaneous_eigensplit([perm], [eig], 3)
    assert sorted(len(b) for _, b in sp) == [1, 1, 1]
    tags = {t[0] for t, _ in sp}
    assert OMEGA in tags


def test_eigensplit_two_commuting():
    a = frac_mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    b = frac_mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    pm = [Fraction(1), Fraction(-1)]
    sp = la.simultaneous_eigensplit([a, b], [pm, pm], 3)
    got = {t: len(v) for t, v in sp}
    assert got == {(Fraction(1), Fraction(1)): 1,
                   (Fraction(-1), Fraction(1)): 1,
                   (Fraction(1), Fraction(-1)): 1}
