import random
from fractions import Fraction

import pytest

from e6grad.scalar import CYC_ONE, Cyc, I, OMEGA, ZETA

SQRT3 = Cyc(0, 2, 0, -1)  # 2z - z^3


def power(x, n):
    """x^n by repeated products."""
    out = CYC_ONE
    for _ in range(n):
        out = out * x
    return out


def rand_cyc(rng):
    return Cyc(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(4)))


def test_defining_relations():
    assert I * I == Cyc(-1)
    assert power(OMEGA, 3) == CYC_ONE and OMEGA != CYC_ONE
    assert not OMEGA * OMEGA + OMEGA + 1
    assert SQRT3 * SQRT3 == Cyc(3)
    # zeta is a primitive 12th root of unity
    p = ZETA
    for k in range(1, 12):
        assert p != CYC_ONE, k
        p = p * ZETA
    assert p == CYC_ONE
    # minimal polynomial z^4 - z^2 + 1 = 0
    assert not power(ZETA, 4) - power(ZETA, 2) + 1


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (rand_cyc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
    for _ in range(100):
        a = rand_cyc(rng)
        if not a:
            continue
        assert a * a.inv() == CYC_ONE
        assert a.inv() * a == CYC_ONE and a.inv().inv() == a


def test_conjugation_involutive_automorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_cyc(rng), rand_cyc(rng)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        norm = a * a.conj()
        assert norm.conj() == norm


def test_is_zero_on_computed_zeros():
    x = Cyc(Fraction(2, 3), -1, Fraction(5, 7), 4)
    for z in (power(ZETA, 4) - power(ZETA, 2) + 1, x - x,
              power(OMEGA, 3) - 1, Cyc(0)):
        assert z == 0
    for k in range(4):
        coords = [0, 0, 0, 0]
        coords[k] = Fraction(-1, 9)
        assert Cyc(*coords) != 0


def test_truth_value_is_nonzero():
    assert not bool(Cyc(0))
    assert bool(Cyc(0, 1))
    x = Cyc(Fraction(2, 3), -1, Fraction(5, 7), 4)
    for z in (power(ZETA, 4) - power(ZETA, 2) + 1, x - x,
              power(OMEGA, 3) - 1):
        assert not z
    for k in range(4):
        coords = [0, 0, 0, 0]
        coords[k] = Fraction(-1, 9)
        assert Cyc(*coords)


def _convolution(a, b):
    """Product in the power basis, reduced by z^4 = z^2 - 1, z^5 = z^3 - z,
    z^6 = -1."""
    d = [Fraction(0)] * 7
    for i in range(4):
        for j in range(4):
            d[i + j] += a.c[i] * b.c[j]
    return (d[0] - d[4] - d[6], d[1] - d[5], d[2] + d[4], d[3] + d[5])


def test_product_with_a_rational_operand():
    rng = random.Random(31)
    for _ in range(100):
        a = rand_cyc(rng)
        q = Cyc(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert (a * q).c == _convolution(a, q)
        assert (q * a).c == _convolution(q, a)
        assert (q * q).c == _convolution(q, q)


def _one_term(rng, k):
    coords = [0, 0, 0, 0]
    coords[k] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 5))
    return Cyc(*coords)


def test_product_matches_the_convolution_on_every_path():
    # zero, one-term s*z^k for each k (k = 0 is rational; s = 1 and s != 1),
    # two-term and general operands, on both sides of the product
    rng = random.Random(43)
    fixed = [Cyc(0), CYC_ONE, ZETA, Cyc(0, 0, 1), I, -I, SQRT3, OMEGA]
    for _ in range(25):
        xs = fixed + [_one_term(rng, k) for k in range(4)] + \
            [rand_cyc(rng) for _ in range(3)]
        for a in xs:
            for b in xs:
                p = a * b
                assert p.c == _convolution(a, b), (a, b)
                assert all(type(v) is Fraction for v in p.c), (a, b)
            for q in (0, 1, -2, Fraction(-3, 4)):
                for p in (a * q, q * a):
                    assert p.c == _convolution(a, Cyc(q)), (a, q)
                    assert all(type(v) is Fraction for v in p.c), (a, q)


def _sparse_cyc(rng):
    """A Cyc with each coordinate zero or not at random."""
    return Cyc(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 if rng.random() < 0.5 else 0 for _ in range(4)))


def test_sum_and_difference_match_coordinatewise_fractions():
    # zero and nonzero coordinates mixed on both sides, Cyc and rational
    # operands on both sides, and sums that cancel to zero
    rng = random.Random(53)
    xs = [Cyc(0), CYC_ONE, -ZETA, SQRT3] + \
        [_sparse_cyc(rng) for _ in range(30)]
    for a in xs:
        for b in xs + [0, 2, Fraction(-3, 4)]:
            bc = b.c if isinstance(b, Cyc) else (Fraction(b), 0, 0, 0)
            want_sum = tuple(Fraction(x) + y for x, y in zip(a.c, bc))
            want_diff = tuple(Fraction(x) - y for x, y in zip(a.c, bc))
            for got, want in ((a + b, want_sum), (b + a, want_sum),
                              (a - b, want_diff),
                              (b - a, tuple(-x for x in want_diff))):
                assert got.c == want, (a, b)
                assert all(type(v) is Fraction for v in got.c), (a, b)
        assert not a - a and a + (-a) == 0


def test_inverse_of_rational_and_irrational():
    rng = random.Random(37)
    for _ in range(50):
        q = Cyc(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 5)))
        assert q.inv() * q == 1
        assert q.inv().c == (1 / q.c[0], 0, 0, 0)
    for x in (ZETA, SQRT3 + 1, Cyc(Fraction(1, 2), 0, 0, -3)):
        assert x.inv() * x == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyc(0).inv()
