import math
import random

import pytest
from hypothesis import given, strategies as st

from halfgauss.numtheory import (
    extended_gcd,
    factorize,
    jacobi_symbol,
    modinv,
)


def _jacobi_reference(a: int, n: int) -> int:
    # independent route: factor n, multiply Legendre symbols via Euler's criterion
    out = 1
    for p, k in factorize(n):
        if a % p == 0:
            return 0
        leg = pow(a, (p - 1) // 2, p)
        leg = -1 if leg == p - 1 else leg
        out *= leg**k
    return out


def test_jacobi_examples():
    assert jacobi_symbol(1, 9) == 1
    assert jacobi_symbol(2, 15) == 1
    assert jacobi_symbol(3, 9) == 0


def test_jacobi_rejects_even_or_nonpositive():
    with pytest.raises(ValueError):
        jacobi_symbol(3, 10)
    with pytest.raises(ValueError):
        jacobi_symbol(3, -5)
    with pytest.raises(ValueError):
        jacobi_symbol(3, 0)


def test_jacobi_against_euler_reference():
    rng = random.Random(0)
    for _ in range(500):
        n = 2 * rng.randrange(1, 3000) + 1
        a = rng.randrange(-2 * n, 2 * n)
        assert jacobi_symbol(a, n) == _jacobi_reference(a % n, n)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(0, 1500))
def test_jacobi_multiplicative_in_top(a, b, half_n):
    n = 2 * half_n + 1
    assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


@given(st.integers(-500, 500), st.integers(0, 400), st.integers(0, 400))
def test_jacobi_multiplicative_in_bottom(a, hm, hn):
    m, n = 2 * hm + 1, 2 * hn + 1
    assert jacobi_symbol(a, m * n) == jacobi_symbol(a, m) * jacobi_symbol(a, n)


def test_extended_gcd_examples():
    assert extended_gcd(4, 3) == (1, 1, -1)
    assert extended_gcd(1, 0) == (1, 1, 0)
    assert extended_gcd(6, 4) == (2, 1, -1)
    with pytest.raises(ValueError):
        extended_gcd(0, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_extended_gcd_bezout(a, b):
    if a == 0 and b == 0:
        return
    g, u, v = extended_gcd(a, b)
    assert g == math.gcd(a, b)
    assert u * a + v * b == g


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]
    # 2 and 3 are stripped before the 2^63 cap applies to what is left
    assert factorize(1 << 63) == [(2, 63)]
    assert factorize(6**70) == [(2, 70), (3, 70)]
    with pytest.raises(ValueError, match="prime to 6"):
        factorize((1 << 64) + 1)
    with pytest.raises(ValueError, match="prime to 6"):
        factorize(12 * ((1 << 64) + 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_recomposes_exhaustive():
    for d in range(1, 20_001):
        total = 1
        last = 1
        for p, k in factorize(d):
            assert p > last  # sorted, distinct primes
            last = p
            total *= p**k
        assert total == d


def test_modinv_and_valuation():
    assert modinv(3, 16) * 3 % 16 == 1
    with pytest.raises(ValueError):
        modinv(4, 16)
