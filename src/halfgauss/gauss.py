"""Closed-form univariate Gauss sums G(a,d) and half Gauss sums G_{1/2}(a,d).

G(a,d)     = sum over x in Z_d of omega_d^(a x^2)
G_{1/2}(a,d) = sum over x in Z_d of xi_d^(a x^2)

Both require gcd(a,d)=1 and are evaluated in poly(log a, log d) arithmetic
steps: the odd part goes through the Jacobi symbol, the 2-power part through
G_{1/2}(a, 2) = 1 + i^a, G_{1/2}(a, 4) = 2 omega_8^a, a halving recursion and
G(a, 2^k) = 2 G_{1/2}(a, 2^(k-1)), and composite moduli split via the CRT.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    one,
    root_of_unity,
    sqrt_int,
)
from .numtheory import crt_split, jacobi_symbol


def _gauss_odd(a: int, d: int) -> CyclotomicNumber:
    # G(a,d) = (a/d) G(1,d), and G(1,d) is sqrt(d) or i*sqrt(d) by d mod 4.
    j = jacobi_symbol(a, d)
    g1 = sqrt_int(d) if d % 4 == 1 else sqrt_int(d) * root_of_unity(4, 1)
    return g1.scale(j)


def _gauss_two_power(a: int, k: int) -> CyclotomicNumber:
    # for k >= 2, omega_{2^k}^(a x^2) has period 2^(k-1) in x, and on
    # Z_{2^(k-1)} it is xi_{2^(k-1)}^(a x^2); G(a, 2) = 1 - 1 = 0
    if k == 1:
        return CyclotomicNumber.zero()
    return _half_two_power(a % (1 << k), k - 1).scale(2)


@lru_cache(maxsize=1 << 14)
def _gauss_cached(a: int, d: int) -> CyclotomicNumber:
    if d == 1:
        return one()
    k = (d & -d).bit_length() - 1
    c = d >> k
    if k == 0:
        return _gauss_odd(a, d)
    if c == 1:
        return _gauss_two_power(a % (2 * d), k)
    # G(a, bc) = G(ab, c) G(ac, b) with b = 2^k
    b = 1 << k
    return _gauss_odd((a * b) % c, c) * _gauss_two_power((a * c) % (2 * b), k)


def gauss_sum(a: int, d: int) -> CyclotomicNumber:
    """Exact G(a, d); rejects gcd(a, d) != 1."""
    if d < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, d) != 1:
        raise ValueError(f"gauss_sum requires gcd(a, d) = 1, got a={a}, d={d}")
    return _gauss_cached(a % d if d > 1 else 0, d)


@lru_cache(maxsize=1 << 12)
def _half_two_power(a: int, m: int) -> CyclotomicNumber:
    if m == 1:
        return one() + root_of_unity(4, a)  # 1 + i^a
    if m == 2:
        return root_of_unity(8, a).scale(2)
    # halving the modulus twice doubles the sum
    return _half_two_power(a % (1 << (m - 1)), m - 2).scale(2)


@lru_cache(maxsize=1 << 14)
def _half_cached(a: int, d: int) -> CyclotomicNumber:
    if d == 1:
        return one()
    if d % 2 == 1:
        # G_{1/2}(a,d) = G(a(d+1)/2, d)
        return gauss_sum((a * ((d + 1) // 2)) % d, d)
    s = crt_split(d)
    m = s.b.bit_length() - 1
    two_part = _half_two_power((a * (s.n1 + s.b * s.n2)) % (2 * s.b), m)
    if s.c == 1:
        return two_part
    return two_part * _half_cached((a * s.n2) % s.c, s.c)


def half_gauss_sum(
    a: int, d: int, conv: SignConvention = SignConvention.PLUS
) -> CyclotomicNumber:
    """Exact G_{1/2}(a, d) under the chosen sign convention; rejects gcd(a,d) != 1."""
    if d < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, d) != 1:
        raise ValueError(f"half_gauss_sum requires gcd(a, d) = 1, got a={a}, d={d}")
    if conv is SignConvention.MINUS_FOR_EVEN:
        # (-omega_{2d})^e = omega_{2d}^((d+1)e); for odd d the rescale is a no-op mod d
        a *= d + 1
    mod = d if d % 2 == 1 else 2 * d
    return _half_cached(a % mod, d)


def q_constant(d: int, conv: SignConvention = SignConvention.PLUS) -> CyclotomicNumber:
    """The unit q_d = G_{1/2}(1, d) / sqrt(d), exactly."""
    if d < 2:
        raise ValueError("q_constant needs d >= 2")
    from fractions import Fraction

    return half_gauss_sum(1, d, conv) * sqrt_int(d).scale(Fraction(1, d))
