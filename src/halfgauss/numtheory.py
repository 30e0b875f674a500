"""Integer utilities: gcd/inverse, Jacobi symbol, factorization.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

FACTOR_CAP = 1 << 63


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g."""
    if a == 0 and b == 0:
        raise ValueError("extended_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def modinv(a: int, m: int) -> int:
    """Inverse of a modulo m; raises if gcd(a, m) != 1."""
    g, u, _ = extended_gcd(a, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return u % m


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, via quadratic reciprocity.

    Returns 0 iff gcd(a, n) > 1. Cost is polynomial in log of the inputs.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(d: int) -> list[tuple[int, int]]:
    """Sorted prime factorization of d >= 1 by trial division.  The factors 2
    and 3 are stripped first, at any size; what is left must be below 2^63."""
    if d < 1:
        raise ValueError(f"factorize needs d >= 1, got {d}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if d % p == 0:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            out.append((p, k))
    if d >= FACTOR_CAP:
        raise ValueError(f"factorize: the part {d} of the input prime to 6 is at or above the 2^63 cap")
    # 6k+-1 wheel
    p = 5
    step = 2
    while p * p <= d:
        if d % p == 0:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            out.append((p, k))
        p += step
        step = 6 - step
    if d > 1:
        out.append((d, 1))
    return sorted(out)
