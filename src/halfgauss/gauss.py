"""Univariate Gauss sums G(a,d) and half Gauss sums G_{1/2}(a,d).

G(a,d)     = sum over x in Z_d of omega_d^(a x^2)
G_{1/2}(a,d) = sum over x in Z_d of xi_d^(a x^2)

Both require gcd(a,d)=1 and are one-variable calls of the evaluators in
`expsum`, which split d into prime powers and hold the closed forms: the
Jacobi symbol times G(1, p^k) at odd p, and 2^((k-1)/2) (1 + i^a) or
2^(k/2) omega_8^a for G_{1/2}(a, 2^k) by the parity of k.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import CyclotomicNumber, SignConvention, sqrt_int
from .expsum import eval_gauss_quadratic, eval_half_gauss_with_convention
from .polynomials import QuadraticForm


def _unit_square(name: str, a: int, d: int) -> QuadraticForm:
    """The one-variable form a x^2, once d >= 1 and gcd(a, d) = 1 hold."""
    if d < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, d) != 1:
        raise ValueError(f"{name} requires gcd(a, d) = 1, got a={a}, d={d}")
    return QuadraticForm(1, {(1, 1): a})


def gauss_sum(a: int, d: int) -> CyclotomicNumber:
    """Exact G(a, d); rejects gcd(a, d) != 1."""
    return eval_gauss_quadratic(d, _unit_square("gauss_sum", a, d)).value


def half_gauss_sum(
    a: int, d: int, conv: SignConvention = SignConvention.PLUS
) -> CyclotomicNumber:
    """Exact G_{1/2}(a, d) under the chosen sign convention; rejects gcd(a,d) != 1."""
    return eval_half_gauss_with_convention(d, _unit_square("half_gauss_sum", a, d), conv).value


def q_constant(d: int, conv: SignConvention = SignConvention.PLUS) -> CyclotomicNumber:
    """The unit q_d = G_{1/2}(1, d) / sqrt(d), exactly."""
    if d < 2:
        raise ValueError("q_constant needs d >= 2")
    return half_gauss_sum(1, d, conv) * sqrt_int(d).scale(Fraction(1, d))
