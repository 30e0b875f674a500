"""Exponential-time exact reference engines.

These are the ground truth for everything else: general incomplete Gauss
sums Z_I(d, b, f) summed term by term in exact cyclotomic arithmetic,
solution counting, and the Fourier zero-counting identities.  A term budget
(default 10^7, overridable via HG_BUDGET or an explicit argument) guards
against runaway enumerations.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    _phi_degree,
    from_omega_counts,
    from_xi_counts,
    xi_exponent_modulus,
    xi_pow,
)
from .errors import BudgetExceededError
from .expsum import check_periodicity, eval_half_gauss
from .polynomials import IntPolynomial, QuadraticForm

DEFAULT_BUDGET = 10_000_000


def term_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("HG_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class SumDescriptor:
    """An incomplete Gauss sum instance: variables over Z_d, phases at omega_b."""

    domain_modulus: int
    phase_modulus: int
    poly: IntPolynomial

    def __post_init__(self):
        if self.domain_modulus < 1 or self.phase_modulus < 1:
            raise ValueError("moduli must be positive")
        if self.domain_modulus > self.phase_modulus:
            raise ValueError(
                f"domain modulus {self.domain_modulus} exceeds phase modulus "
                f"{self.phase_modulus}"
            )
        try:
            _phi_degree(self.phase_modulus)  # the values live in Q(zeta_b)
        except ValueError:
            raise ValueError(
                f"phase modulus {self.phase_modulus} is out of reach: without "
                "its factors 2 and 3 it is still 2^63 or more"
            ) from None


def _check_budget(d: int, n: int, budget: int | None):
    needed = d**n
    cap = term_budget(budget)
    if needed > cap:
        raise BudgetExceededError(needed, cap)


def _value_counts(d: int, poly: IntPolynomial, modulus: int) -> dict[int, int]:
    """Histogram {f(x) mod modulus: count} over the full grid Z_d^n, of the
    size of the grid whatever the modulus.  The array path is int64 while a
    residue times a coordinate, (modulus-1)(d-1), stays below 2^62, so that a
    sum of two residues fits too, and exact Python integers above it."""
    n = poly.n
    if d**n <= 512:
        counts: dict[int, int] = {}
        for xs in itertools.product(range(d), repeat=n):
            v = poly.evaluate(xs, modulus)
            counts[v] = counts.get(v, 0) + 1
        return counts
    dtype = np.int64 if (modulus - 1) * (d - 1) < 1 << 62 else object
    values = np.zeros((d,) * n, dtype=dtype)
    for mono, c in poly.terms.items():
        term = c % modulus
        for v in mono:
            shape = [1] * n
            shape[v - 1] = d
            term = term * np.arange(d, dtype=dtype).reshape(shape) % modulus
        values = (values + term) % modulus
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def brute_sum(s: SumDescriptor, budget: int | None = None) -> CyclotomicNumber:
    """Exact Z_I(d, b, f) by term-by-term cyclotomic summation."""
    _check_budget(s.domain_modulus, s.poly.n, budget)
    counts = _value_counts(s.domain_modulus, s.poly, s.phase_modulus)
    return from_omega_counts(s.phase_modulus, counts)


def brute_half_gauss(
    d: int,
    f: QuadraticForm,
    conv: SignConvention = SignConvention.PLUS,
    budget: int | None = None,
) -> CyclotomicNumber:
    """Exact Z_{1/2}(d, f) by enumeration; works for aperiodic f too."""
    _check_budget(d, f.n, budget)
    mod = xi_exponent_modulus(d)
    counts = _value_counts(d, f.to_int_polynomial(), mod)
    return from_xi_counts(d, counts, conv)


def count_solutions(
    d: int, f: IntPolynomial, j: int, modulus: int, budget: int | None = None
) -> int:
    """Number of x in Z_d^n with f(x) = j (mod modulus)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    _check_budget(d, f.n, budget)
    return _value_counts(d, f, modulus).get(j % modulus, 0)


def _fourier_terms(d: int, f: QuadraticForm, budget: int | None = None) -> tuple[dict, list]:
    """The two sides' data of the zero-counting identity for one form: the
    histogram of f mod M over Z_d^n, by enumeration, and Z_{1/2}(d, k f) for
    k in [0, M), through the fast evaluator, with M = xi_exponent_modulus(d).
    Scaling preserves the periodicity condition, which is asserted here."""
    mod = xi_exponent_modulus(d)
    _check_budget(d, f.n, budget)
    counts = _value_counts(d, f.to_int_polynomial(), mod)
    halves = []
    for k in range(mod):
        kf = f.scale(k).reduce_mod(mod)
        assert check_periodicity(d, kf), "scaling must preserve periodicity"
        halves.append(eval_half_gauss(d, kf).value)
    return counts, halves


def _identity_holds(d: int, terms: tuple[dict, list], j: int) -> bool:
    """The identity at outcome j, from the data of `_fourier_terms`."""
    counts, halves = terms
    mod = len(halves)
    rhs = CyclotomicNumber.zero()
    for k, z in enumerate(halves):
        rhs = rhs + xi_pow(d, -k * j) * z
    return rhs.scale(Fraction(1, mod)) == CyclotomicNumber.from_rational(counts.get(j % mod, 0))


def fourier_zero_identity_check(
    d: int, f: QuadraticForm, j: int, budget: int | None = None
) -> bool:
    """Check the inverse-Fourier zero-counting identity at outcome j.

    The left side counts solutions of f = j (mod 2d for even d, mod d for
    odd d) by enumeration; the right side is (1/mod) sum_k xi^{-kj}
    Z_{1/2}(d, k f) with the half sums taken through the fast evaluator.
    """
    return _identity_holds(d, _fourier_terms(d, f, budget), j)
