import math
import random

import pytest

from halfgauss.cyclotomic import (
    SignConvention,
    from_omega_counts,
    from_xi_counts,
    one,
    pretty,
    root_of_unity,
    sqrt_int,
)
from halfgauss.expsum import eval_gauss_quadratic
from halfgauss.gauss import gauss_sum, half_gauss_sum, q_constant
from halfgauss.numtheory import jacobi_symbol
from halfgauss.polynomials import QuadraticForm

I = root_of_unity(4, 1)


def direct_gauss(a, d):
    counts = [0] * d
    for x in range(d):
        counts[(a * x * x) % d] += 1
    return from_omega_counts(d, counts)


def direct_half(a, d, conv):
    mod = d if d % 2 else 2 * d
    counts = [0] * mod
    for x in range(d):
        counts[(a * x * x) % mod] += 1
    return from_xi_counts(d, counts, conv)


def test_gauss_examples():
    assert gauss_sum(1, 5) == sqrt_int(5)
    assert gauss_sum(1, 3) == I * sqrt_int(3)
    assert gauss_sum(2, 3) == -(I * sqrt_int(3))
    assert gauss_sum(1, 1) == one()


def test_gauss_rejects_common_factor():
    with pytest.raises(ValueError):
        gauss_sum(2, 4)
    with pytest.raises(ValueError):
        half_gauss_sum(3, 9)


def test_half_gauss_examples():
    assert half_gauss_sum(1, 2) == one() + I
    assert half_gauss_sum(3, 4) == root_of_unity(8, 3).scale(2)
    assert half_gauss_sum(1, 3) == gauss_sum(2, 3)
    assert half_gauss_sum(1, 8) == (one() + I).scale(2)


def test_half_base_cases_printed_forms():
    # 1 + i^a and 2 omega_8^a, for every unit a
    for a in (1, 3):
        assert half_gauss_sum(a, 2) == one() + root_of_unity(4, a)
    for a in (1, 3, 5, 7):
        assert half_gauss_sum(a, 4) == root_of_unity(8, a).scale(2)


def test_two_power_recursions():
    for a in (1, 3, 5, 7):
        for m in (3, 4, 5, 6):
            assert half_gauss_sum(a, 1 << m) == half_gauss_sum(a, 1 << (m - 2)).scale(2)
            assert half_gauss_sum(a, 1 << m, SignConvention.MINUS_FOR_EVEN) == half_gauss_sum(
                a, 1 << (m - 2), SignConvention.PLUS
            ).scale(2)


def test_exhaustive_direct_sum_small():
    for d in range(1, 41):
        for a in range(1, 2 * d):
            if math.gcd(a, d) != 1:
                continue
            assert gauss_sum(a, d) == direct_gauss(a, d)
            for conv in SignConvention:
                assert half_gauss_sum(a, d, conv) == direct_half(a, d, conv)


def test_two_power_closed_forms_beyond_small_moduli():
    # G_{1/2}(a, 2^m) = 2^((m-1)/2) (1 + i^a) or 2^(m/2) omega_8^a, and
    # G(a, 2^m) = 2 G_{1/2}(a, 2^(m-1)), against the direct sums
    for m in range(7, 15):
        d = 1 << m
        for a in (1, 3, 5, 7, d - 1):
            assert gauss_sum(a, d) == direct_gauss(a, d), (a, d)
            for conv in SignConvention:
                assert half_gauss_sum(a, d, conv) == direct_half(a, d, conv), (a, d, conv)


def test_composite_closed_forms_beyond_small_moduli():
    rng = random.Random(9)
    for d in (105, 210, 420, 1155):
        units = [a for a in range(1, 2 * d) if math.gcd(a, d) == 1]
        for a in [1, 2 * d - 1] + rng.sample(units, 6):
            assert gauss_sum(a, d) == direct_gauss(a, d), (a, d)
            for conv in SignConvention:
                assert half_gauss_sum(a, d, conv) == direct_half(a, d, conv), (a, d, conv)


def test_gauss_norm_is_d_for_odd_d():
    for d in range(3, 36, 2):
        for a in range(1, d):
            if math.gcd(a, d) != 1:
                continue
            g = gauss_sum(a, d)
            assert (g * g.conj()).as_rational() == d


def test_minus_convention_matches_odd_unit_rescale():
    # (-omega_2d)^(a x^2) = omega_2d^((d+1) a x^2)
    for d in range(2, 25, 2):
        for a in (1, 3):
            if math.gcd(a, d) != 1:
                continue
            assert half_gauss_sum(a, d, SignConvention.MINUS_FOR_EVEN) == half_gauss_sum(
                (a * (d + 1)) % (2 * d), d
            )


def test_q_constant_examples():
    z8 = root_of_unity(8, 1)
    assert q_constant(2) == z8
    assert q_constant(4) == z8
    assert q_constant(3) == -I  # fixed by the 3-term direct sum
    for d in range(2, 20):
        got = q_constant(d)
        assert got * sqrt_int(d) == half_gauss_sum(1, d)
        # q_d is a phase: |q_d|^2 = 1
        assert (got * got.conj()).as_rational() == 1


def test_pretty_forms():
    assert pretty(gauss_sum(1, 5)) == "√5"
    assert pretty(half_gauss_sum(1, 2)) == "√2·ζ_8"
    # the value keeps the conductor of its closed form, where pretty finds it
    assert pretty(half_gauss_sum(1, 18, SignConvention.MINUS_FOR_EVEN)) == "-3·√2·ζ_8^3"


def test_large_prime_gauss_sum_matches_square_counts():
    p = 10007
    assert gauss_sum(1, p) == direct_gauss(1, p)


def test_large_prime_two_variable_sum():
    # G(1, p) G(3, p) = (3/p) G(1, p)^2 = (3/p) (-1/p) p
    p = 10007
    sv = eval_gauss_quadratic(p, QuadraticForm(2, {(1, 1): 1, (2, 2): 3}))
    assert sv.value == jacobi_symbol(-3, p) * p
