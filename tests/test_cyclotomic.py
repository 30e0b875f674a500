import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from halfgauss.cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    Surd,
    _cyclotomic_poly,
    _phi_degree,
    from_omega_counts,
    from_xi_counts,
    one,
    pretty,
    root_of_unity,
    sqrt_int,
    to_json_dict,
    xi_exponent_modulus,
    xi_pow,
)
from halfgauss.gauss import gauss_sum, half_gauss_sum
from halfgauss.numtheory import factorize


def test_root_of_unity_examples():
    assert root_of_unity(4, 1).coeffs == {1: 1}
    assert root_of_unity(2, 1) == CyclotomicNumber.from_rational(-1)
    assert root_of_unity(3, 3) == one()


def test_arith_examples():
    z3 = root_of_unity(3, 1)
    assert z3 + z3 * z3 == CyclotomicNumber.from_rational(-1)
    z8 = root_of_unity(8, 1)
    assert z8 * root_of_unity(8, 3) == CyclotomicNumber.from_rational(-1)
    i = root_of_unity(4, 1)
    assert (one() + i).conj() == one() - i


def test_embed_examples():
    minus1 = root_of_unity(2, 1)
    assert minus1.embed(4) == root_of_unity(4, 2)
    assert root_of_unity(3, 1).embed(6) == root_of_unity(6, 2)
    with pytest.raises(ValueError):
        root_of_unity(8, 1).embed(4)


def test_equality_across_conductors():
    a = root_of_unity(6, 2)
    b = root_of_unity(3, 1)
    assert a == b
    assert root_of_unity(5, 1) != root_of_unity(7, 1)
    assert CyclotomicNumber.from_rational(2) == 2


def _random_value(rng, conductor):
    coeffs = {rng.randrange(conductor): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
              for _ in range(rng.randrange(0, 5))}
    return CyclotomicNumber(conductor, coeffs)


def test_ring_axioms_random():
    rng = random.Random(2)
    conductors = [1, 2, 3, 4, 6, 8, 12, 15, 16, 24, 30, 40, 60, 120, 240]
    for _ in range(150):
        na, nb, nc = (rng.choice(conductors) for _ in range(3))
        x, y, z = _random_value(rng, na), _random_value(rng, nb), _random_value(rng, nc)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x - x == CyclotomicNumber.zero()


def test_norm_positivity_sampled():
    rng = random.Random(3)
    for _ in range(100):
        x = _random_value(rng, rng.choice([4, 8, 12, 20]))
        r = (x * x.conj()).as_rational()
        if r is not None:
            assert r >= 0


def test_embed_preserves_equality_classes():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.choice([3, 4, 6, 8, 12])
        x, y = _random_value(rng, n), _random_value(rng, n)
        m = n * rng.choice([2, 3, 5])
        assert (x == y) == (x.embed(m) == y.embed(m))


def test_xi_properties_exhaustive():
    for d in range(2, 41):
        for conv in SignConvention:
            xi = xi_pow(d, 1, conv)
            assert xi * xi == root_of_unity(d, 1)
            assert xi_pow(d, d * d, conv) == one()
            assert xi_pow(d, xi_exponent_modulus(d), conv) == one()


def test_xi_conventions_differ_for_even_d():
    assert xi_pow(6, 1, SignConvention.PLUS) != xi_pow(6, 1, SignConvention.MINUS_FOR_EVEN)
    assert xi_pow(5, 1, SignConvention.PLUS) == xi_pow(5, 1, SignConvention.MINUS_FOR_EVEN)


def test_sqrt_int():
    for s in [1, 2, 3, 4, 5, 8, 12, 45, 60, 720]:
        r = sqrt_int(s)
        assert r * r == CyclotomicNumber.from_rational(s)
        z = r.approx()
        assert abs(z.imag) < 1e-9 and z.real > 0  # the positive square root


def test_extract_examples():
    two = CyclotomicNumber.from_rational(2)
    assert two.as_rational() == 2
    assert pretty(sqrt_int(5)) == "√5"
    z = (one() + root_of_unity(4, 1)).approx()
    assert abs(z - complex(1, 1)) < 1e-12


def test_pretty_looks_at_twice_an_odd_conductor():
    # -zeta_n^t at odd n can take several terms at n and one term at 2n
    assert pretty(CyclotomicNumber(3, {2: -6})) == "6·ζ_6"
    assert pretty(CyclotomicNumber(5, {4: 1000})) == "-1000·ζ_10^3"
    # a value that is one term at n still renders at n
    assert pretty(CyclotomicNumber(5, {1: -1})) == "-ζ_5"
    assert pretty(CyclotomicNumber(15, {7: 2})) == "2·ζ_15^7"


def test_approx_accuracy():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([7, 16, 36, 100, 360])
        x = _random_value(rng, n)
        want = sum(
            complex(float(c), 0) * cmath.exp(2j * cmath.pi * e / n)
            for e, c in x.coeffs.items()
        )
        assert abs(x.approx() - want) <= 1e-9 * max(1.0, abs(want))


def test_counts_constructors():
    # 1 + zeta_8 as a half-Gauss-style count vector
    v = from_xi_counts(4, [1, 1, 0, 0, 0, 0, 0, 0])
    assert v == one() + root_of_unity(8, 1)
    w = from_omega_counts(3, [0, 2, 0])
    assert w == root_of_unity(3, 1).scale(2)


def test_json_rendering():
    x = one() + root_of_unity(4, 1).scale(Fraction(1, 2))
    obj = to_json_dict(x)
    assert obj["conductor"] == 4
    assert obj["coeffs"] == {"0": "1", "1": "1/2"}
    assert set(obj["approx"]) == {"re", "im"}
    assert to_json_dict(x, approx_only=True).keys() == {"approx"}


def test_zero_representation():
    z = CyclotomicNumber.zero()
    assert z.is_zero() and z.coeffs == {}
    assert (one() - one()).is_zero()


def test_phi_degree_is_the_degree_of_phi():
    for n in range(1, 2001):
        assert _phi_degree(n) == _cyclotomic_poly(n)[0][0], n


def _fields(x: Surd) -> tuple:
    return (x.r, x.s, x.n, x.t)


def test_surd_normalisation():
    assert _fields(Surd(3, 5, 12, 8)) == (3, 5, 3, 2)  # t/n in lowest terms
    assert _fields(Surd(2, 1, 6, 1)) == (-2, 1, 3, 2)  # zeta_6 = -zeta_3^2
    assert _fields(Surd(1, 1, 2, 1)) == (-1, 1, 1, 0)  # zeta_2 = -1
    assert _fields(Surd(-1, 3, 8, 1)) == (1, 3, 8, 5)  # -zeta_8 = zeta_8^5
    assert _fields(Surd(Fraction(-1, 2), 7, 9, 2)) == (Fraction(-1, 2), 7, 9, 2)
    assert _fields(Surd(-4, 2, 1, 5)) == (-4, 2, 1, 0)
    for zero in (Surd(0), Surd(0, 6, 8, 3), Surd(5, 3, 4, 1).scale(0)):
        assert zero.is_zero() and _fields(zero) == (0, 1, 1, 0)
        assert zero.to_cyclotomic().is_zero()
    assert not Surd(-1).is_zero()


def test_surd_equality_is_by_value():
    # normalised fields make == and hash agree on equal values
    assert Surd(3, 5, 12, 8) == Surd(3, 5, 3, 2) == Surd(Fraction(6, 2), 5, 3, 2)
    assert Surd(2, 1, 6, 1) == Surd(-2, 1, 3, 2)
    assert Surd(-1, 3, 8, 1) == Surd(1, 3, 8, 5)
    assert Surd(0, 6, 8, 3) == Surd(0)
    assert hash(Surd(3, 5, 12, 8)) == hash(Surd(3, 5, 3, 2))
    assert hash(Surd(2, 1, 6, 1)) == hash(Surd(-2, 1, 3, 2))
    assert len({Surd(1, 2, 8, 1), Surd(1, 2, 16, 2), Surd(1, 2, 8, 3)}) == 2
    assert Surd(1, 2) != Surd(1, 3)
    assert Surd(1, 1, 4, 1) != Surd(1, 1, 4, 3)
    assert Surd(1) != 1  # no cross-type equality; compare to_cyclotomic() values
    assert repr(Surd(Fraction(-1, 2), 7, 18, 4)) == "Surd(-1/2, 7, 9, 2)"


def test_surd_products():
    assert _fields(Surd(1, 6) * Surd(1, 10)) == (2, 15, 1, 0)  # sqrt6 sqrt10 = 2 sqrt15
    assert _fields(Surd(1, 3, 4, 1) * Surd(1, 3, 4, 1)) == (-3, 1, 1, 0)  # (i sqrt3)^2
    assert _fields(Surd(2, 2, 8, 1) * Surd(Fraction(1, 4), 3, 3, 1)) == (Fraction(1, 2), 6, 24, 11)
    assert (Surd(1, 6) * Surd(1, 10)).to_cyclotomic() == sqrt_int(6) * sqrt_int(10)
    assert (Surd(3, 5) * Surd(0, 5)).is_zero()


def _summed_sqrt(s: int) -> CyclotomicNumber:
    """sqrt(s) for squarefree s, built without Surd: per odd prime p the Gauss
    sum over Z_p, times zeta_4^3 when p = 3 (mod 4), and zeta_8 - zeta_8^3
    for p = 2."""
    out = one()
    for p, _ in factorize(s):
        if p == 2:
            out = out * CyclotomicNumber(8, {1: 1, 3: -1})
            continue
        counts = [0] * p
        for x in range(p):
            counts[x * x % p] += 1
        g = from_omega_counts(p, counts)
        out = out * (g * root_of_unity(4, 3) if p % 4 == 3 else g)
    return out


def test_surd_to_cyclotomic_against_gauss_sum_roots():
    # every squarefree s <= 210 and n <= 48 whose field Q(zeta_lcm(4s, n)) has
    # conductor at most 840; past that each reference product takes seconds
    squarefree = [s for s in range(1, 211) if all(k == 1 for _, k in factorize(s))]
    for s in squarefree:
        root = _summed_sqrt(s)
        for n in range(1, 49):
            if math.lcm(4 * s, n) > 840:
                continue
            r = 1 if (s + n) % 2 else Fraction(-3, 2)
            for t in {1, n // 2 + 1, n - 1}:
                want = (root * root_of_unity(n, t)).scale(r)
                got = Surd(r, s, n, t).to_cyclotomic()
                assert got == want, (r, s, n, t)
                assert got.conductor <= want.conductor, (r, s, n, t)


def test_counts_constructors_store_python_ints():
    # int64 counts would wrap silently in products
    import numpy as np

    y = from_omega_counts(3, np.array([3**13, 2**40, 7]))
    z = from_omega_counts(3, [3**13, 2**40, 7])
    assert all(type(c) is int for c in y.coeffs.values())
    assert y * y * y == z * z * z
    assert from_omega_counts(3, {0: 3**13, 1: 2**40, 2: 7}) == z
    assert from_xi_counts(4, {1: 1, 0: 1}) == from_xi_counts(4, [1, 1])


def test_pretty_is_one_string_per_value():
    x = half_gauss_sum(1, 18, SignConvention.MINUS_FOR_EVEN)
    for m in (x.conductor, 24, 72, 144):
        assert pretty(x.embed(m)) == "-3·√2·ζ_8^3"
    y = root_of_unity(5, 3)
    for m in (5, 10, 15, 20):
        assert pretty(y.embed(m)) == "-ζ_10"
    assert pretty(root_of_unity(12, 5)) == "ζ_12^5"
    z = sqrt_int(3) * root_of_unity(7, 2)
    for m in (z.conductor, 2 * z.conductor, 5 * z.conductor):
        assert pretty(z.embed(m)) == "√3·ζ_7^2"
    assert pretty(one() + root_of_unity(5, 1)) is None
    huge = CyclotomicNumber(10**16, {10**16 // 3 + 1: 1})
    assert pretty(huge) == "ζ_5000000000000000^1666666666666667"
    assert pretty(CyclotomicNumber(6, {1: 2})) == "2·ζ_6"


def test_pretty_of_large_prime_gauss_sums_is_fast():
    for p, want in ((503, "√503·ζ_4"), (1009, "√1009"), (2003, "√2003·ζ_4")):
        x = gauss_sum(1, p)
        t0 = time.perf_counter()
        obj = to_json_dict(x)
        assert obj["pretty"] == want
        assert time.perf_counter() - t0 < 0.05, p


def test_surd_rendering_and_conductor():
    assert str(Surd(3, 5, 5, 3)) == "-3·√5·ζ_10"
    assert str(Surd(Fraction(-1, 2), 2, 8, 1)) == "-1/2·√2·ζ_8"
    assert str(Surd(-1)) == "-1" and str(Surd(0, 3)) == "0" and str(Surd(1, 1, 4, 3)) == "-ζ_4"
    assert Surd(Fraction(5, 3)).as_rational() == Fraction(5, 3)
    assert Surd(1, 2).as_rational() is None and Surd(1, 1, 3, 1).as_rational() is None
    for s in (1, 2, 3, 5, 6, 7, 10, 15):
        for n in (1, 3, 4, 8, 12, 16, 24):
            for t in range(n):
                x = Surd(-2, s, n, t)
                assert x.conductor() == x.to_cyclotomic().conductor, (s, n, t)


def test_approx_is_finite_or_refuses():
    big = CyclotomicNumber(8, {0: 3**2000, 1: -(3**2000) + 1})
    with pytest.raises(OverflowError):
        big.approx()
    obj = to_json_dict(big)
    approx = obj["approx"]
    assert approx["exp2"] > 1024 and math.isfinite(approx["re"]) and math.isfinite(approx["im"])
    assert "exp2" not in to_json_dict(root_of_unity(8, 1))["approx"]
    tiny = CyclotomicNumber(4, {0: Fraction(1, 3**1000)})
    assert tiny.approx() == 0
    half = CyclotomicNumber(4, {1: Fraction(3**700 + 1, 2 * 3**700)})
    assert abs(half.approx() - 0.5j) < 1e-15
