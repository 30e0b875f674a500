import cmath
import random
from fractions import Fraction

import pytest

from halfgauss.cyclotomic import (
    CyclotomicNumber,
    SignConvention,
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
