import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfgauss.cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    one,
    root_of_unity,
    xi_exponent_modulus,
)
from halfgauss.errors import AperiodicPolynomialError
from halfgauss.expsum import (
    check_periodicity,
    eval_gauss_quadratic,
    eval_half_gauss,
    eval_half_gauss_with_convention,
    gap2,
    random_periodic_form,
)
from halfgauss.oracle import SumDescriptor, brute_half_gauss, brute_sum
from halfgauss.polynomials import QuadraticForm

I = root_of_unity(4, 1)


def QF(n, alpha=None, beta=None, gamma=0):
    return QuadraticForm(n, alpha or {}, beta or {}, gamma)


def test_check_periodicity_examples():
    assert check_periodicity(2, QF(2, {(1, 1): 1, (1, 2): 2}))
    assert not check_periodicity(2, QF(2, {(1, 2): 1}))
    assert check_periodicity(3, QF(2, {(1, 2): 1}, {1: 1}))


def test_eval_half_gauss_examples():
    assert eval_half_gauss(5, QF(2)).value == CyclotomicNumber.from_rational(25)
    assert eval_half_gauss(2, QF(1, {(1, 1): 1})).value == one() + I
    assert eval_half_gauss(2, QF(2, {(1, 1): 1, (1, 2): 2, (2, 2): 1})).value == (one() + I).scale(2)
    assert eval_half_gauss(3, QF(2, {(1, 2): 1})).value == CyclotomicNumber.from_rational(3)


def test_eval_half_gauss_rejects_aperiodic():
    with pytest.raises(AperiodicPolynomialError):
        eval_half_gauss(2, QF(2, {(1, 2): 1}))
    with pytest.raises(AperiodicPolynomialError):
        eval_half_gauss(4, QF(1, {}, {1: 3}))


def test_eval_gauss_quadratic_examples():
    assert eval_gauss_quadratic(4, QF(1, {(1, 1): 1})).value == (one() + I).scale(2)
    got = eval_gauss_quadratic(3, QF(2, {(1, 1): 1, (1, 2): 1, (2, 2): 1})).value
    want = brute_sum(SumDescriptor(3, 3, QF(2, {(1, 1): 1, (1, 2): 1, (2, 2): 1}).to_int_polynomial()))
    assert got == want
    assert eval_gauss_quadratic(7, QF(0, gamma=3)).value == root_of_unity(7, 3)
    assert eval_gauss_quadratic(5, QF(1, {}, {1: 1})).value.is_zero()


def test_gap2_examples():
    assert gap2(QF(2)) == 4
    assert gap2(QF(2, {(1, 2): 1})) == 2
    assert gap2(QF(1, {}, {1: 1})) == 0


def test_gap2_exhaustive_small():
    for n in range(0, 4):
        keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for bits in itertools.product(range(2), repeat=len(keys) + n + 1):
            alpha = dict(zip(keys, bits))
            beta = {i + 1: bits[len(keys) + i] for i in range(n)}
            f = QF(n, alpha, beta, bits[-1])
            want = sum(
                (-1) ** f.evaluate(xs, 2) for xs in itertools.product(range(2), repeat=n)
            )
            assert gap2(f) == want, f.key()


def _exhaustive_tuples(d, n):
    mod = xi_exponent_modulus(d)
    even = range(0, mod, 2) if d % 2 == 0 else range(mod)
    keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    ranges = [range(mod) if i == j else even for (i, j) in keys]
    for alphas in itertools.product(*ranges):
        for betas in itertools.product(even, repeat=n):
            yield dict(zip(keys, alphas)), dict(enumerate(betas, 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_half_gauss_exhaustive_small(d):
    # gamma is exercised separately (single multiplicative phase)
    for n in (1, 2):
        for alpha, beta in _exhaustive_tuples(d, n):
            f = QF(n, alpha, beta)
            assert eval_half_gauss(d, f).value == brute_half_gauss(d, f), f.key()


def test_gamma_phase_exact():
    rng = random.Random(6)
    for _ in range(50):
        d = rng.randrange(2, 12)
        f = random_periodic_form(d, rng.randrange(0, 3), rng)
        base = eval_half_gauss(d, QF(f.n, f.alpha, f.beta, 0)).value
        got = eval_half_gauss(d, f).value
        from halfgauss.cyclotomic import xi_pow

        assert got == xi_pow(d, f.gamma0) * base


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8, 9, 12])
def test_full_gauss_exhaustive_n1(q):
    for a in range(q):
        for b in range(q):
            for c in range(q):
                f = QF(1, {(1, 1): a}, {1: b}, c)
                got = eval_gauss_quadratic(q, f).value
                want = brute_sum(SumDescriptor(q, q, f.to_int_polynomial()))
                assert got == want, (q, f.key())


def test_full_gauss_exhaustive_n2_arbitrary_parity():
    for q in (2, 4, 8):
        for a11 in range(q):
            for a12 in range(q):
                for a22 in range(q):
                    for b1 in range(q):
                        f = QF(2, {(1, 1): a11, (1, 2): a12, (2, 2): a22}, {1: b1})
                        got = eval_gauss_quadratic(q, f).value
                        want = brute_sum(SumDescriptor(q, q, f.to_int_polynomial()))
                        assert got == want, (q, f.key())


def test_random_instances_match_brute():
    rng = random.Random(7)
    for _ in range(250):
        d = rng.randrange(2, 17)
        n = rng.randrange(0, 5)
        f = random_periodic_form(d, n, rng)
        assert eval_half_gauss(d, f).value == brute_half_gauss(d, f)
    for _ in range(150):
        q = rng.randrange(1, 31)
        n = rng.randrange(0, 4)
        alpha = {(i, j): rng.randrange(-q, q) for i in range(1, n + 1) for j in range(i, n + 1)}
        beta = {i: rng.randrange(-q, q) for i in range(1, n + 1)}
        f = QF(n, alpha, beta, rng.randrange(q))
        got = eval_gauss_quadratic(q, f).value
        want = brute_sum(SumDescriptor(q, q, f.reduce_mod(q).to_int_polynomial()))
        assert got == want


def test_conjugation_property():
    rng = random.Random(8)
    for _ in range(80):
        d = rng.randrange(2, 13)
        f = random_periodic_form(d, rng.randrange(0, 4), rng)
        assert eval_half_gauss(d, f.neg()).value == eval_half_gauss(d, f).value.conj()


def test_free_variable_factor():
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randrange(2, 13)
        n = rng.randrange(0, 4)
        f = random_periodic_form(d, n, rng)
        widened = QF(n + 1, f.alpha, f.beta, f.gamma0)
        assert eval_half_gauss(d, widened).value == eval_half_gauss(d, f).value.scale(d)


def test_magnitude_bound():
    rng = random.Random(10)
    for _ in range(60):
        d = rng.randrange(2, 11)
        n = rng.randrange(0, 4)
        f = random_periodic_form(d, n, rng)
        v = eval_half_gauss(d, f).value
        norm = (v * v.conj()).as_rational()
        assert norm is not None and norm <= Fraction(d ** (2 * n))


def test_certificate_replay_always():
    rng = random.Random(11)
    for _ in range(120):
        d = rng.randrange(2, 20)
        f = random_periodic_form(d, rng.randrange(0, 5), rng)
        sv = eval_half_gauss(d, f)
        assert sv.certificate.leaf_product() == sv.value
        q = rng.randrange(1, 20)
        g = QF(2, {(1, 1): rng.randrange(q), (1, 2): rng.randrange(q)}, {2: rng.randrange(q)}, 1)
        sv2 = eval_gauss_quadratic(q, g)
        assert sv2.certificate.leaf_product() == sv2.value


def test_certificate_never_brute_forces():
    rng = random.Random(12)
    for _ in range(50):
        d = rng.choice([2, 4, 6, 8, 12, 16, 30, 60, 720])
        f = random_periodic_form(d, rng.randrange(1, 8), rng)
        assert not eval_half_gauss(d, f).certificate.uses_brute_force()


def test_coefficient_reduction_mod_2d():
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randrange(2, 12)
        mod = xi_exponent_modulus(d)
        f = random_periodic_form(d, rng.randrange(0, 4), rng)
        shifted = QF(
            f.n,
            {k: c + mod * rng.randrange(3) for k, c in f.alpha.items()},
            {i: c + mod * rng.randrange(3) for i, c in f.beta.items()},
            f.gamma0 + mod * rng.randrange(3),
        )
        assert eval_half_gauss(d, shifted).value == eval_half_gauss(d, f).value


def test_minus_convention_evaluator():
    rng = random.Random(14)
    for _ in range(60):
        d = rng.randrange(2, 11)
        f = random_periodic_form(d, rng.randrange(0, 3), rng)
        got = eval_half_gauss_with_convention(d, f, SignConvention.MINUS_FOR_EVEN).value
        want = brute_half_gauss(d, f, SignConvention.MINUS_FOR_EVEN)
        assert got == want


def test_minus_convention_certificate():
    rng = random.Random(15)
    for _ in range(40):
        d = 2 * rng.randrange(1, 9)
        f = random_periodic_form(d, rng.randrange(0, 4), rng)
        sv = eval_half_gauss_with_convention(d, f, SignConvention.MINUS_FOR_EVEN)
        assert sv.certificate.steps[0] == ("minus_convention_rescale", (d + 1,), None)
        assert sv.certificate.leaf_product() == sv.value


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.data())
def test_hypothesis_scaling_by_units(d, data):
    # scaling a periodic form by an odd unit permutes nothing but stays periodic
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = random_periodic_form(d, rng.randrange(0, 3), rng)
    u = data.draw(st.sampled_from([u for u in range(1, 2 * d, 2)]))
    g = f.scale(u)
    assert check_periodicity(d, g.reduce_mod(xi_exponent_modulus(d)))
    assert eval_half_gauss(d, g).value == brute_half_gauss(d, g)


def test_big_modulus_object_path():
    # moduli beyond the int64-safe window route through exact object arrays
    big_even = 1 << 26
    big_odd = 5**12
    assert eval_gauss_quadratic(big_even, QF(1, {(1, 1): 3})).value == __import__(
        "halfgauss.gauss", fromlist=["gauss_sum"]
    ).gauss_sum(3, big_even)
    assert eval_gauss_quadratic(big_odd, QF(1, {(1, 1): 2})).value == __import__(
        "halfgauss.gauss", fromlist=["gauss_sum"]
    ).gauss_sum(2, big_odd)
    rng = random.Random(16)
    for q in (big_even, big_odd, 3 * (1 << 26)):
        f = QF(
            2,
            {(1, 1): rng.randrange(q), (1, 2): rng.randrange(q), (2, 2): rng.randrange(q)},
            {1: rng.randrange(q), 2: rng.randrange(q)},
            rng.randrange(q),
        )
        sv = eval_gauss_quadratic(q, f)
        assert sv.certificate.leaf_product() == sv.value
        # conjugation and unit-substitution invariance hold with no enumeration
        assert eval_gauss_quadratic(q, f.neg()).value == sv.value.conj()
        u = 2 * rng.randrange(1, q // 2) + 1  # odd unit for the 2-power part
        sub = QF(
            2,
            {(1, 1): f.a(1, 1) * u * u, (1, 2): f.a(1, 2) * u, (2, 2): f.a(2, 2)},
            {1: f.b(1) * u, 2: f.b(2)},
            f.gamma0,
        )
        if __import__("math").gcd(u, q) == 1:
            assert eval_gauss_quadratic(q, sub).value == sv.value


def test_n500_structural():
    rng = random.Random(15)
    f = random_periodic_form(60, 120, rng)
    sv = eval_half_gauss(60, f)
    assert sv.certificate.leaf_product() == sv.value
    assert not sv.certificate.uses_brute_force()


def test_three_or_more_crt_parts_match_brute():
    # moduli with 3 or 4 prime-power parts: every part feeds one frame
    rng = random.Random(17)
    for d in (30, 60, 90, 120, 210):
        for _ in range(12):
            n = rng.randrange(1, 3)
            f = random_periodic_form(d, n, rng)
            for conv in SignConvention:
                sv = eval_half_gauss_with_convention(d, f, conv)
                assert sv.value == brute_half_gauss(d, f, conv), (d, conv, f.key())
                assert sv.certificate.leaf_product() == sv.value
            g = QF(
                n,
                {(i, j): rng.randrange(d) for i in range(1, n + 1) for j in range(i, n + 1)},
                {i: rng.randrange(d) for i in range(1, n + 1)},
                rng.randrange(d),
            )
            sv = eval_gauss_quadratic(d, g)
            assert sv.value == brute_sum(SumDescriptor(d, d, g.to_int_polynomial())), (d, g.key())
            assert sv.certificate.leaf_product() == sv.value


def test_2adic_high_valuation_cross_block_at_2_pow_24():
    # the 2x2 block pivot at d = 2^24 stays on int64; d = 2^25 runs on object
    # arrays, and the same form doubled there sums 2^3 copies of the d = 2^24 sum
    f0 = QF(
        3,
        {(1, 1): 2**21, (1, 2): 2**21, (2, 2): 2**21, (1, 3): 2**21, (3, 3): 2**22},
    )
    small = eval_half_gauss(2**24, f0)
    big = eval_half_gauss(2**25, f0.scale(2))
    assert not small.value.is_zero()
    assert big.value == small.value.scale(8)
    assert small.certificate.leaf_product() == small.value
    assert "block_two_2adic" in small.certificate.rule_counts()
