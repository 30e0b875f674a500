import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfgauss.cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    Surd,
    one,
    root_of_unity,
    xi_exponent_modulus,
)
from halfgauss import expsum
from halfgauss.errors import AperiodicPolynomialError
from halfgauss.numtheory import factorize
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


def test_certificate_factors_are_surds():
    rng = random.Random(13)
    for _ in range(150):
        d = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 45, 720, 2**20])
        f = random_periodic_form(d, rng.randrange(0, 5), rng)
        for sv in (eval_half_gauss(d, f), eval_gauss_quadratic(d, f)):
            factors = [factor for _, _, factor in sv.steps if factor is not None]
            assert factors and all(isinstance(x, Surd) for x in factors)
            assert isinstance(sv.value, CyclotomicNumber)
            assert sv.leaf_product() == sv.value


def test_certificate_steps_compare_by_value():
    # two evaluations of one form build fresh leaf factors (the constant
    # phase and the free-variable factor always, every leaf once the caches
    # are cleared), and their steps still compare and hash equal
    rng = random.Random(14)
    for _ in range(60):
        d = rng.choice([2, 3, 4, 6, 8, 9, 12, 15, 45, 720, 2**20])
        f = random_periodic_form(d, rng.randrange(1, 5), rng)
        f = QuadraticForm(f.n + 2, f.alpha, f.beta, f.gamma0 or 1)
        for evaluate in (eval_half_gauss, eval_gauss_quadratic):
            first = evaluate(d, f)
            expsum._core.cache_clear()
            expsum._reduction.cache_clear()
            for leaf in (expsum._uni_odd, expsum._uni_half2, expsum._two_power2):
                leaf.cache_clear()
            second = evaluate(d, f)
            assert second.steps == first.steps
            assert hash(second.steps) == hash(first.steps)
            assert "free_variables" in second.rule_counts()


def test_canonical_key_shares_one_core_entry():
    # renumbering the variables in order, adding unused ones, reordering the
    # dicts and shifting coefficients by the exponent modulus all give the
    # same canonical key: one _core miss, then hits with equal steps
    rng = random.Random(18)
    for d in (2, 8, 12, 45, 720, 2**20):
        mod = xi_exponent_modulus(d)
        f = random_periodic_form(d, rng.randrange(1, 5), rng)
        slots = sorted(rng.sample(range(1, f.n + 4), f.n))
        ren = dict(zip(range(1, f.n + 1), slots))
        renumbered = {(ren[i], ren[j]): c for (i, j), c in f.alpha.items()}, {ren[i]: c for i, c in f.beta.items()}
        reordered = dict(reversed(f.alpha.items())), dict(reversed(f.beta.items()))
        shifted = {k: c - mod * rng.randrange(1, 4) for k, c in f.alpha.items()}, {i: c + mod for i, c in f.beta.items()}
        variants = [f, QF(f.n + 3, *renumbered), QF(f.n + 2, *reordered, f.gamma0), QF(f.n, *shifted)]
        for evaluate in (eval_half_gauss, eval_gauss_quadratic):
            expsum._core.cache_clear()
            steps = set()
            for g in variants:
                steps.add(tuple(s for s in evaluate(d, g).steps if s[0] not in ("constant_phase", "free_variables")))
            info = expsum._core.cache_info()
            assert (info.misses, info.hits) == (1, len(variants) - 1), (d, info)
            assert len(steps) == 1


def test_reduction_shared_across_linear_parts():
    # one quadratic part with five linear parts costs one congruence
    # reduction per prime power; the other frames are cache hits
    # (nonzero sums, so that no frame is skipped after a zero one)
    rng = random.Random(19)
    for d in (8, 45, 720):
        f = random_periodic_form(d, 5, rng)
        forms = []
        while len(forms) < 5:
            g = QF(f.n, f.alpha, random_periodic_form(d, f.n, rng).beta, f.gamma0)
            if not eval_half_gauss(d, g).value.is_zero():
                forms.append(g)
        expsum._core.cache_clear()
        expsum._reduction.cache_clear()
        frames = []
        for g in forms:
            frames += [s[1][:2] for s in eval_half_gauss(d, g).steps if s[0] == "congruence_reduction"]
        info = expsum._reduction.cache_info()
        assert info.misses == len(set(frames)) == len(factorize(d)), (d, info)
        assert info.hits == len(frames) - info.misses


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
    # G(3, 2^26) = 2 G_{1/2}(3, 2^25) = 2^13 (1 + i^3); G(2, 5^12) = (2/5^12) 5^6
    assert eval_gauss_quadratic(big_even, QF(1, {(1, 1): 3})).value == (one() - I).scale(1 << 13)
    assert eval_gauss_quadratic(big_odd, QF(1, {(1, 1): 2})).value == 5**6
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


def test_frame_matches_entrywise_rule():
    # the whole-array frame equals the entrywise rule, dtype included: the
    # diagonal is c w mod M_i, a cross entry (c w mod 2q) / 2 at p = 2 and
    # (c w mod q) (q + 1) / 2 mod q at odd p
    from halfgauss.expsum import _frame, _prepare

    rng = random.Random(24)
    for d in (8, 45, 720, 3**7 * 5, 2**20, 2**26, 6 * 2**24):
        mod = xi_exponent_modulus(d)
        u = 1 if d % 2 == 0 else (d + 1) // 2
        for _ in range(5):
            f = random_periodic_form(d, rng.randrange(1, 6), rng, 0.6)
            key, _ = _prepare(f, mod)
            nused, rows, cols, vals = key[:4]
            for p, k in factorize(d):
                q = p**k
                mi = xi_exponent_modulus(q)
                w = u * pow(mod // mi, -1, mi) % mi
                want = np.zeros((nused, nused), dtype=np.int64 if mi <= 1 << 25 else object)
                for i, j, c in zip(rows, cols, vals):
                    c = c * w % mi
                    want[i, j] = want[j, i] = c if i == j else c // 2 if p == 2 else c * (q + 1) // 2 % q
                got = _frame(d, p, k, w, *key[:4])
                assert got.dtype == want.dtype and (got == want).all(), (d, p, k)


def _dense_shears(shears, n):
    # (t, cols, vals) shears as (t, u) with u the dense n-vector, dtype kept
    out = []
    for t, cols, vals in shears:
        assert cols.dtype == np.intp and len(cols) == len(vals) > 0
        u = np.zeros(n, dtype=vals.dtype)
        u[cols] = vals
        out.append((t, u))
    return out


def _both_phases(monkeypatch, p, q, m, mod):
    # the kernel run dense from the start and sparse to the end
    from halfgauss.expsum import _reduce_symmetric

    out = []
    for degree in (0, m.shape[0] + 1):
        monkeypatch.setattr(expsum, "_SPARSE_DEGREE", degree)
        shears, blocks = _reduce_symmetric(p, q, m, mod)
        out.append((_dense_shears(shears, m.shape[0]), blocks))
    monkeypatch.undo()
    return out


def test_congruence_kernel_contract(monkeypatch):
    # rebuild S from the shears of _reduce_symmetric and check that S^T M S
    # is the returned block diagonal: diagonals at the frame modulus, other
    # entries mod q at p = 2 (where they enter doubled) and at the frame
    # modulus at odd p; every variable lies in exactly one block; both the
    # dense loop and the sparse phase meet it
    from halfgauss.expsum import _frame, _prepare

    rng = random.Random(23)
    frames = 0
    kinds = set()
    for t in range(500):
        p = (2, 3, 5, 7)[t % 4]
        k = 25 if t % 50 == 0 else rng.randrange(1, {2: 7, 3: 5, 5: 3, 7: 3}[p])
        q = p**k
        f = random_periodic_form(q, rng.randrange(1, 9), rng, rng.choice([1.0, 0.6, 0.3]))
        f = f.scale(rng.choice([1, p, p * p]))
        mod = xi_exponent_modulus(q)
        key, _ = _prepare(f, mod)
        nused = key[0]
        if nused == 0:
            continue
        m = _frame(q, p, k, 1, *key[:4])
        for shears, blocks in _both_phases(monkeypatch, p, q, m, mod):
            s = np.identity(nused, dtype=object)
            for i, u in shears:
                step = np.identity(nused, dtype=object)
                step[i] -= u.astype(object)
                s = s.dot(step) % mod
            red = s.T.dot(m.astype(object)).dot(s) % mod
            want = np.zeros((nused, nused), dtype=object)
            covered = []
            for blk in blocks:
                kinds.add(blk[0])
                if blk[0] == "uni":
                    _, i, mii = blk
                    want[i, i] = mii
                    covered.append(i)
                else:
                    _, i, j, mii, mij, mjj = blk
                    want[i, i], want[i, j], want[j, i], want[j, j] = mii, mij, mij, mjj
                    covered += [i, j]
            assert sorted(covered) == list(range(nused)), (p, q, blocks)
            off = q if p == 2 else mod
            for i in range(nused):
                for j in range(nused):
                    assert (red[i, j] - want[i, j]) % (mod if i == j else off) == 0, (p, q, i, j)
            assert p == 2 or all(blk[0] == "uni" for blk in blocks)
        frames += 1
    assert frames >= 300 and kinds == {"uni", "two"}


def _kernel_frame(q, f):
    from halfgauss.expsum import _frame, _prepare

    (p, k), = factorize(q)
    mod = xi_exponent_modulus(q)
    key, _ = _prepare(f, mod)
    return p, mod, _frame(q, p, k, 1, *key[:4])


def test_congruence_kernel_contract_large_frames(monkeypatch):
    # the contract of test_congruence_kernel_contract on frames of 40-80
    # variables, sparse and dense, where the trailing block goes unreduced for
    # many pivots and sparse shears update only their nonzero rows, or where
    # the sparse phase runs to the end; S is rebuilt with one column update
    # per shear, S <- S (I - e_t u^T)
    rng = random.Random(41)
    for p, k in ((2, 5), (2, 21), (3, 4), (3, 13), (5, 3), (5, 9)):
        q = p**k
        for density in (0.05, 1.0):
            f = random_periodic_form(q, rng.randrange(40, 81), rng, density)
            f = f.scale(rng.choice([1, p]))
            p, mod, m = _kernel_frame(q, f)
            n = m.shape[0]
            for shears, blocks in _both_phases(monkeypatch, p, q, m, mod):
                s = np.identity(n, dtype=object)
                for t, u in shears:
                    s = (s - np.outer(s[:, t], u.astype(object))) % mod
                red = s.T.dot(m.astype(object)).dot(s) % mod
                want = np.zeros((n, n), dtype=object)
                covered = []
                for blk in blocks:
                    if blk[0] == "uni":
                        _, i, mii = blk
                        want[i, i] = mii
                        covered.append(i)
                    else:
                        _, i, j, mii, mij, mjj = blk
                        want[i, i], want[i, j], want[j, i], want[j, j] = mii, mij, mij, mjj
                        covered += [i, j]
                assert sorted(covered) == list(range(n)), (q, density)
                diff = red - want
                diag = np.identity(n, dtype=bool)
                assert not (diff[diag] % mod).any(), (q, density)
                assert not (diff[~diag] % (q if p == 2 else mod)).any(), (q, density)


def test_int64_headroom_guard_keeps_kernel_outputs(monkeypatch):
    # with the headroom patched down to two or three outer products, the
    # int64 trailing block is reduced whole every pivot or two; the shears,
    # dtype included, and the blocks stay those of the unpatched run; the
    # sparse phase is patched off, since these forms would never leave it
    from halfgauss.expsum import _reduce_symmetric

    rng = random.Random(42)
    for q in (2**24, 5**10):
        for density in (1.0, 0.2):
            f = random_periodic_form(q, rng.randrange(30, 41), rng, density)
            p, mod, m = _kernel_frame(q, f)
            n = m.shape[0]
            assert m.dtype == np.int64
            monkeypatch.setattr(expsum, "_SPARSE_DEGREE", 0)
            want_shears, want_blocks = _reduce_symmetric(p, q, m, mod)
            monkeypatch.setattr(expsum, "_INT64_HEADROOM", 2 * (mod - 1) ** 2 + mod)
            shears, blocks = _reduce_symmetric(p, q, m, mod)
            monkeypatch.undo()
            assert blocks == want_blocks
            assert len(shears) == len(want_shears) > 0
            for (t, u), (t0, u0) in zip(_dense_shears(shears, n), _dense_shears(want_shears, n)):
                assert t == t0 and u.dtype == u0.dtype == np.int64 and (u == u0).all()


def _affine_grid(d, n_edges, rng):
    # edges paired into vertices of arity 1-3, each an affine signature with
    # a random periodic form and, now and then, one constraint row
    from halfgauss.holant import AffineSignature, SignatureGrid, Vertex

    ends = [e for e in range(n_edges) for _ in range(2)]
    rng.shuffle(ends)
    verts = []
    while ends:
        ar = min(rng.randint(1, 3), len(ends))
        ve, ends = ends[:ar], ends[ar:]
        rows = ()
        if rng.random() < 1 / 3:
            rows = ((tuple(rng.randrange(d) for _ in range(ar)), rng.randrange(d)),)
        sig = AffineSignature(ar, one(), rows, random_periodic_form(d, ar, rng))
        verts.append(Vertex(tuple(f"e{e}" for e in ve), sig))
    return SignatureGrid(d, tuple(f"e{e}" for e in range(n_edges)), tuple(verts))


def test_sparse_and_dense_phases_give_one_reduction(monkeypatch):
    # every frame that the Clifford amplitudes and marginals and holant_affine
    # pass to the kernel, random forms of average degree 1-12 (the fuller ones
    # fill in and leave the sparse phase part way), and a star whose hub row
    # trips the per-update bound: the default run, the dense loop from the
    # start and the sparse phase to the end give the same shears, dtype
    # included, and the same blocks
    from halfgauss.clifford import amplitude, normalize, probability_marginal, random_circuit
    from halfgauss.holant import holant_affine

    real = expsum._reduce_symmetric
    frames = []

    def record(p, q, m, mod):
        frames.append((p, q, m.copy(), mod))
        return real(p, q, m, mod)

    monkeypatch.setattr(expsum, "_reduce_symmetric", record)
    expsum._core.cache_clear()
    expsum._reduction.cache_clear()
    rng = random.Random(43)
    for d, regs, n_gates in ((2, 20, 200), (3, 12, 150), (6, 8, 100)):
        nc = normalize(random_circuit(d, regs, n_gates, rng))
        a = tuple(rng.randrange(d) for _ in range(regs))
        b = tuple(rng.randrange(d) for _ in range(regs))
        amplitude(nc, a, b)
        for k in (1, 2, regs // 2, regs):
            probability_marginal(nc, a, b[:k])
    for d in (6, 8, 45):
        holant_affine(_affine_grid(d, 60, rng))
    monkeypatch.undo()
    expsum._reduction.cache_clear()
    assert len(frames) >= 20
    for q in (2**4, 3**2, 5, 2**20, 3**13, 10007, 2**26):
        for degree in (1, 2, 4, 8, 12):
            n = rng.randrange(40, 61)
            f = random_periodic_form(q, n, rng, degree / n)
            p, mod, m = _kernel_frame(q, f)
            frames.append((p, q, m, mod))
    hub = {(1, 1): 1, **{(1, j): 2 * rng.randrange(1, 1 << 19) for j in range(2, 61)}}
    hub.update({(j, j): rng.randrange(1 << 21) for j in range(2, 61)})
    p, mod, m = _kernel_frame(2**20, QF(60, hub))
    frames.append((p, 2**20, m, mod))
    for p, q, m, mod in frames:
        n = m.shape[0]
        want = real(p, q, m, mod)
        want = ([(t, u.dtype, u.tolist()) for t, u in _dense_shears(want[0], n)], want[1])
        for degree in (0, n + 1):
            monkeypatch.setattr(expsum, "_SPARSE_DEGREE", degree)
            got = real(p, q, m, mod)
            monkeypatch.undo()
            got = ([(t, u.dtype, u.tolist()) for t, u in _dense_shears(got[0], n)], got[1])
            assert got == want, (p, q, n, degree)
