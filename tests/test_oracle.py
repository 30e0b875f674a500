import itertools
import random

import pytest

from halfgauss.cyclotomic import CyclotomicNumber, one, root_of_unity
from halfgauss.errors import BudgetExceededError
from halfgauss.oracle import (
    SumDescriptor,
    brute_half_gauss,
    brute_sum,
    count_solutions,
    fourier_zero_identity_check,
    term_budget,
)
from halfgauss.polynomials import IntPolynomial, QuadraticForm


def test_descriptor_invariant():
    with pytest.raises(ValueError):
        SumDescriptor(8, 4, IntPolynomial(1, {}))
    s = SumDescriptor(2, 8, IntPolynomial(1, {(1,): 1}))
    assert s.domain_modulus <= s.phase_modulus


def test_brute_sum_examples():
    assert brute_sum(SumDescriptor(2, 4, IntPolynomial(1, {(1, 1): 1}))) == one() + root_of_unity(4, 1)
    assert brute_sum(SumDescriptor(3, 3, IntPolynomial(1, {(1,): 1}))).is_zero()
    assert brute_sum(SumDescriptor(2, 8, IntPolynomial(1, {(1,): 1}))) == one() + root_of_unity(8, 1)


def test_brute_budget_refusal():
    poly = IntPolynomial(30, {(i,): 1 for i in range(1, 31)})
    with pytest.raises(BudgetExceededError) as exc:
        brute_sum(SumDescriptor(4, 4, poly))
    assert exc.value.needed == 4**30
    # explicit override unlocks small-but-over-default cases
    assert term_budget(123) == 123
    small = SumDescriptor(2, 2, IntPolynomial(4, {}))
    with pytest.raises(BudgetExceededError):
        brute_sum(small, budget=8)
    assert brute_sum(small, budget=16) == one().scale(16)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("HG_BUDGET", "32")
    assert term_budget() == 32
    monkeypatch.delenv("HG_BUDGET")
    assert term_budget() == 10_000_000


def test_count_solutions_examples():
    assert count_solutions(2, IntPolynomial(1, {(1, 1): 1}), 0, 4) == 1
    assert count_solutions(2, IntPolynomial(1, {}), 0, 4) == 2
    assert count_solutions(3, IntPolynomial(1, {(1,): 1}), 2, 3) == 1


def test_count_solutions_partition():
    rng = random.Random(1)
    for _ in range(30):
        d = rng.randrange(2, 6)
        n = rng.randrange(0, 3)
        terms = {}
        for i in range(1, n + 1):
            terms[(i,)] = rng.randrange(2 * d)
            terms[(i, i)] = rng.randrange(2 * d)
        if n >= 2:
            terms[(1, 2)] = rng.randrange(2 * d)
        poly = IntPolynomial(n, terms)
        m = rng.randrange(2, 3 * d)
        assert sum(count_solutions(d, poly, j, m) for j in range(m)) == d**n


def test_grid_evaluation_matches_pointwise():
    # the numpy histogram path against direct evaluation, incl. degree 3
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randrange(2, 5)
        n = rng.randrange(3, 6)  # force the vectorized branch
        terms = {(): rng.randrange(8)}
        for _ in range(6):
            mono = tuple(sorted(rng.choices(range(1, n + 1), k=rng.randrange(1, 4))))
            terms[mono] = terms.get(mono, 0) + rng.randrange(-6, 7)
        poly = IntPolynomial(n, terms)
        mod = rng.randrange(2, 10)
        counts = [0] * mod
        for xs in itertools.product(range(d), repeat=n):
            counts[poly.evaluate(xs, mod)] += 1
        for j in range(mod):
            assert count_solutions(d, poly, j, mod) == counts[j]


def test_brute_half_gauss_matches_descriptor_form():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randrange(2, 8)
        n = rng.randrange(0, 3)
        alpha = {(i, j): rng.randrange(2 * d) for i in range(1, n + 1) for j in range(i, n + 1)}
        beta = {i: rng.randrange(2 * d) for i in range(1, n + 1)}
        f = QuadraticForm(n, alpha, beta, rng.randrange(2 * d))
        mod = d if d % 2 else 2 * d
        want = brute_sum(SumDescriptor(d, mod, f.scale((d + 1) // 2 if d % 2 else 1).to_int_polynomial())) \
            if d % 2 else brute_sum(SumDescriptor(d, 2 * d, f.to_int_polynomial()))
        assert brute_half_gauss(d, f) == want


def test_fourier_identity_examples():
    assert fourier_zero_identity_check(2, QuadraticForm(1, {(1, 1): 1}), 0)
    assert fourier_zero_identity_check(3, QuadraticForm(2, {(1, 2): 1}), 0)
    assert fourier_zero_identity_check(4, QuadraticForm(2, {(1, 1): 1, (1, 2): 2}), 1)


def test_fourier_identity_random():
    from halfgauss.expsum import random_periodic_form

    rng = random.Random(4)
    for _ in range(25):
        d = rng.randrange(2, 7)
        f = random_periodic_form(d, rng.randrange(0, 3), rng)
        mod = d if d % 2 else 2 * d
        j = rng.randrange(mod)
        assert fourier_zero_identity_check(d, f, j)


def test_counts_beyond_int64_products_are_exact():
    # (modulus - 1)(d - 1) >= 2^62 puts the array path on exact integers; a
    # grid of 3^7 > 512 points takes that path, checked pointwise
    modulus = 1 << 70
    poly = IntPolynomial(7, {(1, 1): 3**40 + 1, (2, 3): 2**65 + 7, (7,): 5, (): 2**69})
    direct: dict[int, int] = {}
    for xs in itertools.product(range(3), repeat=7):
        v = poly.evaluate(xs, modulus)
        direct[v] = direct.get(v, 0) + 1
    for j in list(direct)[:5] + [1]:
        assert count_solutions(3, poly, j, modulus) == direct.get(j, 0)
    # at 2^62 the value is a CyclotomicNumber too, with Python-int coefficients
    got = brute_sum(SumDescriptor(3, 1 << 62, poly))
    assert all(type(c) is int for c in got.coeffs.values())
    want: dict[int, int] = {}
    for xs in itertools.product(range(3), repeat=7):
        v = poly.evaluate(xs, 1 << 62)
        want[v] = want.get(v, 0) + 1
    assert got == CyclotomicNumber(1 << 62, want)
