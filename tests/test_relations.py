"""Exact relations between evaluator values at sizes no brute-force oracle
reaches (n = 50 and 200).

Each check compares two Surds from the evaluator; Surds are normalised, so
equal fields mean equal values.
  * change of variables: Z_{1/2}(d, f(Ux + c)) = Z_{1/2}(d, f) for U in
    GL_n(Z), a permutation times about 3n elementary shears, and a shift c,
    since x -> Ux + c permutes Z_d^n and xi_d^f(x) depends on x mod d only;
  * direct sums: Z(f + g) = Z(f) Z(g) for f and g on disjoint variables;
  * padding: k unused variables multiply Z by d^k, checked after a change
    of variables mixes them into the others.
"""

import itertools
import random

import numpy as np

from halfgauss.cyclotomic import xi_exponent_modulus
from halfgauss.expsum import check_periodicity, eval_half_gauss, random_periodic_form
from halfgauss.polynomials import QuadraticForm

SIZES = (50, 200)
MODULI = (720, 1 << 20, 3**7, 10007, 6 << 24)
DENSITIES = (1.0, 0.05)


def _substitute(d: int, f: QuadraticForm, rng: random.Random) -> QuadraticForm:
    """f(Ux + c) for a random U and c, through the doubled matrix S mod 2M,
    2 f(y) = y^T S y + 2 beta.y + 2 gamma: the quadratic part becomes U^T S U,
    and the linear part U^T (S c + beta)."""
    n, mod = f.n, xi_exponent_modulus(d)
    s = np.zeros((n, n), dtype=np.int64)  # entries below 2M < 2^30
    for (i, j), c in f.alpha.items():
        if i == j:
            s[i - 1, i - 1] = 2 * c % (2 * mod)
        else:
            s[i - 1, j - 1] = s[j - 1, i - 1] = c % (2 * mod)
    c = [rng.randrange(d) for _ in range(n)]
    v = (s.astype(object) @ np.array(c, dtype=object)) % mod
    for i, b in f.beta.items():
        v[i - 1] = (v[i - 1] + b) % mod
    perm = rng.sample(range(n), n)
    s, v = s[np.ix_(perm, perm)], v[perm]
    for _ in range(3 * n):
        # x_i -> x_i + k x_j: column, then row, j of S gains k times those of i
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(1, d)
        s[:, j] = (s[:, j] + k * s[:, i]) % (2 * mod)
        s[j, :] = (s[j, :] + k * s[i, :]) % (2 * mod)
        v[j] = (v[j] + k * v[i]) % mod
    alpha = {(i + 1, i + 1): int(s[i, i]) // 2 for i in range(n)}
    for i, j in zip(*np.triu(s, 1).nonzero()):
        alpha[(int(i) + 1, int(j) + 1)] = int(s[i, j])
    beta = {i + 1: int(b) for i, b in enumerate(v)}
    out = QuadraticForm(n, alpha, beta, f.evaluate(c) % mod)
    assert check_periodicity(d, out)
    return out


def _direct_sum(f: QuadraticForm, g: QuadraticForm) -> QuadraticForm:
    """f(x) + g(y), with g's variables after f's."""
    alpha = dict(f.alpha)
    alpha.update({(i + f.n, j + f.n): c for (i, j), c in g.alpha.items()})
    beta = dict(f.beta)
    beta.update({i + f.n: c for i, c in g.beta.items()})
    return QuadraticForm(f.n + g.n, alpha, beta, f.gamma0 + g.gamma0)


def test_relations_at_sizes_beyond_the_oracles():
    rng = random.Random(2026)
    checks = nonzero = 0
    for d, density, drop_beta in itertools.product(MODULI, DENSITIES, (False, True)):
        forms = []
        for n in SIZES:
            f = random_periodic_form(d, n, rng, density)
            forms.append(QuadraticForm(n, f.alpha, {}, f.gamma0) if drop_beta else f)
        values = [eval_half_gauss(d, f).surd for f in forms]
        for f, z in zip(forms, values):
            # two changes of variables for the small form, one for the large
            for _ in range(2 - SIZES.index(f.n)):
                assert eval_half_gauss(d, _substitute(d, f, rng)).surd == z, (d, f.n, density)
            k = rng.randrange(1, 4)
            padded = QuadraticForm(f.n + k, f.alpha, f.beta, f.gamma0)
            assert eval_half_gauss(d, _substitute(d, padded, rng)).surd == z.scale(d**k), (d, f.n, k)
            checks += 3 - SIZES.index(f.n)
            nonzero += (3 - SIZES.index(f.n)) * (not z.is_zero())
        for f, g in (forms, forms[::-1]):
            want = eval_half_gauss(d, f).surd * eval_half_gauss(d, g).surd
            assert eval_half_gauss(d, _direct_sum(f, g)).surd == want, (d, density)
            checks += 1
            nonzero += not want.is_zero()
    assert checks >= 120
    assert 3 * nonzero >= checks, (nonzero, checks)
