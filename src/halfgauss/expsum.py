"""Exact polynomial-time evaluation of quadratic exponential sums over Z_d.

Two public evaluators:

  eval_half_gauss(d, f)      Z_{1/2}(d, f) = sum over Z_d^n of xi_d^f(x),
                             for quadratic f satisfying the periodicity
                             condition (even cross and linear terms when d is
                             even; no condition for odd d).
  eval_gauss_quadratic(q, g) Z(q, g) = sum over Z_q^n of omega_q^g(x), for
                             arbitrary quadratic g.

gap2(g), the Boolean gap sum over {0,1}^n of (-1)^g(x), is Z(2, g).

Both run one core.  xi_q^2 = omega_q, so Z(q, g) = Z_{1/2}(q, 2g) for every
q, and 2g always meets the periodicity condition; the core evaluates
Z_{1/2}(q, f) as the sum over Z_q^n of omega_M^(u f(x)), where M =
xi_exponent_modulus(q) and xi_q = omega_M^u.

Strategy: strip the constant as a global phase, split the modulus through the
Chinese remainder theorem into all its prime powers in one loop (2-adic part
first), and per prime power reduce the symmetric coefficient matrix by an
exact congruence transform (unimodular shears) into 1x1 blocks, plus 2x2
blocks, which only occur for p = 2: the Jordan splitting of a p-adic form.
One kernel does it, as dense elimination on a shrinking trailing block.
Each pivot is an entry of least p-adic valuation (a diagonal one first,
then the smallest variable index), moves to the front of the block, and the
block takes one Schur-complement update T <- T - u r^T mod M.  That
one-sided update is the two-sided congruence S^T M S exactly, because the
pivot times u is the pivot row r mod M.  Each block is a univariate or
bivariate sum with a closed form.  These leaves are the only home of the
closed forms (`gauss_sum` and `half_gauss_sum` are one-variable calls of the
evaluators): (a/q) G(1, q) at odd q = p^k, and G_{1/2}(m, 2^k) = 2^((k-1)/2)
(1 + i^m) or 2^(k/2) omega_8^m by the parity of k.  Every leaf, and every
product of leaves, phases and CRT parts, is a Surd r sqrt(s) zeta_n^t, so
the pipeline costs O(n^3) ring operations per prime power plus O(log q) per
block: polynomial in n and log q, with no brute-force fallback.  The value
becomes a CyclotomicNumber once per call, which costs O(p) terms when s has
a prime factor p (an odd-rank block at p).

Every evaluation returns one SumValue: the exact value and the certificate
steps, an ordered tuple of (rule, params, factor) entries in which each
multiplicative contribution appears as a Surd leaf factor (factor is None
for structural steps).  Multiplying the leaf factors together and converting
once reproduces the value (`leaf_product`); `certificate` is the result.  The
rules: constant_phase and free_variables (leaves), trivial_modulus (leaf
1) when nothing is left to sum, one crt_prime_power per prime-power part of
a composite modulus, one congruence_reduction per frame, and one leaf per
block (block_uni_2adic, block_uni_odd, block_two_2adic).  The minus sign
convention prepends minus_convention_rescale.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclotomic import CyclotomicNumber, SignConvention, Surd, xi_exponent_modulus
from .errors import AperiodicPolynomialError
from .numtheory import factorize, jacobi_symbol, modinv
from .polynomials import QuadraticForm


# ---------------------------------------------------------------------------
# the result


class SumValue:
    """Evaluation result: the exact value and its certificate steps.

    Each step is a (rule, params, factor) tuple; factor is None for a
    structural step and the leaf factor, a Surd, otherwise, and the product
    of the leaf factors equals the value, a CyclotomicNumber.
    """

    __slots__ = ("value", "steps")

    def __init__(self, value: CyclotomicNumber, steps: tuple):
        self.value = value
        self.steps = steps

    @property
    def certificate(self) -> "SumValue":
        """The result is its own certificate."""
        return self

    def leaf_product(self) -> CyclotomicNumber:
        out = _ONE
        for _, _, factor in self.steps:
            if factor is not None:
                out = out * factor
        return out.to_cyclotomic()

    def rule_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rule, _, _ in self.steps:
            out[rule] = out.get(rule, 0) + 1
        return out

    def uses_brute_force(self) -> bool:
        return any(rule == "brute_force" for rule, _, _ in self.steps)

    def __repr__(self) -> str:
        return f"SumValue({self.value!r}, {len(self.steps)} steps)"


# ---------------------------------------------------------------------------
# periodicity


def check_periodicity(d: int, f: QuadraticForm) -> bool:
    """Whether xi_d^f(x) depends on x only through x mod d.

    Always true for odd d; for even d it holds iff every cross coefficient
    alpha_ij (i < j) and every linear coefficient beta_i is even.
    """
    if d % 2 == 1:
        return True
    for (i, j), c in f.alpha.items():
        if i != j and c % 2 != 0:
            return False
    return all(c % 2 == 0 for c in f.beta.values())


# ---------------------------------------------------------------------------
# closed-form leaf sums (memoized on integer arguments), all Surds

_ONE = Surd(1)
_ZERO = Surd(0)


@lru_cache(maxsize=1 << 16)
def _uni_odd(p: int, k: int, a: int, d: int) -> Surd:
    """Sum over z in Z_{p^k} of omega_{p^k}^(a z^2 + d z), p odd."""
    q = p**k
    a %= q
    d %= q
    if k == 0:
        return _ONE
    if a == 0:
        return Surd(q if d == 0 else 0)
    if a % p != 0:
        # G(a, q) = (a/q) G(1, q), G(1, q) = p^(k//2) sqrt(p^(k mod 2)), times
        # i when q = 3 (mod 4); a linear term completes the square with the
        # shift s = d / 2a
        g = Surd(jacobi_symbol(a, q) * p ** (k // 2), p ** (k % 2), 4 if q % 4 == 3 else 1, 1)
        s = modinv(2 * a % q, q) * d % q if d else 0
        return Surd(1, 1, q, -a * s * s) * g
    if d % p != 0:
        return _ZERO
    return _uni_odd(p, k - 1, a // p, d // p).scale(p)


@lru_cache(maxsize=1 << 16)
def _uni_half2(k: int, m: int, d: int) -> Surd:
    """Sum over z in Z_{2^k} of omega_{2^(k+1)}^(m z^2 + 2 d z)."""
    q = 1 << k
    m %= 2 * q
    d %= q
    if k == 0:
        return _ONE
    if m % 2 == 1:
        # G_{1/2}(m, 2^k) is 1 + i^m at k = 1 and 2 omega_8^m at k = 2, and
        # doubles whenever k grows by 2: 2^((k-1)/2) (1 + i^m) for odd k,
        # 2^(k/2) omega_8^m for even k.  A linear term completes the square
        # (m is invertible, the shift an integer, the period q).  1 + i^m is
        # sqrt(2) omega_8^(2 - m mod 4).
        odd = k % 2
        g = Surd(1 << (k // 2), 1 + odd, 8, 2 - m % 4 if odd else m)
        s = modinv(m, q) * d % q if d else 0
        return Surd(1, 1, 2 * q, -m * s * s) * g
    # m = 2a: the full sum of omega_{2^k}^(a z^2 + d z)
    a = m // 2
    if a == 0:
        return Surd(q if d == 0 else 0)
    if k == 1:
        return Surd(1 + (-1) ** (a + d))
    if d % 2 == 1:
        return _ZERO
    # k >= 2 and d even: period 2^(k-1) in z, as in G(a, 2^k) = 2 G_{1/2}(a, 2^(k-1))
    return _uni_half2(k - 1, a, d // 2).scale(2)


def _direct_two(a: int, b: int, c: int, d: int, e: int) -> Surd:
    """Sum over z,w in Z_2 of (-1)^(a z^2 + b zw + c w^2 + d z + e w)."""
    return Surd(sum((-1) ** (a * z + b * z * w + c * w + d * z + e * w) for z in (0, 1) for w in (0, 1)))


@lru_cache(maxsize=1 << 14)
def _two_power2(k: int, a: int, b: int, c: int, d: int, e: int) -> Surd:
    """Sum over z,w in Z_{2^k} of omega_{2^k}^(a z^2 + b zw + c w^2 + d z + e w)."""
    q = 1 << k
    a %= q
    b %= q
    c %= q
    d %= q
    e %= q
    if k == 0:
        return _ONE
    if k == 1:
        return _direct_two(a, b, c, d, e)
    if b % 2 == 1:
        if a % 2 == 0 and c % 2 == 1:
            a, c, d, e = c, a, e, d
        if a % 2 == 1:
            # restrict w to the parity that keeps the z-linear part even,
            # complete the square in z, and the leftover u-sum is a single
            # half-Gauss-with-linear block at half the domain
            ainv = modinv(a, q)
            delta = d & 1
            g0 = (b * delta + d) // 2
            au = (4 * c - ainv * b * b) % (2 * q)
            du = (4 * c * delta + 2 * e - 2 * ainv * b * g0) % (2 * q)
            gu = (c * delta * delta + e * delta - ainv * g0 * g0) % q
            tail = _uni_half2(k - 1, au, (du // 2) % (q // 2))
            return (_uni_half2(k, 2 * a, 0) * Surd(1, 1, q, gu)) * tail
        # both diagonals even: restrict w-parity, descend the z-modulus
        delta = d & 1
        g0 = (b * delta + d) // 2
        qq = q // 2
        phase = Surd(1, 1, q, c * delta * delta + e * delta)
        sub = _two_power2(k - 1, (a // 2) % qq, b % qq, (2 * c) % qq, g0 % qq, (2 * c * delta + e) % qq)
        return phase * sub.scale(2)
    # b even: every block from _reduce_symmetric has v(b) <= v(a), v(c), so
    # a and c are even too, and halving all three keeps that order
    assert a % 2 == 0 and c % 2 == 0, "two-variable block with v(b) > v(a) or v(c)"
    if d % 2 == 1 or e % 2 == 1:
        return _ZERO
    return _two_power2(k - 1, a // 2, b // 2, c // 2, d // 2, e // 2).scale(4)


# ---------------------------------------------------------------------------
# symmetric congruence reduction of one prime-power frame
#
# A frame holds value = sum over Z_q^n of omega_{mod}^{x^T M x + lin * B x}
# where for p = 2:    mod = 2q, lin = 2, M symmetric mod 2q (diagonal parity
#                     free; cross terms are the even alpha_ij halved);
# and for odd p:      mod = q, lin = 1, M_ii = alpha_ii, M_ij = alpha_ij / 2
#                     via the inverse of 2 mod q.
# Shears x_t -> z_t - u.z are unimodular, so they permute Z_q^n and preserve
# the sum exactly; valuations never drop below the current minimum, so every
# pivot quotient is integral at the working modulus.


def _reduce_symmetric(p: int, q: int, m_mat: np.ndarray, mod: int):
    """Block-diagonalize symmetric M by congruence; returns (shears, blocks).

    One loop over the trailing block T = m[s:, s:] of the not yet eliminated
    variables.  Every entry of T has valuation at least e, and e never drops:
    the pivot is an entry of valuation exactly e, a diagonal one before a
    cross one, and among those the one with the smallest original variable
    index.  It moves to the front of T and T takes one Schur-complement
    update, T <- T - u r^T mod M with r the pivot row and u = r / m_ss.
    The congruence S^T M S of the shear gives T - u r^T - r u^T + m_ss u u^T,
    which is the same, since m_ss u = r mod M.  A 2x2 pivot (p = 2 only)
    takes two outer products, with (u1; u2) = P^(-1) (r1; r2).  At odd p a
    cross pivot is bumped onto the diagonal first.

    Each shear is a pair (t, u): the substitution x_t <- z_t - u.z, with u
    an n-vector at the frame modulus, recorded in application order so the
    linear part transforms as B <- B - B_t u (mod q).  Blocks are ("uni", i,
    m_ii) or ("two", i, j, m_ii, m_ij, m_jj) entries at the frame modulus.
    """
    m = m_mat.copy()
    n = m.shape[0]
    idx = np.arange(n)  # position -> original variable index
    shears: list[tuple[int, np.ndarray]] = []
    blocks: list[tuple] = []

    def swap(a: int, t: int):
        # positions a and t of m[s:, s:]: rows, then the rows of m.T
        if a != t:
            for v in (m, m.T):
                row = v[t, s:].copy()
                v[t, s:] = v[a, s:]
                v[a, s:] = row
            idx[t], idx[a] = idx[a], idx[t]

    s = 0
    pe = 1  # p^e
    while s < n:
        # nothing has valuation below e: nonzero mod p^(e+1) means exactly e
        hit = (m.diagonal()[s:] % (pe * p)).nonzero()[0]
        if hit.size:
            swap(s + hit[idx[s:][hit].argmin()], s)
            block = ("uni", int(idx[s]), int(m[s, s]))
            k, det, num = 1, block[2], (m[s, s + 1 :],)
        else:
            cand = m[s:, s:] % (pe * p) != 0
            rows = cand.any(axis=1).nonzero()[0] + s
            if not rows.size:
                if not m[s:, s:].any():
                    blocks.extend(("uni", int(i), 0) for i in np.sort(idx[s:]))
                    break
                pe *= p
                continue
            a = rows[idx[rows].argmin()]
            cols = cand[a - s].nonzero()[0] + s
            b = cols[idx[cols].argmin()]
            if p != 2:
                # x_a -> x_a + x_b adds 2 m_ab + m_aa, of valuation e, to m_bb
                for v in (m, m.T):
                    v[b, s:] += v[a, s:]
                    v[b, s:] %= mod
                u = np.zeros(n, dtype=m.dtype)
                u[idx[b]] = mod - 1
                shears.append((int(idx[a]), u))
                continue
            swap(a, s)
            swap(a if b == s else b, s + 1)
            mii, mij, mjj = (int(x) for x in (m[s, s], m[s, s + 1], m[s + 1, s + 1]))
            block = ("two", int(idx[s]), int(idx[s + 1]), mii, mij, mjj)
            r1, r2 = m[s, s + 2 :], m[s + 1, s + 2 :]
            # adj(P) (r1; r2): every entry is a multiple of pe, so it divides
            # exactly by pe^2, and reducing before the multiply by w keeps
            # int64 in range
            k, det, num = 2, mii * mjj - mij * mij, (mjj * r1 - mij * r2, mii * r2 - mij * r1)
        pk = pe**k
        w = pow(det // pk % mod, -1, mod)
        t = m[s + k :, s + k :]
        recorded = len(shears)
        for i in range(k):
            u = num[i] // pk % mod * w % mod
            if np.count_nonzero(u):
                t -= np.multiply.outer(u, m[s + i, s + k :])
                u_orig = np.zeros(n, dtype=m.dtype)
                u_orig[idx[s + k :]] = u
                shears.append((int(idx[s + i]), u_orig))
        if len(shears) > recorded:
            t %= mod
        blocks.append(block)
        s += k

    return shears, blocks


_REDUCE_CACHE: dict[tuple, tuple] = {}
_REDUCE_CACHE_MAX = 64


def _reduce_cached(p: int, q: int, mod: int, m_mat: np.ndarray):
    key = (p, q, m_mat.shape[0], m_mat.tobytes() if m_mat.dtype != object else tuple(m_mat.ravel()))
    hit = _REDUCE_CACHE.get(key)
    if hit is None:
        hit = _reduce_symmetric(p, q, m_mat, mod)
        if len(_REDUCE_CACHE) >= _REDUCE_CACHE_MAX:
            _REDUCE_CACHE.pop(next(iter(_REDUCE_CACHE)))
        _REDUCE_CACHE[key] = hit
    return hit


def _frame_eval(
    p: int,
    k: int,
    m_mat: np.ndarray,
    b_vec: np.ndarray,
    mod: int,
    steps: list,
) -> Surd:
    """Evaluate the frame sum after congruence reduction."""
    q = p**k
    shears, blocks = _reduce_cached(p, q, mod, m_mat)
    b2 = b_vec % q
    for t, u in shears:
        bt = b2[t]
        if bt:
            b2 = (b2 - bt * u) % q
    steps.append(("congruence_reduction", (p, k, len(blocks)), None))
    out = _ONE
    for blk in blocks:
        if blk[0] == "uni":
            _, i, mii = blk
            d = int(b2[i])
            if p == 2:
                leaf = _uni_half2(k, mii, d)
                steps.append(("block_uni_2adic", (mii, d), leaf))
            else:
                leaf = _uni_odd(p, k, mii, d)
                steps.append(("block_uni_odd", (mii, d), leaf))
        else:
            _, i, j, mii, mij, mjj = blk
            leaf = _two_power2(k, mii // 2, mij, mjj // 2, int(b2[i]), int(b2[j]))
            steps.append(("block_two_2adic", (mii, mij, mjj), leaf))
        if leaf.is_zero():
            return _ZERO
        out = out * leaf
    return out


def _build_frame(p: int, q: int, alpha: tuple, beta: tuple, nvars: int, w: int):
    """M, B of the frame for the sum over Z_q^n of omega_mod^(w f(x)), where
    q = p^k and mod = xi_exponent_modulus(q).

    For p = 2 the cross and linear coefficients of w f are even and are
    halved exactly; for odd p the cross coefficients are halved through the
    inverse of 2 mod q.
    """
    mod = xi_exponent_modulus(q)
    dt = np.int64 if mod <= (1 << 25) else object
    m = np.zeros((nvars, nvars), dtype=dt)
    b = np.zeros(nvars, dtype=dt)
    for (i, j), c in alpha:
        c = (c * w) % mod
        if i == j:
            m[i - 1, i - 1] = c
        else:
            v = c // 2 if p == 2 else (c * (q + 1) // 2) % q
            m[i - 1, j - 1] = v
            m[j - 1, i - 1] = v
    for i, c in beta:
        c = (c * w) % mod
        b[i - 1] = c // 2 if p == 2 else c
    return m, b


# ---------------------------------------------------------------------------
# the core (gamma stripped, variables compressed)


def _core(q: int, alpha: tuple, beta: tuple, nvars: int, steps: list) -> Surd:
    """Z_{1/2}(q, f) = sum over Z_q^n of omega_M^(u f(x)), M = xi_exponent_modulus(q).

    xi_q = omega_M^u with u = 1 for even q and (q+1)/2 for odd q.  With M_i
    = xi_exponent_modulus(q_i) for the prime powers q_i of q, the units w_i =
    (M/M_i)^(-1) mod M_i give 1/M = sum w_i/M_i mod 1, so the sum factors
    into one frame per prime power, the 2-adic part first.
    """
    if q == 1 or nvars == 0:
        steps.append(("trivial_modulus", (q, nvars), _ONE))
        return _ONE
    mod = xi_exponent_modulus(q)
    u = 1 if q % 2 == 0 else (q + 1) // 2
    parts = factorize(q)
    out = _ONE
    for p, k in parts:
        qi = p**k
        mi = xi_exponent_modulus(qi)
        if len(parts) > 1:
            steps.append(("crt_prime_power", (qi,), None))
        w = (u * modinv((mod // mi) % mi, mi)) % mi
        m, b = _build_frame(p, qi, alpha, beta, nvars, w)
        out = out * _frame_eval(p, k, m, b, mi, steps)
        if out.is_zero():
            return out
    return out


@lru_cache(maxsize=1 << 16)
def _core_cached(q: int, alpha: tuple, beta: tuple, nvars: int):
    steps: list = []
    value = _core(q, alpha, beta, nvars, steps)
    return value, tuple(steps)


# ---------------------------------------------------------------------------
# public evaluators


def _prepare(f: QuadraticForm, mod: int):
    """One-pass reduce mod `mod`, periodicity check, variable compression.

    An even `mod` is the exponent modulus 2d of an even d, where every cross
    and linear coefficient must be even.  Returns (alpha_key, beta_key,
    nused, nfree).
    """
    even = mod % 2 == 0
    alpha = []
    used: set[int] = set()
    for (i, j), c in f.alpha.items():
        c %= mod
        if c == 0:
            continue
        if even and i != j and c & 1:
            raise AperiodicPolynomialError(
                f"odd cross coefficient alpha[{i},{j}] violates periodicity"
            )
        alpha.append(((i, j), c))
        used.add(i)
        used.add(j)
    beta = []
    for i, c in f.beta.items():
        c %= mod
        if c == 0:
            continue
        if even and c & 1:
            raise AperiodicPolynomialError(
                f"odd linear coefficient beta[{i}] violates periodicity"
            )
        beta.append((i, c))
        used.add(i)
    nused = len(used)
    remap = {v: t + 1 for t, v in enumerate(sorted(used))}
    alpha_key = tuple(sorted(((remap[i], remap[j]), c) for (i, j), c in alpha))
    beta_key = tuple(sorted((remap[i], c) for i, c in beta))
    return alpha_key, beta_key, nused, f.n - nused


def _evaluate(q: int, f: QuadraticForm, mod: int, gamma: int, n: int, u: int) -> SumValue:
    """Z_{1/2}(q, f) from the core, times the phase omega_n^(u gamma) when
    gamma != 0 and q per variable that f does not use; mod is the exponent
    modulus xi_exponent_modulus(q).  The value becomes a CyclotomicNumber
    here, once."""
    alpha, beta, nused, nfree = _prepare(f, mod)
    value, steps = _core_cached(q, alpha, beta, nused)
    head: tuple = ()
    if gamma:
        factor = Surd(1, 1, n, u * gamma % n)
        head += (("constant_phase", (gamma,), factor),)
        value = factor * value
    if nfree:
        factor = Surd(q**nfree)
        head += (("free_variables", (nfree,), factor),)
        value = factor * value
    return SumValue(value.to_cyclotomic(), head + steps if head else steps)


def eval_half_gauss(d: int, f: QuadraticForm) -> SumValue:
    """Exact Z_{1/2}(d, f) for periodic quadratic f, in polynomial time."""
    if d < 1:
        raise ValueError("d must be positive")
    mod = xi_exponent_modulus(d)
    return _evaluate(d, f, mod, f.gamma0 % mod, mod, 1 if d % 2 == 0 else (d + 1) // 2)


def eval_gauss_quadratic(q: int, g: QuadraticForm) -> SumValue:
    """Exact Z(q, g) for an arbitrary quadratic g, in polynomial time.

    xi_q^2 = omega_q, so Z(q, g) = Z_{1/2}(q, 2g), and 2g always meets the
    periodicity condition.
    """
    if q < 1:
        raise ValueError("q must be positive")
    return _evaluate(q, g.scale(2), xi_exponent_modulus(q), g.gamma0 % q, q, 1)


def eval_half_gauss_with_convention(
    d: int, f: QuadraticForm, conv: SignConvention
) -> SumValue:
    """Z_{1/2}(d, f) under either sign convention.

    The minus convention rescales the exponent: (-omega_{2d})^e equals
    omega_{2d}^{(d+1)e}, and scaling by the odd unit d+1 preserves the
    periodicity condition.
    """
    if conv is SignConvention.PLUS or d % 2 == 1:
        return eval_half_gauss(d, f)
    out = eval_half_gauss(d, f.scale(d + 1))
    return SumValue(out.value, (("minus_convention_rescale", (d + 1,), None),) + out.steps)


def gap2(g: QuadraticForm) -> int:
    """Exact gap(g) = sum over x in {0,1}^n of (-1)^g(x), for quadratic g.

    This is Z(2, g), since omega_2 = -1, so the one evaluator computes it.
    """
    return int(eval_gauss_quadratic(2, g).value.as_rational())


# ---------------------------------------------------------------------------
# instance generation (used by the CLI bench/selftest and the test suite)


def random_periodic_form(d: int, n: int, rng, density: float = 1.0) -> QuadraticForm:
    """A random quadratic form satisfying the periodicity condition for d."""
    mod = xi_exponent_modulus(d)
    even = d % 2 == 0
    alpha: dict[tuple[int, int], int] = {}
    beta: dict[int, int] = {}
    for i in range(1, n + 1):
        if rng.random() <= density:
            alpha[(i, i)] = rng.randrange(mod)
        for j in range(i + 1, n + 1):
            if rng.random() <= density:
                alpha[(i, j)] = 2 * rng.randrange(d) if even else rng.randrange(mod)
        if rng.random() <= density:
            beta[i] = 2 * rng.randrange(d) if even else rng.randrange(mod)
    return QuadraticForm(n, alpha, beta, rng.randrange(mod))
