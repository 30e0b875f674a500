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
blocks, which only occur for p = 2.  Each block is a univariate or bivariate
sum with a closed form built from the univariate Gauss/half-Gauss machinery.
The whole pipeline is deterministic and costs O(n^3) ring operations per
prime power plus O(log q) per block, so evaluation is polynomial in n and
log q with no branching and no brute-force fallback.

Every evaluation returns one SumValue: the exact value and the certificate
steps, an ordered tuple of (rule, params, factor) entries in which each
multiplicative contribution appears as a leaf factor (factor is None for
structural steps).  Multiplying the leaf factors back together reproduces
the value (`leaf_product`); `certificate` returns the result itself.  The
rules: constant_phase and free_variables (leaves), trivial_modulus (leaf
1) when nothing is left to sum, one crt_prime_power per prime-power part of
a composite modulus, one congruence_reduction per frame, and one leaf per
block (block_uni_2adic, block_uni_odd, block_two_2adic).  The minus sign
convention prepends minus_convention_rescale.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    one,
    root_of_unity,
    xi_exponent_modulus,
    xi_pow,
)
from .errors import AperiodicPolynomialError
from .gauss import gauss_sum, half_gauss_sum
from .numtheory import factorize, modinv, valuation
from .polynomials import QuadraticForm

_INF = 1 << 30


# ---------------------------------------------------------------------------
# the result


class SumValue:
    """Evaluation result: the exact value and its certificate steps.

    Each step is a (rule, params, factor) tuple; factor is None for a
    structural step and the leaf factor otherwise, and the product of the
    leaf factors equals the value.
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
        out = one()
        for _, _, factor in self.steps:
            if factor is not None:
                out = out * factor
        return out

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
# closed-form leaf sums (memoized on integer arguments)


@lru_cache(maxsize=1 << 16)
def _uni_odd(p: int, k: int, a: int, d: int) -> CyclotomicNumber:
    """Sum over z in Z_{p^k} of omega_{p^k}^(a z^2 + d z), p odd."""
    q = p**k
    a %= q
    d %= q
    if k == 0:
        return one()
    if a == 0:
        return CyclotomicNumber.from_rational(q if d == 0 else 0)
    if a % p != 0:
        s = (modinv((2 * a) % q, q) * d) % q
        return root_of_unity(q, -a * s * s) * gauss_sum(a, q)
    if d % p != 0:
        return CyclotomicNumber.zero()
    return _uni_odd(p, k - 1, a // p, d // p).scale(p)


@lru_cache(maxsize=1 << 16)
def _uni_half2(k: int, m: int, d: int) -> CyclotomicNumber:
    """Sum over z in Z_{2^k} of omega_{2^(k+1)}^(m z^2 + 2 d z)."""
    q = 1 << k
    m %= 2 * q
    d %= q
    if k == 0:
        return one()
    if m % 2 == 1:
        # complete the square: m odd is invertible, the shift is an integer,
        # and the summand has period q, so the shifted sum is G_{1/2}(m, q)
        s = (modinv(m, q) * d) % q
        return root_of_unity(2 * q, -m * s * s) * half_gauss_sum(m, q)
    # m = 2a: the full sum of omega_{2^k}^(a z^2 + d z)
    a = m // 2
    if a == 0:
        return CyclotomicNumber.from_rational(q if d == 0 else 0)
    if k == 1:
        return one() + CyclotomicNumber.from_rational((-1) ** (a + d))
    if d % 2 == 1:
        return CyclotomicNumber.zero()
    # k >= 2 and d even: period 2^(k-1) in z, as in G(a, 2^k) = 2 G_{1/2}(a, 2^(k-1))
    return _uni_half2(k - 1, a, d // 2).scale(2)


def _direct_two(k: int, a: int, b: int, c: int, d: int, e: int) -> CyclotomicNumber:
    q = 1 << k
    acc: dict[int, int] = {}
    for z in range(q):
        for w in range(q):
            t = (a * z * z + b * z * w + c * w * w + d * z + e * w) % q
            acc[t] = acc.get(t, 0) + 1
    return CyclotomicNumber(q, acc)


@lru_cache(maxsize=1 << 14)
def _two_power2(k: int, a: int, b: int, c: int, d: int, e: int) -> CyclotomicNumber:
    """Sum over z,w in Z_{2^k} of omega_{2^k}^(a z^2 + b zw + c w^2 + d z + e w)."""
    q = 1 << k
    a %= q
    b %= q
    c %= q
    d %= q
    e %= q
    if k == 0:
        return one()
    if k == 1:
        return _direct_two(k, a, b, c, d, e)
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
            return (gauss_sum(a, q) * root_of_unity(q, gu)) * tail
        # both diagonals even: restrict w-parity, descend the z-modulus
        delta = d & 1
        g0 = (b * delta + d) // 2
        qq = q // 2
        phase = root_of_unity(q, c * delta * delta + e * delta)
        sub = _two_power2(k - 1, (a // 2) % qq, b % qq, (2 * c) % qq, g0 % qq, (2 * c * delta + e) % qq)
        return phase * sub.scale(2)
    # b even: every block from _reduce_symmetric has v(b) <= v(a), v(c), so
    # a and c are even too, and halving all three keeps that order
    assert a % 2 == 0 and c % 2 == 0, "two-variable block with v(b) > v(a) or v(c)"
    if d % 2 == 1 or e % 2 == 1:
        return CyclotomicNumber.zero()
    return _two_power2(k - 1, a // 2, b // 2, c // 2, d // 2, e // 2).scale(4)


# ---------------------------------------------------------------------------
# symmetric congruence reduction of one prime-power frame
#
# A frame holds value = sum over Z_q^n of omega_{mod}^{x^T M x + lin * B x}
# where for p = 2:    mod = 2q, lin = 2, M symmetric mod 2q (diagonal parity
#                     free; cross terms are the even alpha_ij halved);
# and for odd p:      mod = q, lin = 1, M_ii = alpha_ii, M_ij = alpha_ij / 2
#                     via the inverse of 2 mod q.
# Shears x -> x - u x_l are unimodular, so they permute Z_q^n and preserve
# the sum exactly; valuations never drop below the current minimum, so every
# pivot quotient is integral at the working modulus.


def _reduce_symmetric(p: int, q: int, m_mat: np.ndarray, mod: int):
    """Block-diagonalize symmetric M by congruence; returns (shears, blocks).

    Each shear is a pair (t, u): the substitution x_t <- z_t - u.z, recorded
    in application order so the linear part transforms as B <- B - B_t u.
    Blocks are ("uni", i, m_ii) or ("two", i, j, m_ii, m_ij, m_jj) entries
    stored at the frame modulus.
    """
    m = m_mat.copy()
    n0 = m.shape[0]
    idx = list(range(n0))  # local position -> original variable index
    shears: list[tuple[int, np.ndarray]] = []
    active = [True] * n0
    blocks: list[tuple] = []

    def emin() -> int:
        best = _INF
        size = m.shape[0]
        for i in range(size):
            if not active[i]:
                continue
            for j in range(i, size):
                if active[j] and m[i, j] != 0:
                    v = valuation(int(m[i, j]), p)
                    if v < best:
                        best = v
                        if best == 0:
                            return 0
        return best

    def record_shear(i: int, u: np.ndarray):
        u_orig = np.zeros(n0, dtype=m.dtype)
        u_orig[idx] = u % q
        shears.append((idx[i], u_orig))

    def shear(i: int, u: np.ndarray):
        # substitution x_i <- z_i - sum_l u_l z_l, applied as S^T M S:
        # row op then col op with the updated column
        np.subtract(m, np.outer(u, m[i]), out=m)
        np.remainder(m, mod, out=m)
        np.subtract(m, np.outer(m[:, i], u), out=m)
        np.remainder(m, mod, out=m)
        record_shear(i, u)

    def clear_with_diag(i: int):
        piv = int(m[i, i])
        e = valuation(piv, p)
        w = modinv((piv // p**e) % mod, mod)
        row = m[i].copy()
        row[i] = 0
        u = ((row // p**e) * w) % mod
        if np.any(u):
            shear(i, u)

    def clear_with_block(i: int, j: int):
        mii, mij, mjj = int(m[i, i]), int(m[i, j]), int(m[j, j])
        det = mii * mjj - mij * mij
        pe2 = p ** (2 * valuation(int(mij), p))
        w = modinv((det // pe2) % mod, mod)
        # every entry is a multiple of sqrt(pe2), so the numerators divide
        # exactly; reducing before the multiply by w keeps int64 in range
        u1 = (((mjj * m[i] - mij * m[j]) // pe2) % mod * w) % mod
        u2 = (((mii * m[j] - mij * m[i]) // pe2) % mod * w) % mod
        u1[i] = u1[j] = 0
        u2[i] = u2[j] = 0
        if np.any(u1):
            shear(i, u1)
        if np.any(u2):
            shear(j, u2)

    def compact():
        nonlocal m, idx, active
        size = m.shape[0]
        live = sum(active)
        if size > 32 and live * 5 <= size * 3:
            keep = [t for t in range(size) if active[t]]
            m = np.ascontiguousarray(m[np.ix_(keep, keep)])
            idx = [idx[t] for t in keep]
            active = [True] * live

    while any(active):
        compact()
        e = emin()
        size = m.shape[0]
        if e == _INF:
            for i in range(size):
                if active[i]:
                    blocks.append(("uni", idx[i], 0))
                    active[i] = False
            break
        pe1 = p ** (e + 1)
        diag = next(
            (i for i in range(size) if active[i] and m[i, i] != 0 and int(m[i, i]) % pe1 != 0),
            None,
        )
        if diag is not None:
            clear_with_diag(diag)
            blocks.append(("uni", idx[diag], int(m[diag, diag])))
            m[diag, :] = 0
            m[:, diag] = 0
            active[diag] = False
            continue
        cross = None
        for i in range(size):
            if not active[i]:
                continue
            for j in range(i + 1, size):
                if active[j] and m[i, j] != 0 and int(m[i, j]) % pe1 != 0:
                    cross = (i, j)
                    break
            if cross:
                break
        assert cross is not None
        i, j = cross
        if p != 2:
            # bump the cross onto a diagonal: x_i -> x_i + x_j
            u = np.zeros(size, dtype=m.dtype)
            u[j] = -1
            shear(i, u)
            continue
        clear_with_block(i, j)
        blocks.append(("two", idx[i], idx[j], int(m[i, i]), int(m[i, j]), int(m[j, j])))
        m[i, :] = 0
        m[:, i] = 0
        m[j, :] = 0
        m[:, j] = 0
        active[i] = active[j] = False

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
) -> CyclotomicNumber:
    """Evaluate the frame sum after congruence reduction."""
    q = p**k
    shears, blocks = _reduce_cached(p, q, mod, m_mat)
    b2 = b_vec % q
    for t, u in shears:
        bt = b2[t]
        if bt:
            b2 = (b2 - bt * u) % q
    steps.append(("congruence_reduction", (p, k, len(blocks)), None))
    out = one()
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
            return CyclotomicNumber.zero()
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


def _core(q: int, alpha: tuple, beta: tuple, nvars: int, steps: list) -> CyclotomicNumber:
    """Z_{1/2}(q, f) = sum over Z_q^n of omega_M^(u f(x)), M = xi_exponent_modulus(q).

    xi_q = omega_M^u with u = 1 for even q and (q+1)/2 for odd q.  With M_i
    = xi_exponent_modulus(q_i) for the prime powers q_i of q, the units w_i =
    (M/M_i)^(-1) mod M_i give 1/M = sum w_i/M_i mod 1, so the sum factors
    into one frame per prime power, the 2-adic part first.
    """
    if q == 1 or nvars == 0:
        steps.append(("trivial_modulus", (q, nvars), one()))
        return one()
    mod = xi_exponent_modulus(q)
    u = 1 if q % 2 == 0 else (q + 1) // 2
    parts = factorize(q)
    out = None
    for p, k in parts:
        qi = p**k
        mi = xi_exponent_modulus(qi)
        if len(parts) > 1:
            steps.append(("crt_prime_power", (qi,), None))
        w = (u * modinv((mod // mi) % mi, mi)) % mi
        m, b = _build_frame(p, qi, alpha, beta, nvars, w)
        part = _frame_eval(p, k, m, b, mi, steps)
        # no multiply by one: it costs a field embedding on every prime power
        out = part if out is None else out * part
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


def _evaluate(q: int, f: QuadraticForm, mod: int, gamma: int, phase) -> SumValue:
    """Z_{1/2}(q, f) from the core, times phase(q, gamma) (computed only when
    gamma != 0) and q per variable that f does not use; mod is the exponent
    modulus xi_exponent_modulus(q)."""
    alpha, beta, nused, nfree = _prepare(f, mod)
    value, steps = _core_cached(q, alpha, beta, nused)
    head: tuple = ()
    if gamma:
        factor = phase(q, gamma)
        head += (("constant_phase", (gamma,), factor),)
        value = factor * value
    if nfree:
        head += (("free_variables", (nfree,), CyclotomicNumber.from_rational(q**nfree)),)
        value = value.scale(q**nfree)
    return SumValue(value, head + steps if head else steps)


def eval_half_gauss(d: int, f: QuadraticForm) -> SumValue:
    """Exact Z_{1/2}(d, f) for periodic quadratic f, in polynomial time."""
    if d < 1:
        raise ValueError("d must be positive")
    mod = xi_exponent_modulus(d)
    return _evaluate(d, f, mod, f.gamma0 % mod, xi_pow)


def eval_gauss_quadratic(q: int, g: QuadraticForm) -> SumValue:
    """Exact Z(q, g) for an arbitrary quadratic g, in polynomial time.

    xi_q^2 = omega_q, so Z(q, g) = Z_{1/2}(q, 2g), and 2g always meets the
    periodicity condition.
    """
    if q < 1:
        raise ValueError("q must be positive")
    return _evaluate(q, g.scale(2), xi_exponent_modulus(q), g.gamma0 % q, root_of_unity)


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
