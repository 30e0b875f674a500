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
One kernel does it, as elimination on a shrinking trailing block.  Each
pivot is an entry of least p-adic valuation (a diagonal one first, then the
smallest variable index), and the block takes one Schur-complement update
T <- T - u r^T.  That one-sided update is the two-sided congruence S^T M S
mod M, because the pivot times u is the pivot row r mod M.  The kernel
starts sparse, with one dict of reduced entries per variable, so that the
phase polynomials of Clifford circuits and Holant grids, where a variable
meets only a few others, eliminate in time proportional to the fill.  Once
the block holds more than a few entries per variable it goes to a dense
loop on an array, which moves each pivot to the front, updates only the
rows where u is nonzero when u is sparse, and lets T drift congruent mod M,
reducing it where it is read: the pivot rows, and all of T before the test
that ends the loop or before an int64 entry could overflow.  Both phases
pick the same pivots and record each shear as the nonzero entries of u,
(t, cols, vals), which the linear part takes sparsely.  Each block is
a univariate or bivariate sum with a closed form.  These leaves are the
only home of the closed forms (`gauss_sum` and `half_gauss_sum` are
one-variable calls of the evaluators): (a/q) G(1, q) at odd q = p^k, and
G_{1/2}(m, 2^k) = 2^((k-1)/2) (1 + i^m) or 2^(k/2) omega_8^m by the parity
of k.  Every leaf, and every product of leaves, phases and CRT parts, is a
Surd r sqrt(s) zeta_n^t, so the pipeline costs O(n^3) ring operations per
prime power plus O(log q) per block: polynomial in n and log q, with no
brute-force fallback.  The result keeps the Surd (`SumValue.surd`), and the
callers on the closed-form path (`gap2`, the Clifford amplitudes and
marginals, `holant_affine`) read or multiply it.  It becomes a
CyclotomicNumber only when `SumValue.value` is read, which costs O(p) terms
when s has a prime factor p (an odd-rank block at p), once per distinct
value.

Input: `_prepare` makes one pass over the form (reduce mod M, check
periodicity, drop unused variables) and returns its canonical key (nused,
rows, cols, vals, brows, bvals): the used variables renumbered 0..nused-1
in order, the quadratic entries as three flat tuples sorted by (row, col),
the linear ones as two.  Forms that differ only in the numbering or the
number of unused variables, in dict order, or in coefficients congruent mod
M share one key.  Every CRT frame derives from it: the matrix is the key's
entries times the CRT unit w at the frame modulus, built with whole-array
operations, and the linear vector is scaled the same way.  Arrays are int64
while the modulus is at most 2^25 (`_dtype`), and exact object arrays above
it.  Two lru_caches are keyed by the key: `_core` (65,536 entries) maps it
to the value and steps, and serves forms repeated with only a new constant,
as in the exhaustive sweeps; `_reduction` (64 entries) maps one frame's
quadratic part to its shears and blocks, and serves one quadratic part with
many linear parts, as in the amplitudes and marginals of one Clifford
circuit.

Every evaluation returns one SumValue: the exact value as a Surd and the
certificate steps, an ordered tuple of (rule, params, factor) entries in
which each multiplicative contribution appears as a Surd leaf factor (factor
is None for structural steps).  Multiplying the leaf factors together and
converting once reproduces the value (`leaf_product`); `certificate` is the
result.  The rules: constant_phase and free_variables (leaves),
trivial_modulus (leaf 1) when nothing is left to sum, one crt_prime_power
per prime-power part of a composite modulus, one congruence_reduction per
frame, and one leaf per block (block_uni_2adic, block_uni_odd,
block_two_2adic).  The minus sign convention prepends
minus_convention_rescale.
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
    """Evaluation result: the exact value, a Surd, and its certificate steps.

    Each step is a (rule, params, factor) tuple; factor is None for a
    structural step and the leaf factor, a Surd, otherwise, and the product
    of the leaf factors equals the value.
    """

    __slots__ = ("surd", "steps")

    def __init__(self, surd: Surd, steps: tuple):
        self.surd = surd
        self.steps = steps

    @property
    def value(self) -> CyclotomicNumber:
        """The value as a CyclotomicNumber, converted when read (memoised by
        value in `cyclotomic`)."""
        return self.surd.to_cyclotomic()

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
        return f"SumValue({self.surd!r}, {len(self.steps)} steps)"


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


# An int64 trailing block is reduced whole before an entry could reach this
# bound; below it, one row added to another still fits in int64.
_INT64_HEADROOM = 1 << 62

# The sparse phase hands the trailing block to the dense loop once it holds
# more than this many entries per variable, or before one update would touch
# more than this many entries per variable of the block.
_SPARSE_DEGREE = 8


def _reduce_symmetric(p: int, q: int, m_mat: np.ndarray, mod: int):
    """Block-diagonalize symmetric M by congruence; returns (shears, blocks).

    The trailing block T holds the not yet eliminated variables.  Every
    entry of T has valuation at least e, and e never drops: the pivot is an
    entry of valuation exactly e, a diagonal one before a cross one, and
    among those the one with the smallest original variable index.  T takes
    one Schur-complement update, T <- T - u r^T with r the pivot row and u =
    r / m_ss mod M.  The congruence S^T M S of the shear gives T - u r^T -
    r u^T + m_ss u u^T, which is the same mod M, since m_ss u = r mod M.  A
    2x2 pivot (p = 2 only) takes two outer products, with (u1; u2) = P^(-1)
    (r1; r2).  At odd p a cross pivot is bumped onto the diagonal first, by
    x_a -> x_a + x_b.

    Two phases share that rule, and the pivots and shears do not depend on
    which one runs.  The sparse phase holds T as one dict per variable,
    keyed by original index, with entries reduced mod M, so an update costs
    nnz(u) nnz(r) and nothing moves.  Once T holds more than _SPARSE_DEGREE
    entries per variable, or just before one update (a hub row) would touch
    more than that many entries per variable, T is copied in sorted order
    into an array at the frame dtype, and the dense loop carries on at the
    same level p^e; a frame that starts above the bound goes there
    directly.  The dense loop moves each pivot to the front of T.  Its T is
    only congruent mod M to the reduced block and is reduced where it is
    read: the pivot rows before the block entries and u are taken from
    them, and all of T before the test that closes the loop.  The valuation
    tests read it unreduced, since p^(e+1) divides M wherever they run.  An
    int64 T is also reduced whole before its entries could reach
    _INT64_HEADROOM.  An update touches only the rows where u is nonzero
    when u is sparse.

    Each shear is (t, cols, vals): the substitution x_t <- z_t - u.z, where
    u is zero but at the original indices `cols` (intp), where it holds
    `vals` at the frame dtype and modulus; shears are recorded in
    application order, so the linear part transforms as B <- B - B_t u (mod
    q).  Blocks are ("uni", i, m_ii) or ("two", i, j, m_ii, m_ij, m_jj)
    entries at the frame modulus.
    """
    n = m_mat.shape[0]
    dtype = m_mat.dtype
    shears: list[tuple[int, np.ndarray, np.ndarray]] = []
    blocks: list[tuple] = []
    m = m_mat % mod
    idx = np.arange(n)  # position -> original variable index
    pe = 1  # p^e
    fill = np.count_nonzero(m)
    if fill <= _SPARSE_DEGREE * n:
        rows, cols = m.nonzero()
        # sparse phase: T[i] = {j: T_ij mod M} over the nonzero entries, by
        # original index, and fill = nnz(T)
        T: dict[int, dict[int, int]] = {i: {} for i in range(n)}
        for i, j, v in zip(rows.tolist(), cols.tolist(), m[rows, cols].tolist()):
            T[i][j] = v
        pp = p  # p^(e+1)
        hits = {i for i, row in T.items() if row.get(i, 0) % pp}  # diagonals of valuation e
        while T:
            cap = _SPARSE_DEGREE * len(T)
            if fill > cap:
                break
            if hits:
                s = min(hits)
                if (len(T[s]) - 1) ** 2 > cap:
                    break
                r = T.pop(s)
                mss = r.pop(s)
                hits.discard(s)
                fill -= 2 * len(r) + 1
                w = pow(mss // pe, -1, mod)
                block = ("uni", s, mss)
                pivots = ((s, {j: v // pe * w % mod for j, v in r.items()}, r),)
            else:
                if not fill:
                    blocks.extend(("uni", i, 0) for i in sorted(T))
                    return shears, blocks
                a = b = None
                for i in sorted(T):
                    cand = [j for j, v in T[i].items() if v % pp]
                    if cand:
                        a, b = i, min(cand)
                        break
                if a is None:
                    pe, pp = pp, pp * p
                    hits = {i for i, row in T.items() if row.get(i, 0) % pp}
                    continue
                ra, rb = T[a], T[b]
                if p != 2:
                    # x_a -> x_a + x_b: row b += row a, then column b += column
                    # a, which adds 2 m_ab + m_aa, of valuation e, to m_bb
                    new = dict(rb)
                    for j, v in ra.items():
                        new[j] = new.get(j, 0) + v
                    new[b] = new.get(b, 0) + new.get(a, 0)
                    new = {j: v % mod for j, v in new.items() if v % mod}
                    fill += 2 * (len(new) - len(rb)) - (b in new) + (b in rb)
                    T[b] = new
                    for j in rb.keys() - new.keys() - {b}:
                        del T[j][b]
                    for j, v in new.items():
                        T[j][b] = v
                    if new.get(b, 0) % pp:
                        hits.add(b)
                    shears.append((a, np.array([b], dtype=np.intp), np.array([mod - 1], dtype=dtype)))
                    continue
                mii, mij, mjj = ra.get(a, 0), ra[b], rb.get(b, 0)
                r1 = {j: v for j, v in ra.items() if j != a and j != b}
                r2 = {j: v for j, v in rb.items() if j != a and j != b}
                pk = pe * pe
                w = pow((mii * mjj - mij * mij) // pk % mod, -1, mod)
                u1: dict[int, int] = {}
                u2: dict[int, int] = {}
                for j in r1.keys() | r2.keys():
                    x, y = r1.get(j, 0), r2.get(j, 0)
                    v1 = (mjj * x - mij * y) // pk % mod * w % mod
                    v2 = (mii * y - mij * x) // pk % mod * w % mod
                    if v1:
                        u1[j] = v1
                    if v2:
                        u2[j] = v2
                if len(u1) * len(r1) + len(u2) * len(r2) > cap:
                    break
                del T[a], T[b]
                fill -= len(ra) + len(rb) + len(r1) + len(r2)
                block = ("two", a, b, mii, mij, mjj)
                pivots = ((a, u1, r1), (b, u2, r2))
            for t, u, r in pivots:
                for j in r:
                    del T[j][t]
                for i, ui in u.items():
                    ri = T[i]
                    before = len(ri)
                    for j, v in r.items():
                        x = (ri.get(j, 0) - ui * v) % mod
                        if x:
                            ri[j] = x
                        else:
                            ri.pop(j, None)
                    fill += len(ri) - before
                    if ri.get(i, 0) % pp:
                        hits.add(i)
                    else:
                        hits.discard(i)
                if u:
                    shears.append((t, np.fromiter(u, np.intp, len(u)), np.fromiter(u.values(), dtype, len(u))))
            blocks.append(block)
        else:
            return shears, blocks
        # hand-off: the active block, in sorted order, at the frame dtype
        idx = np.array(sorted(T), dtype=np.intp)
        pos = {v: t for t, v in enumerate(idx.tolist())}
        ent = [(pos[i], pos[j], v) for i, row in T.items() for j, v in row.items()]
        rows, cols, vals = zip(*ent) if ent else ((), (), ())
        m = np.zeros((idx.size, idx.size), dtype=dtype)
        m[list(rows), list(cols)] = np.array(vals, dtype=dtype)
    n = m.shape[0]
    # |entries of T| <= bound, which grows by step per outer product; only an
    # int64 T needs the guard
    guard = dtype != object
    step = (mod - 1) ** 2
    bound = mod - 1

    def swap(a: int, t: int):
        # positions a and t of m[s:, s:]: rows, then the rows of m.T
        if a != t:
            for v in (m, m.T):
                row = v[t, s:].copy()
                v[t, s:] = v[a, s:]
                v[a, s:] = row
            idx[t], idx[a] = idx[a], idx[t]

    s = 0
    while s < n:
        # nothing has valuation below e: nonzero mod p^(e+1) means exactly e
        hit = (m.diagonal()[s:] % (pe * p)).nonzero()[0]
        if hit.size:
            swap(s + hit[idx[s:][hit].argmin()], s)
            m[s, s:] %= mod
            block = ("uni", int(idx[s]), int(m[s, s]))
            k, det, num = 1, block[2], (m[s, s + 1 :],)
        else:
            cand = m[s:, s:] % (pe * p) != 0
            rows = cand.any(axis=1).nonzero()[0] + s
            if not rows.size:
                m[s:, s:] %= mod
                bound = mod - 1
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
                shears.append((int(idx[a]), idx[b : b + 1].copy(), np.array([mod - 1], dtype=dtype)))
                continue
            swap(a, s)
            swap(a if b == s else b, s + 1)
            m[s : s + 2, s:] %= mod
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
        if guard and bound + k * step >= _INT64_HEADROOM:
            t %= mod
            bound = mod - 1
        for i in range(k):
            u = num[i] // pk % mod * w % mod
            nz = u.nonzero()[0]
            if nz.size:
                r = m[s + i, s + k :]
                if 4 * nz.size < u.size:
                    t[nz] -= np.multiply.outer(u[nz], r)
                else:
                    t -= np.multiply.outer(u, r)
                bound += step
                shears.append((int(idx[s + i]), idx[s + k :][nz], u[nz]))
        blocks.append(block)
        s += k

    return shears, blocks


def _dtype(mod: int):
    """int64 for a modulus of at most 2^25, exact Python integers above it.

    A product of two residues stays below 2^50, so the kernel's unreduced
    trailing block takes at least 4,096 outer products before its entries
    could reach _INT64_HEADROOM (2^62) and it is reduced whole.
    """
    return np.int64 if mod <= (1 << 25) else object


def _frame(q: int, p: int, k: int, w: int, nused: int, rows: tuple, cols: tuple, vals: tuple) -> np.ndarray:
    """The symmetric matrix of the frame at p^k of the canonical key, for the
    sum over Z_{p^k}^n of omega_mod^(w f(x)), mod = xi_exponent_modulus(p^k).

    A holds the coefficients of w f on and above the diagonal at `mod`, and
    the frame is (A + A^T)/2: the diagonal is c w mod `mod`, and a cross
    coefficient c w is even at p = 2 and halved exactly, and at odd p it is
    halved through the inverse (p^k + 1)/2 of 2, folded into w.  q is the
    modulus of the whole call, whose exponent modulus bounds c.
    """
    qi = p**k
    mod = xi_exponent_modulus(qi)
    if p != 2:
        w = w * (qi + 1) // 2 % qi
    a = np.zeros((nused, nused), dtype=_dtype(mod))
    r, s = np.array((rows, cols), dtype=np.intp)
    a[r, s] = np.array(vals, dtype=_dtype(xi_exponent_modulus(q))) * w % mod
    a = a + a.T
    return a // 2 if p == 2 else a % qi


@lru_cache(maxsize=64)
def _reduction(q: int, p: int, k: int, w: int, nused: int, rows: tuple, cols: tuple, vals: tuple):
    """Shears and blocks of one frame: one quadratic part serves every
    linear part, as in the amplitudes and marginals of one circuit."""
    qi = p**k
    return _reduce_symmetric(p, qi, _frame(q, p, k, w, nused, rows, cols, vals), xi_exponent_modulus(qi))


def _frame_eval(p: int, k: int, reduction: tuple, b: np.ndarray, steps: list) -> Surd:
    """Evaluate the frame sum from its congruence reduction and linear part
    b (at Z_{p^k})."""
    q = p**k
    shears, blocks = reduction
    for t, cols, vals in shears:
        bt = b[t]
        if bt:
            b[cols] = (b[cols] - bt * vals) % q
    steps.append(("congruence_reduction", (p, k, len(blocks)), None))
    out = _ONE
    for blk in blocks:
        if blk[0] == "uni":
            _, i, mii = blk
            d = int(b[i])
            if p == 2:
                leaf = _uni_half2(k, mii, d)
                steps.append(("block_uni_2adic", (mii, d), leaf))
            else:
                leaf = _uni_odd(p, k, mii, d)
                steps.append(("block_uni_odd", (mii, d), leaf))
        else:
            _, i, j, mii, mij, mjj = blk
            leaf = _two_power2(k, mii // 2, mij, mjj // 2, int(b[i]), int(b[j]))
            steps.append(("block_two_2adic", (mii, mij, mjj), leaf))
        if leaf.is_zero():
            return _ZERO
        out = out * leaf
    return out


# ---------------------------------------------------------------------------
# the core (gamma stripped, variables compressed)


@lru_cache(maxsize=1 << 16)
def _core(q: int, nused: int, rows: tuple, cols: tuple, vals: tuple, brows: tuple, bvals: tuple):
    """(Z_{1/2}(q, f), steps), the sum over Z_q^n of omega_M^(u f(x)) with M =
    xi_exponent_modulus(q), for f given by its canonical key (`_prepare`).

    xi_q = omega_M^u with u = 1 for even q and (q+1)/2 for odd q.  With M_i
    = xi_exponent_modulus(q_i) for the prime powers q_i of q, the units w_i =
    (M/M_i)^(-1) mod M_i give 1/M = sum w_i/M_i mod 1, so the sum factors
    into one frame per prime power, the 2-adic part first.
    """
    if q == 1 or nused == 0:
        return _ONE, (("trivial_modulus", (q, nused), _ONE),)
    mod = xi_exponent_modulus(q)
    u = 1 if q % 2 == 0 else (q + 1) // 2
    parts = factorize(q)
    steps: list = []
    out = _ONE
    for p, k in parts:
        qi = p**k
        mi = xi_exponent_modulus(qi)
        if len(parts) > 1:
            steps.append(("crt_prime_power", (qi,), None))
        w = (u * modinv((mod // mi) % mi, mi)) % mi
        b = np.zeros(nused, dtype=_dtype(mi))
        for i, c in zip(brows, bvals):
            b[i] = c * w % mi // (2 if p == 2 else 1)
        out = out * _frame_eval(p, k, _reduction(q, p, k, w, nused, rows, cols, vals), b, steps)
        if out.is_zero():
            break
    return out, tuple(steps)


# ---------------------------------------------------------------------------
# public evaluators


def _prepare(f: QuadraticForm, mod: int):
    """One-pass reduce mod `mod`, periodicity check, variable compression.

    An even `mod` is the exponent modulus 2d of an even d, where every cross
    and linear coefficient must be even.  Returns the canonical key (nused,
    rows, cols, vals, brows, bvals), with the used variables renumbered 0 ..
    nused-1 in their order and the entries sorted, and the count of unused
    variables.
    """
    even = mod % 2 == 0
    alpha = []
    for (i, j), c in f.alpha.items():
        c %= mod
        if c == 0:
            continue
        if even and i != j and c & 1:
            raise AperiodicPolynomialError(
                f"odd cross coefficient alpha[{i},{j}] violates periodicity"
            )
        alpha.append((i, j, c))
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
    alpha.sort()
    beta.sort()
    rows, cols, vals = zip(*alpha) if alpha else ((), (), ())
    brows, bvals = zip(*beta) if beta else ((), ())
    pos = {v: t for t, v in enumerate(sorted({*rows, *cols, *brows}))}
    get = pos.__getitem__
    key = (len(pos), tuple(map(get, rows)), tuple(map(get, cols)), vals, tuple(map(get, brows)), bvals)
    return key, f.n - len(pos)


def _evaluate(q: int, f: QuadraticForm, mod: int, gamma: int, n: int, u: int) -> SumValue:
    """Z_{1/2}(q, f) from the core, times the phase omega_n^(u gamma) when
    gamma != 0 and q per variable that f does not use; mod is the exponent
    modulus xi_exponent_modulus(q)."""
    key, nfree = _prepare(f, mod)
    value, steps = _core(q, *key)
    head: tuple = ()
    if gamma:
        factor = Surd(1, 1, n, u * gamma % n)
        head += (("constant_phase", (gamma,), factor),)
        value = factor * value
    if nfree:
        factor = Surd(q**nfree)
        head += (("free_variables", (nfree,), factor),)
        value = factor * value
    return SumValue(value, head + steps if head else steps)


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
    return SumValue(out.surd, (("minus_convention_rescale", (d + 1,), None),) + out.steps)


def gap2(g: QuadraticForm) -> int:
    """Exact gap(g) = sum over x in {0,1}^n of (-1)^g(x), for quadratic g.

    This is Z(2, g), since omega_2 = -1, so the one evaluator computes it,
    and the integer is read off its Surd.
    """
    return int(eval_gauss_quadratic(2, g).surd.as_rational())


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
