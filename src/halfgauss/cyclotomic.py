"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every public sum, amplitude and probability in this package is a
CyclotomicNumber, so all cross-checks are exact equality tests with no
tolerances.

Canonical form: a value at conductor N is stored as the residue of its
coefficient polynomial modulo the N-th cyclotomic polynomial Phi_N, i.e. a
sparse map exponent -> rational with exponents below phi(N).  Two values are
equal iff their canonical forms agree after embedding at the lcm of their
conductors.  For a dimension-d workflow the ambient field Q(zeta_{8d}) is
large enough to hold every xi_d phase and every sqrt(d) normalization factor.

The closed-form path carries a smaller value type up to the public
boundary: every Gauss block value, every product of them, every evaluator
result and the amplitudes and marginals built from them is 0 or
r*sqrt(s)*zeta_n^t, a Surd, which multiplies in O(1) integer operations.  It
becomes a CyclotomicNumber only through to_cyclotomic(), at the least
conductor that holds it (`Surd.conductor`).  That conversion sums sqrt(p*)
over Z_p, so it costs O(p) terms for a prime p | s.  `str(Surd)` is the one
closed-form rendering; `pretty` finds it for a CyclotomicNumber.

Values are immutable after construction.  The caches are the only shared
state; insertion is idempotent, so racing computations are harmless.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

from .numtheory import factorize

Rational = Union[int, Fraction]


class SignConvention(Enum):
    """Choice of the square root xi_d of omega_d for even d.

    PLUS uses xi_d = omega_{2d} for even d; MINUS_FOR_EVEN uses
    xi_d = -omega_{2d}.  For odd d both use xi_d = omega_d^{(d+1)/2}.
    """

    PLUS = "plus"
    MINUS_FOR_EVEN = "minus"


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign)."""
    num = num[:]
    dn = len(den) - 1
    lead = den[dn]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j, dj in enumerate(den):
            if dj:
                num[i - dn + j] -= q * dj
    if any(num[:dn]):
        raise ArithmeticError("non-exact polynomial division (remainder)")
    return out


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[tuple[int, int], ...]:
    """Phi_n as a sparse descending tuple of (exponent, coefficient).

    Computed as Phi_rad(x^{n/rad}) where rad is the squarefree radical; the
    radical polynomial is built by the standard substitution/division
    recurrence, so the result is exact and sparse for highly composite n.
    """
    if n == 1:
        return ((1, 1), (0, -1))
    primes = [p for p, _ in factorize(n)]
    f = [-1, 1]  # x - 1 == Phi_1
    rad = 1
    for p in primes:
        rad *= p
        fp = [0] * ((len(f) - 1) * p + 1)
        for i, c in enumerate(f):
            fp[i * p] = c
        f = _poly_divexact(fp, f)
    stretch = n // rad
    terms = [(i * stretch, c) for i, c in enumerate(f) if c]
    terms.sort(reverse=True)
    return tuple(terms)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    """Euler's totient of n, the degree of Phi_n, without building Phi_n."""
    out = 1
    for p, k in factorize(n):
        out *= (p - 1) * p ** (k - 1)
    return out


def _reduce(coeffs: dict[int, Rational], n: int) -> dict[int, Rational]:
    """Reduce exponents modulo Phi_n; input exponents must lie in [0, n)."""
    deg = _phi_degree(n)
    top = max(coeffs, default=-1)
    if top < deg:
        return {e: c for e, c in coeffs.items() if c != 0}
    phi = _cyclotomic_poly(n)
    lower = phi[1:]  # monic leading term dropped
    if top > 4 * len(coeffs) and top > 1024:
        return _reduce_sparse(coeffs, deg, lower)
    dense: list[Rational] = [0] * (top + 1)
    for e, c in coeffs.items():
        dense[e] = c
    for i in range(top, deg - 1, -1):
        c = dense[i]
        if c == 0:
            continue
        dense[i] = 0
        base = i - deg
        for e, co in lower:
            dense[base + e] -= c * co
    return {e: c for e, c in enumerate(dense[:deg]) if c != 0}


def _reduce_sparse(coeffs: dict[int, Rational], deg: int, lower) -> dict[int, Rational]:
    """Synthetic division tracking only nonzero exponents (huge conductors)."""
    import heapq

    work = dict(coeffs)
    heap = [-e for e in work if e >= deg]
    heapq.heapify(heap)
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e, 0)
        if c == 0:
            continue
        base = e - deg
        for t, co in lower:
            e2 = base + t
            prev = work.get(e2, 0)
            nxt = prev - c * co
            if nxt == 0:
                work.pop(e2, None)
            else:
                if prev == 0 and e2 >= deg:
                    heapq.heappush(heap, -e2)
                work[e2] = nxt
    return {e: c for e, c in work.items() if c != 0}


class CyclotomicNumber:
    """An exact element of Q(zeta_N), stored in canonical reduced form."""

    __slots__ = ("_n", "_c", "_ec")

    def __init__(self, conductor: int, coeffs: Mapping[int, Rational], *, _trusted: bool = False):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self._n = conductor
        self._ec = None  # per-instance embed memo; values are immutable
        if _trusted:
            self._c = dict(coeffs)
        else:
            wrapped: dict[int, Rational] = {}
            for e, c in coeffs.items():
                if c != 0:
                    e %= conductor
                    wrapped[e] = wrapped.get(e, 0) + c
            self._c = _reduce({e: c for e, c in wrapped.items() if c != 0}, conductor)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "CyclotomicNumber":
        return CyclotomicNumber(1, {}, _trusted=True)

    @staticmethod
    def from_rational(r: Rational) -> "CyclotomicNumber":
        if r == 0:
            return CyclotomicNumber.zero()
        return CyclotomicNumber(1, {0: r}, _trusted=True)

    # -- basic accessors ------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def coeffs(self) -> dict[int, Rational]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def as_rational(self) -> Fraction | None:
        """The value as a rational, or None when it has irrational support."""
        if not self._c:
            return Fraction(0)
        if len(self._c) == 1 and 0 in self._c:
            return Fraction(self._c[0])
        return None

    # -- field embedding ------------------------------------------------------

    def embed(self, m: int) -> "CyclotomicNumber":
        """The same number viewed in Q(zeta_m); m must be a multiple of the conductor."""
        if m == self._n:
            return self
        if m % self._n != 0:
            raise ValueError(f"cannot embed conductor {self._n} into {m}")
        if self._ec is None:
            self._ec = {}
        hit = self._ec.get(m)
        if hit is None:
            k = m // self._n
            hit = CyclotomicNumber(m, {e * k: c for e, c in self._c.items()})
            self._ec[m] = hit
        return hit

    def _common(self, other: "CyclotomicNumber") -> tuple["CyclotomicNumber", "CyclotomicNumber", int]:
        if self._n == other._n:
            return self, other, self._n
        m = self._n * other._n // math.gcd(self._n, other._n)
        return self.embed(m), other.embed(m), m

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        a, b, m = self._common(other)
        out = dict(a._c)
        for e, c in b._c.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return CyclotomicNumber(m, out, _trusted=True)

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        a, b, m = self._common(other)
        out = dict(a._c)
        for e, c in b._c.items():
            s = out.get(e, 0) - c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return CyclotomicNumber(m, out, _trusted=True)

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self._n, {e: -c for e, c in self._c.items()}, _trusted=True)

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        if self.is_zero() or other.is_zero():
            return CyclotomicNumber.zero()
        a, b, m = self._common(other)
        if len(b._c) == 1 or len(a._c) == 1:
            # monomial factor: exponent shift is a bijection, no collisions
            if len(b._c) != 1:
                a, b = b, a
            ((t, c0),) = b._c.items()
            if t == 0:
                return CyclotomicNumber(m, {e: c * c0 for e, c in a._c.items()}, _trusted=True)
            deg = _phi_degree(m)
            out = {}
            overflow = False
            for e, c in a._c.items():
                e += t
                if e >= m:
                    e -= m
                if e >= deg:
                    overflow = True
                out[e] = c * c0
            if overflow:
                out = _reduce(out, m)
            return CyclotomicNumber(m, out, _trusted=True)
        out: dict[int, Rational] = {}
        for e1, c1 in a._c.items():
            for e2, c2 in b._c.items():
                e = e1 + e2
                if e >= m:
                    e -= m
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return CyclotomicNumber(m, _reduce(out, m), _trusted=True)

    def scale(self, r: Rational) -> "CyclotomicNumber":
        if r == 0 or self.is_zero():
            return CyclotomicNumber.zero()
        return CyclotomicNumber(self._n, {e: c * r for e, c in self._c.items()}, _trusted=True)

    def conj(self) -> "CyclotomicNumber":
        """Complex conjugate: zeta^j -> zeta^{N-j}."""
        return CyclotomicNumber(self._n, {(self._n - e) % self._n: c for e, c in self._c.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self == CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b, _ = self._common(other)
        return a._c == b._c

    __hash__ = None  # type: ignore[assignment]  # equality spans conductors

    # -- rendering ------------------------------------------------------------

    def approx(self) -> complex:
        """Floating-point rendering; display only, never used in comparisons.

        Per-term error is at the double-precision level; heavy cancellation
        between terms can inflate the relative error beyond the nominal 1e-12.
        The result is finite: a value beyond the float range raises
        OverflowError (`to_json_dict` then writes a binary exponent).
        """
        z, e = self._scaled_approx()
        return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))

    def _scaled_approx(self) -> tuple[complex, int]:
        """(z, e) with the value about z * 2^e: each term is scaled by 2^(-e)
        exactly before it becomes a float, and is then below 2 in size."""
        e = max((c.numerator.bit_length() - c.denominator.bit_length() for c in self._c.values()), default=0)
        w = 2.0 * math.pi / self._n
        z = 0j
        for k, c in self._c.items():
            v = (c.numerator << max(-e, 0)) / (c.denominator << max(e, 0))
            z += complex(v * math.cos(w * k), v * math.sin(w * k))
        return z, e

    def __repr__(self) -> str:
        if self.is_zero():
            return "Cyclo(0)"
        terms = ", ".join(f"{e}: {c}" for e, c in sorted(self._c.items()))
        return f"Cyclo(N={self._n}, {{{terms}}})"

    def text(self) -> str:
        """Exact human-readable sum of zeta-powers."""
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self._c.items()):
            if e == 0:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(f"ζ_{self._n}^{e}")
            else:
                parts.append(f"{c}·ζ_{self._n}^{e}")
        return " + ".join(parts)


def root_of_unity(n: int, t: int) -> CyclotomicNumber:
    """zeta_n^t in canonical form."""
    return _root_cached(n, t % n)


@lru_cache(maxsize=1 << 14)
def _root_cached(n: int, t: int) -> CyclotomicNumber:
    return CyclotomicNumber(n, {t: 1})


def one() -> CyclotomicNumber:
    return CyclotomicNumber.from_rational(1)


def xi_exponent_modulus(d: int) -> int:
    """Modulus at which xi_d exponents may be reduced (xi^mod = 1)."""
    return d if d % 2 == 1 else 2 * d


def _xi(d: int, conv: SignConvention = SignConvention.PLUS) -> tuple[int, int]:
    """(m, u) with xi_d = zeta_m^u: omega_d^((d+1)/2) for odd d, and
    omega_2d or -omega_2d = omega_2d^(d+1) for even d by the convention."""
    if d % 2 == 1:
        return d, (d + 1) // 2
    return 2 * d, d + 1 if conv is SignConvention.MINUS_FOR_EVEN else 1


def xi_pow(d: int, e: int, conv: SignConvention = SignConvention.PLUS) -> CyclotomicNumber:
    """xi_d^e, where xi_d is the chosen square root of omega_d with xi^(d^2) = 1."""
    m, u = _xi(d, conv)
    return root_of_unity(m, u * e)


class Surd:
    """An exact r*sqrt(s)*zeta_n^t: r rational, s a squarefree positive integer.

    Zero is r = 0, s = n = 1; otherwise t/n is in lowest terms, n != 2 (mod 4)
    (zeta_2m^t = -zeta_m^((t+m)/2) for odd m, t) and r > 0 when 4 | n
    (-zeta_n^t = zeta_n^(t+n/2)): two Surds are equal iff (r, s, n, t) agree.
    """

    __slots__ = ("r", "s", "n", "t")

    def __init__(self, r: Rational, s: int = 1, n: int = 1, t: int = 0):
        t %= n
        g = math.gcd(t, n)
        n //= g
        t //= g
        if r == 0:
            s, n, t = 1, 1, 0
        elif n % 4 == 2:
            r, n, t = -r, n // 2, (t + n // 2) // 2 % (n // 2)
        elif r < 0 and n % 4 == 0:
            r, t = -r, (t + n // 2) % n
        self.r, self.s, self.n, self.t = r, s, n, t

    def is_zero(self) -> bool:
        return self.r == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return (self.r, self.s, self.n, self.t) == (other.r, other.s, other.n, other.t)

    def __hash__(self) -> int:
        return hash((self.r, self.s, self.n, self.t))

    def __repr__(self) -> str:
        return f"Surd({self.r}, {self.s}, {self.n}, {self.t})"

    def __str__(self) -> str:
        """a*sqrt(s)*zeta_m^u with the angle 2 pi u/m in [0, pi) and the sign
        in a, e.g. -zeta_10 for zeta_5^3."""
        a, phase = self.r, Fraction(self.t, self.n)
        if phase >= Fraction(1, 2):
            a, phase = -a, phase - Fraction(1, 2)
        u, m = phase.numerator, phase.denominator
        parts = [f"√{self.s}"] if self.s > 1 else []
        if u:
            parts.append(f"ζ_{m}^{u}" if u > 1 else f"ζ_{m}")
        if not parts:
            return str(a)
        return ("-" if a == -1 else "" if a == 1 else f"{a}·") + "·".join(parts)

    def as_rational(self) -> Fraction | None:
        """The value as a rational, or None when it is irrational."""
        return Fraction(self.r) if self.s == 1 and self.n == 1 else None

    def conductor(self) -> int:
        """The least N with the value in Q(zeta_N), where to_cyclotomic() puts
        it: the lcm of the conductor of b = sqrt(s) zeta_8^(-e) (the product of
        the odd primes p | s, times 4 when s is even) and that of the phase
        left (`_unrooted`)."""
        return math.lcm(2 * self.s if self.s % 2 == 0 else self.s, self._unrooted().n)

    def _unrooted(self) -> "Surd":
        """r zeta_n^t zeta_8^e, where sqrt(s) = b zeta_8^e with b =
        _sqrt_base(s): sqrt(2) = (1 + i) zeta_8^(-1), and sqrt(p) = sqrt(p*)
        i^(-1) for a prime p = 3 (mod 4)."""
        e = -sum(p % 4 - 1 for p, _ in factorize(self.s))
        return Surd(self.r, 1, self.n, self.t) * Surd(1, 1, 8, e)

    def scale(self, c: Rational) -> "Surd":
        return Surd(self.r * c, self.s, self.n, self.t)

    def __mul__(self, other: "Surd") -> "Surd":
        """gcd(s1, s2) leaves the root; the phase goes to lcm(n1, n2)."""
        g = math.gcd(self.s, other.s)
        n1, n2 = self.n, other.n
        n = n1 * n2 // math.gcd(n1, n2)
        t = self.t * (n // n1) + other.t * (n // n2)
        return Surd(self.r * other.r * g, self.s // g * (other.s // g), n, t)

    def to_cyclotomic(self) -> "CyclotomicNumber":
        return _surd_value(self.r, self.s, self.n, self.t)


@lru_cache(maxsize=1 << 10)
def _sqrt_base(s: int) -> CyclotomicNumber:
    """b with sqrt(s) = b zeta_8^e (`Surd._unrooted`) for squarefree s > 1: b
    is 1 + i = sqrt(2) zeta_8 if s is even, times sqrt(p*) = sqrt(p)
    i^[p = 3 mod 4] per odd prime p | s, summed as the Gauss sum of
    zeta_p^(x^2) over Z_p (the one place a Gauss sum is summed term by term)."""
    out = None
    for p, _ in factorize(s):
        if p == 2:
            f = CyclotomicNumber(4, {0: 1, 1: 1})
        else:
            f = CyclotomicNumber(p, {0: 1, **{x * x % p: 2 for x in range(1, (p + 1) // 2)}})
        out = f if out is None else out * f
    return out


@lru_cache(maxsize=1 << 12)
def _surd_value(r: Rational, s: int, n: int, t: int) -> CyclotomicNumber:
    """r sqrt(s) zeta_n^t at its least conductor: sqrt(s) becomes _sqrt_base(s)
    and the phase that is left is normalised like a Surd's."""
    if s == 1:
        return root_of_unity(n, t).scale(r)
    x = Surd(r, s, n, t)._unrooted()
    return (_sqrt_base(s) * root_of_unity(x.n, x.t)).scale(x.r)


def _sqrt(s: int) -> Surd:
    """The positive square root of a positive integer s."""
    whole = free = 1
    for p, k in factorize(s):
        whole *= p ** (k // 2)
        free *= p ** (k % 2)
    return Surd(whole, free)


def sqrt_int(s: int) -> CyclotomicNumber:
    """Exact positive square root of a positive integer, as a converted Surd."""
    if s < 1:
        raise ValueError("sqrt_int needs a positive integer")
    return _sqrt(s).to_cyclotomic()


def _inv_sqrt_d(d: int, h: int) -> Surd:
    """d^(-h/2) = sqrt(d)^(h mod 2) / d^ceil(h/2)."""
    return (_sqrt(d) if h % 2 else Surd(1)).scale(Fraction(1, d ** ((h + 1) // 2)))


def inv_sqrt_d_power(d: int, h: int) -> CyclotomicNumber:
    """Exact d^(-h/2), i.e. 1/sqrt(d)^h."""
    return _inv_sqrt_d(d, h).to_cyclotomic()


def _from_counts(m: int, u: int, counts: Iterable[int] | Mapping[int, int]) -> CyclotomicNumber:
    """Sum_j counts[j] * zeta_m^(u j), for a sequence indexed by j or a
    mapping j -> count; the coefficients are stored as Python ints."""
    acc: dict[int, Rational] = {}
    for j, c in counts.items() if isinstance(counts, Mapping) else enumerate(counts):
        if c:
            e = u * j % m
            acc[e] = acc.get(e, 0) + int(c)
    return CyclotomicNumber(m, acc)


def from_xi_counts(
    d: int,
    counts: Iterable[int] | Mapping[int, int],
    conv: SignConvention = SignConvention.PLUS,
) -> CyclotomicNumber:
    """Sum_j counts[j] * xi_d^j, for counts indexed by exponent (a sequence or
    a mapping)."""
    return _from_counts(*_xi(d, conv), counts)


def from_omega_counts(b: int, counts: Iterable[int] | Mapping[int, int]) -> CyclotomicNumber:
    """Sum_j counts[j] * omega_b^j (a sequence or a mapping)."""
    return _from_counts(b, 1, counts)


def pretty(x: CyclotomicNumber) -> str | None:
    """x as a*sqrt(s)*zeta_m^u in the form of `Surd.__str__`, the same at every
    conductor, or None when it has no such form.

    The phase t is read from the float rendering as an 8N-th root of unity,
    N = x.conductor; every squarefree s | 2N with sqrt(s) zeta_8N^t in
    Q(zeta_N) is then tried exactly, so a wrong reading can only give None.
    A one-term x is read exactly, since floats cannot resolve its phase at
    conductors of about 2^53 and above.
    """
    r = x.as_rational()
    if r is not None:
        return str(r)
    n = x.conductor
    if len(x._c) == 1:
        ((e, c),) = x._c.items()
        return str(Surd(c, 1, n, e))
    z, _ = x._scaled_approx()
    t = round(math.atan2(z.imag, z.real) * 4 * n / math.pi) % (8 * n)
    divisors = [1]
    for p, _ in factorize(2 * n):
        divisors += [s * p for s in divisors]
    for s in divisors:
        root = Surd(1, s, 8 * n, t)
        if n % root.conductor() == 0:
            y = root.to_cyclotomic().embed(n)
            e, c = next(iter(y._c.items()))
            a = Fraction(x._c.get(e, 0)) / c
            if y.scale(a) == x:
                return str(root.scale(a))
    return None


def to_json_dict(x: CyclotomicNumber, approx_only: bool = False) -> dict:
    """JSON rendering per the documented wire format.

    Rational values are rendered at conductor 1 so that equal values coming
    from different evaluation routes serialize identically.  `approx` holds
    finite floats; a value beyond the float range gets the pair scaled by
    2^(-exp2) and the key "exp2".
    """
    r = x.as_rational()
    if r is not None:
        x = CyclotomicNumber.from_rational(r)
    z, e = x._scaled_approx()
    try:
        approx = {"re": math.ldexp(z.real, e), "im": math.ldexp(z.imag, e)}
    except OverflowError:
        approx = {"re": z.real, "im": z.imag, "exp2": e}
    out: dict = {"approx": approx}
    if not approx_only:
        out["conductor"] = x.conductor
        out["coeffs"] = {str(e): str(Fraction(c)) for e, c in sorted(x.coeffs.items())}
        p = pretty(x)
        if p is not None:
            out["pretty"] = p
        out["text"] = x.text()
    return out
