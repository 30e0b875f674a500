"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every sum, amplitude and probability in this package is a CyclotomicNumber,
so all cross-checks are exact equality tests with no tolerances.

Canonical form: a value at conductor N is stored as the residue of its
coefficient polynomial modulo the N-th cyclotomic polynomial Phi_N, i.e. a
sparse map exponent -> rational with exponents below phi(N).  Two values are
equal iff their canonical forms agree after embedding at the lcm of their
conductors.  For a dimension-d workflow the ambient field Q(zeta_{8d}) is
large enough to hold every xi_d phase and every sqrt(d) normalization factor.

Values are immutable after construction.  The Phi_N cache is the only shared
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
    return _cyclotomic_poly(n)[0][0]


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
        """
        re = 0.0
        im = 0.0
        w = 2.0 * math.pi / self._n
        for e, c in self._c.items():
            try:
                fc = float(c)
            except OverflowError:
                fc = math.inf if c > 0 else -math.inf
            re += fc * math.cos(w * e)
            im += fc * math.sin(w * e)
        return complex(re, im)

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


def xi_exponent_modulus(d: int, conv: SignConvention = SignConvention.PLUS) -> int:
    """Modulus at which xi_d exponents may be reduced (xi^mod = 1)."""
    return d if d % 2 == 1 else 2 * d


def xi_pow(d: int, e: int, conv: SignConvention = SignConvention.PLUS) -> CyclotomicNumber:
    """xi_d^e, where xi_d is the chosen square root of omega_d with xi^(d^2) = 1."""
    if d == 1:
        return one()
    if d % 2 == 1:
        return root_of_unity(d, ((d + 1) // 2) * e)
    if conv is SignConvention.PLUS:
        return root_of_unity(2 * d, e)
    return root_of_unity(2 * d, (d + 1) * e)


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CyclotomicNumber:
    if p == 2:
        return CyclotomicNumber(8, {1: 1, 3: -1})
    # quadratic Gauss sum at conductor p, fixed up by a factor of zeta_4^3
    # when p = 3 (mod 4); summed directly so this stays independent of the
    # closed-form evaluator that it underpins.
    acc: dict[int, int] = {}
    for x in range(p):
        e = (x * x) % p
        acc[e] = acc.get(e, 0) + 1
    g = CyclotomicNumber(p, acc)
    if p % 4 == 1:
        return g
    return g * root_of_unity(4, 3)


@lru_cache(maxsize=None)
def sqrt_int(s: int) -> CyclotomicNumber:
    """Exact positive square root of a positive integer, built from Gauss sums."""
    if s < 1:
        raise ValueError("sqrt_int needs a positive integer")
    whole = 1
    out = one()
    for p, k in factorize(s):
        whole *= p ** (k // 2)
        if k % 2:
            out = out * _sqrt_prime(p)
    return out.scale(whole)


def inv_sqrt_d_power(d: int, h: int) -> CyclotomicNumber:
    """Exact d^(-h/2), i.e. 1/sqrt(d)^h."""
    if h % 2 == 0:
        return CyclotomicNumber.from_rational(Fraction(1, d ** (h // 2)))
    return sqrt_int(d).scale(Fraction(1, d ** ((h + 1) // 2)))


def from_xi_counts(
    d: int,
    counts: Iterable[int],
    conv: SignConvention = SignConvention.PLUS,
) -> CyclotomicNumber:
    """Sum_j counts[j] * xi_d^j, for counts indexed by exponent."""
    if d % 2 == 1:
        half = (d + 1) // 2
        acc: dict[int, Rational] = {}
        for j, c in enumerate(counts):
            if c:
                e = (half * j) % d
                acc[e] = acc.get(e, 0) + c
        return CyclotomicNumber(d, acc)
    n = 2 * d
    acc = {}
    for j, c in enumerate(counts):
        if c:
            e = ((d + 1) * j) % n if conv is SignConvention.MINUS_FOR_EVEN else j % n
            acc[e] = acc.get(e, 0) + c
    return CyclotomicNumber(n, acc)


def from_omega_counts(b: int, counts: Iterable[int]) -> CyclotomicNumber:
    """Sum_j counts[j] * omega_b^j."""
    acc: dict[int, Rational] = {}
    for j, c in enumerate(counts):
        if c:
            e = j % b
            acc[e] = acc.get(e, 0) + c
    return CyclotomicNumber(b, acc)


def _squarefree_divisors(n: int) -> list[int]:
    divs = [1]
    for p, _ in factorize(n):
        divs += [d * p for d in divs]
    return divs


def pretty(x: CyclotomicNumber) -> str | None:
    """Render x as a*sqrt(s)*zeta_N^t when it exactly matches that pattern."""
    if x.is_zero():
        return "0"
    r = x.as_rational()
    if r is not None:
        return str(r)
    n = x.conductor
    for s in _squarefree_divisors(2 * n):
        root = sqrt_int(s)
        u = x * root.conj() if s > 1 else x
        c = u.coeffs
        if len(c) != 1:
            continue
        (t, a), = c.items()
        a = Fraction(a, s)
        nn = u.conductor
        if t:
            g = math.gcd(t, nn)
            t //= g
            nn //= g
        parts = []
        if a == -1:
            parts.append("-")
        elif a != 1:
            parts.append(f"{a}·")
        if s > 1:
            parts.append(f"√{s}")
        if t != 0:
            if s > 1:
                parts.append("·")
            parts.append(f"ζ_{nn}^{t}" if t != 1 else f"ζ_{nn}")
        if not parts or parts == ["-"]:
            parts.append("1")
        return "".join(parts)
    return None


def to_json_dict(x: CyclotomicNumber, approx_only: bool = False) -> dict:
    """JSON rendering per the documented wire format.

    Rational values are rendered at conductor 1 so that equal values coming
    from different evaluation routes serialize identically.
    """
    r = x.as_rational()
    if r is not None:
        x = CyclotomicNumber.from_rational(r)
    z = x.approx()
    out: dict = {"approx": {"re": z.real, "im": z.imag}}
    if not approx_only:
        out["conductor"] = x.conductor
        out["coeffs"] = {str(e): str(Fraction(c)) for e, c in sorted(x.coeffs.items())}
        p = pretty(x)
        if p is not None:
            out["pretty"] = p
        out["text"] = x.text()
    return out
