"""Integer polynomial containers (sparse general polynomials and quadratic
forms) and their text grammar.

Variables are 1-indexed.  A monomial is a sorted tuple of variable indices
with repetition, so x1^2*x2 is (1, 1, 2) and the constant term is ().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class IntPolynomial:
    """Sparse integer-coefficient polynomial in n variables."""

    n: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for mono, c in self.terms.items():
            if c == 0:
                continue
            if any(v < 1 or v > self.n for v in mono):
                raise ValueError(f"monomial {mono} out of range for n={self.n}")
            clean[tuple(sorted(mono))] = clean.get(tuple(sorted(mono)), 0) + c
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c != 0})

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def evaluate(self, xs: Iterable[int], modulus: int | None = None) -> int:
        xs = tuple(xs)
        total = 0
        for mono, c in self.terms.items():
            t = c
            for v in mono:
                t *= xs[v - 1]
            total += t
        return total % modulus if modulus else total

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial(self.n, {m: k * c for m, c in self.terms.items()})

    def as_quadratic(self) -> "QuadraticForm":
        """View as a QuadraticForm; rejects degree > 2."""
        if self.degree() > 2:
            raise ValueError(f"polynomial has degree {self.degree()}, not quadratic")
        alpha: dict[tuple[int, int], int] = {}
        beta: dict[int, int] = {}
        gamma0 = 0
        for mono, c in self.terms.items():
            if len(mono) == 0:
                gamma0 = c
            elif len(mono) == 1:
                beta[mono[0]] = c
            else:
                alpha[(mono[0], mono[1])] = c
        return QuadraticForm(self.n, alpha, beta, gamma0)


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = sum_{i<=j} alpha[i,j] x_i x_j + sum_i beta[i] x_i + gamma0."""

    n: int
    alpha: dict[tuple[int, int], int] = field(default_factory=dict)
    beta: dict[int, int] = field(default_factory=dict)
    gamma0: int = 0

    def __post_init__(self):
        a = {}
        for (i, j), c in self.alpha.items():
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"alpha key ({i},{j}) out of range for n={self.n}")
            if c != 0:
                a[(i, j)] = c
        b = {}
        for i, c in self.beta.items():
            if not (1 <= i <= self.n):
                raise ValueError(f"beta key {i} out of range for n={self.n}")
            if c != 0:
                b[i] = c
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    # -- views ----------------------------------------------------------------

    def a(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.alpha.get((i, j), 0)

    def b(self, i: int) -> int:
        return self.beta.get(i, 0)

    def evaluate(self, xs: Iterable[int], modulus: int | None = None) -> int:
        xs = tuple(xs)
        total = self.gamma0
        for (i, j), c in self.alpha.items():
            total += c * xs[i - 1] * xs[j - 1]
        for i, c in self.beta.items():
            total += c * xs[i - 1]
        return total % modulus if modulus else total

    def scale(self, k: int) -> "QuadraticForm":
        return QuadraticForm(
            self.n,
            {m: k * c for m, c in self.alpha.items()},
            {i: k * c for i, c in self.beta.items()},
            k * self.gamma0,
        )

    def reduce_mod(self, m: int) -> "QuadraticForm":
        return QuadraticForm(
            self.n,
            {k: c % m for k, c in self.alpha.items()},
            {i: c % m for i, c in self.beta.items()},
            self.gamma0 % m,
        )

    def neg(self) -> "QuadraticForm":
        return self.scale(-1)

    def add(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.n != self.n:
            raise ValueError("variable count mismatch")
        a = dict(self.alpha)
        for k, c in other.alpha.items():
            a[k] = a.get(k, 0) + c
        b = dict(self.beta)
        for i, c in other.beta.items():
            b[i] = b.get(i, 0) + c
        return QuadraticForm(self.n, a, b, self.gamma0 + other.gamma0)

    def key(self) -> tuple:
        """Hashable canonical key (used for memo tables)."""
        return (
            self.n,
            tuple(sorted(self.alpha.items())),
            tuple(sorted(self.beta.items())),
            self.gamma0,
        )

    def to_int_polynomial(self) -> IntPolynomial:
        terms: dict[tuple[int, ...], int] = {}
        for (i, j), c in self.alpha.items():
            terms[(i, j)] = c
        for i, c in self.beta.items():
            terms[(i,)] = c
        if self.gamma0:
            terms[()] = self.gamma0
        return IntPolynomial(self.n, terms)


# ---------------------------------------------------------------------------
# polynomial text grammar


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch in ("x", "X"):
            j = i + 1
            while j < len(src) and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolynomialSyntaxError("variable needs an index, e.g. x1", i)
            tokens.append(("var", int(src[i + 1 : j]), i))
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(src: str) -> IntPolynomial:
    """Parse the term grammar: signed products of integers and x<k>[^<p>]."""
    tokens = _tokenize(src)
    terms: dict[tuple[int, ...], int] = {}
    nmax = 0
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(src))

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def parse_factor(coeff: int, mono: list[int]):
        kind, val, at = take()
        if kind == "int":
            return coeff * val, mono
        if kind == "var":
            if val < 1:
                raise PolynomialSyntaxError("variables are 1-indexed", at)
            power = 1
            if peek()[0] == "^":
                take()
                k2, p, at2 = take()
                if k2 != "int":
                    raise PolynomialSyntaxError("exponent must be an integer", at2)
                power = p
            mono = mono + [val] * power
            return coeff, mono
        raise PolynomialSyntaxError("expected an integer or a variable", at)

    first = True
    while pos < len(tokens):
        sign = 1
        kind, _, at = peek()
        if kind in ("+", "-"):
            take()
            sign = -1 if kind == "-" else 1
        elif not first:
            raise PolynomialSyntaxError("terms must be joined by '+' or '-'", at)
        first = False
        coeff, mono = parse_factor(1, [])
        while peek()[0] == "*":
            take()
            coeff, mono = parse_factor(coeff, mono)
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, 0) + sign * coeff
        nmax = max(nmax, max(mono, default=0))
    return IntPolynomial(nmax, terms)


def format_polynomial(p: IntPolynomial) -> str:
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    parts = []
    for mono, c in items:
        factors = []
        counts: dict[int, int] = {}
        for v in mono:
            counts[v] = counts.get(v, 0) + 1
        for v in sorted(counts):
            factors.append(f"x{v}" + (f"^{counts[v]}" if counts[v] > 1 else ""))
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        parts.append(("- " if c < 0 else "+ ") + text)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]
