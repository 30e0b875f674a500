"""Holant instances over Z_d: signature grids and tractable evaluators.

A signature grid assigns each vertex a local function (signature) over the
Z_d values of its incident edges; the Holant value sums the product of all
local values over every edge assignment.  Supported signature classes:

  TableSignature    explicit value table (brute force only)
  AffineSignature   lambda * [A x + c = 0] * xi_d^g(x) with periodic g;
                    evaluated in polynomial time by compiling the whole grid
                    into a single half Gauss sum via Fourier indicators
  ProductSignature  products of unary factors and binary equalities,
                    evaluated per equality-connected component;
                    degenerate (pure tensor) signatures are the special case
                    with no equalities

holant_brute enumerates assignments exactly and is the oracle for both fast
paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    one,
    xi_pow,
)
from .errors import AperiodicPolynomialError, BudgetExceededError
from .expsum import check_periodicity, eval_half_gauss_with_convention
from .oracle import term_budget
from .polynomials import QuadraticForm


def _as_cyclo(v) -> CyclotomicNumber:
    if isinstance(v, CyclotomicNumber):
        return v
    return CyclotomicNumber.from_rational(v)


@dataclass(frozen=True)
class TableSignature:
    arity: int
    values: tuple  # length d^arity, row-major in the incident-edge order

    def value(self, xs: tuple[int, ...], d: int, conv: SignConvention) -> CyclotomicNumber:
        idx = 0
        for x in xs:
            idx = idx * d + x
        return _as_cyclo(self.values[idx])


@dataclass(frozen=True)
class AffineSignature:
    """lambda * [A x + c = 0 (mod d)] * xi_d^g(x); rows are (coeffs, const)."""

    arity: int
    lam: CyclotomicNumber
    rows: tuple[tuple[tuple[int, ...], int], ...]
    g: QuadraticForm

    def __post_init__(self):
        if self.g.n != self.arity:
            raise ValueError("quadratic part must use exactly the signature arity")
        for coeffs, _ in self.rows:
            if len(coeffs) != self.arity:
                raise ValueError("constraint row length must equal the arity")

    def value(self, xs: tuple[int, ...], d: int, conv: SignConvention) -> CyclotomicNumber:
        for coeffs, const in self.rows:
            if (sum(c * x for c, x in zip(coeffs, xs)) + const) % d != 0:
                return CyclotomicNumber.zero()
        return self.lam * xi_pow(d, self.g.evaluate(xs), conv)


@dataclass(frozen=True)
class ProductSignature:
    """Product of unary factors (argument position, table) and equalities =2."""

    arity: int
    unary: tuple[tuple[int, tuple], ...] = ()
    equalities: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for pos, _ in self.unary:
            if not (1 <= pos <= self.arity):
                raise ValueError("unary factor position out of range")
        for i, j in self.equalities:
            if not (1 <= i <= self.arity and 1 <= j <= self.arity):
                raise ValueError("equality position out of range")

    def value(self, xs: tuple[int, ...], d: int, conv: SignConvention) -> CyclotomicNumber:
        for i, j in self.equalities:
            if xs[i - 1] != xs[j - 1]:
                return CyclotomicNumber.zero()
        out = one()
        for pos, table in self.unary:
            out = out * _as_cyclo(table[xs[pos - 1]])
        return out


def degenerate(tables: list[tuple]) -> ProductSignature:
    """Tensor product of unary tables: the degenerate class as a data definition."""
    return ProductSignature(
        arity=len(tables),
        unary=tuple((i + 1, tuple(t)) for i, t in enumerate(tables)),
        equalities=(),
    )


@dataclass(frozen=True)
class Vertex:
    edges: tuple[str, ...]
    signature: object

    def __post_init__(self):
        if getattr(self.signature, "arity") != len(self.edges):
            raise ValueError("signature arity must equal the incident edge count")


@dataclass(frozen=True)
class SignatureGrid:
    d: int
    edges: tuple[str, ...]
    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        known = set(self.edges)
        if len(known) != len(self.edges):
            raise ValueError("duplicate edge identifiers")
        for v in self.vertices:
            for e in v.edges:
                if e not in known:
                    raise ValueError(f"vertex references unknown edge {e!r}")


def holant_brute(
    grid: SignatureGrid,
    conv: SignConvention = SignConvention.PLUS,
    budget: int | None = None,
) -> CyclotomicNumber:
    """Exact Holant value by enumerating all d^|E| edge assignments."""
    d = grid.d
    ne = len(grid.edges)
    needed = d**ne
    cap = term_budget(budget)
    if needed > cap:
        raise BudgetExceededError(needed, cap)
    index = {e: i for i, e in enumerate(grid.edges)}
    total = CyclotomicNumber.zero()
    for sigma in itertools.product(range(d), repeat=ne):
        prod = one()
        for v in grid.vertices:
            xs = tuple(sigma[index[e]] for e in v.edges)
            prod = prod * v.signature.value(xs, d, conv)
            if prod.is_zero():
                break
        total = total + prod
    return total


def holant_product(grid: SignatureGrid) -> CyclotomicNumber:
    """Fast path for grids whose signatures are all in the product class.

    Groups edges into equality-connected components; each component carries
    at most d consistent assignments, so the cost is O(d (|E| + |V|)).
    """
    d = grid.d
    parent = {e: e for e in grid.edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for v in grid.vertices:
        if not isinstance(v.signature, ProductSignature):
            raise ValueError("holant_product needs every signature in the product class")
        for i, j in v.signature.equalities:
            union(v.edges[i - 1], v.edges[j - 1])

    unaries: dict[str, list] = {e: [] for e in grid.edges}
    for v in grid.vertices:
        for pos, table in v.signature.unary:
            unaries[find(v.edges[pos - 1])].append(table)
    roots = {find(e) for e in grid.edges}
    total = one()
    for root in sorted(roots):
        comp = CyclotomicNumber.zero()
        for val in range(d):
            w = one()
            for table in unaries[root]:
                w = w * _as_cyclo(table[val])
                if w.is_zero():
                    break
            comp = comp + w
        total = total * comp
        if total.is_zero():
            return total
    return total


def holant_affine(
    grid: SignatureGrid, conv: SignConvention = SignConvention.PLUS
) -> CyclotomicNumber:
    """Fast path for grids whose signatures are all affine.

    Every constraint row is replaced by its Fourier indicator
    (1/d) sum_y omega^(y (A.x + c)), whose cross terms are even by
    construction, so the whole grid compiles into one periodic half Gauss
    sum over |E| + #rows variables, with every xi^g(x) (constants included)
    in its exponent.  The sign convention rescales that exponent, and leaves
    the Fourier terms alone, since omega^(d c) = 1.  Only the lambda that
    are not 1 are multiplied.
    """
    d = grid.d
    edge_var = {e: i + 1 for i, e in enumerate(grid.edges)}
    nxt = len(grid.edges) + 1
    alpha: dict[tuple[int, int], int] = {}
    beta: dict[int, int] = {}
    gamma = 0
    lam = one()
    n_rows = 0

    def bump(i: int, j: int, c: int):
        if i > j:
            i, j = j, i
        alpha[(i, j)] = alpha.get((i, j), 0) + c

    for v in grid.vertices:
        sig = v.signature
        if not isinstance(sig, AffineSignature):
            raise ValueError("holant_affine needs every signature in the affine class")
        if not check_periodicity(d, sig.g):
            raise AperiodicPolynomialError("affine signature with aperiodic quadratic part")
        if sig.lam != 1:
            lam = lam * sig.lam
            if lam.is_zero():
                return CyclotomicNumber.zero()
        local = [edge_var[e] for e in v.edges]
        for (i, j), c in sig.g.alpha.items():
            bump(local[i - 1], local[j - 1], c)
        for i, c in sig.g.beta.items():
            t = local[i - 1]
            beta[t] = beta.get(t, 0) + c
        gamma += sig.g.gamma0
        for coeffs, const in sig.rows:
            y = nxt
            nxt += 1
            n_rows += 1
            for pos, c in enumerate(coeffs):
                if c % d:
                    bump(y, local[pos], 2 * c)
            if const % d:
                beta[y] = beta.get(y, 0) + 2 * const
    phi = QuadraticForm(nxt - 1, alpha, beta, gamma)
    z = eval_half_gauss_with_convention(d, phi, conv).surd
    return lam * z.scale(Fraction(1, d**n_rows)).to_cyclotomic()


# ---------------------------------------------------------------------------
# JSON wire format


def _scalar_from_json(v) -> CyclotomicNumber:
    if isinstance(v, bool):
        raise ValueError("booleans are not signature values")
    if isinstance(v, int):
        return CyclotomicNumber.from_rational(v)
    if isinstance(v, str):
        return CyclotomicNumber.from_rational(Fraction(v))
    if isinstance(v, dict):
        coeffs = {int(k): Fraction(c) for k, c in v.get("coeffs", {}).items()}
        return CyclotomicNumber(int(v["conductor"]), coeffs)
    raise ValueError(f"cannot parse scalar {v!r}")


def _quadratic_from_json(obj, arity: int) -> QuadraticForm:
    alpha = {}
    for k, c in (obj.get("alpha") or {}).items():
        i, j = (int(t) for t in k.split(","))
        if i > j:
            i, j = j, i
        alpha[(i, j)] = int(c)
    beta = {int(k): int(c) for k, c in (obj.get("beta") or {}).items()}
    return QuadraticForm(arity, alpha, beta, int(obj.get("gamma0", 0)))


def signature_from_json(obj, arity: int):
    kind = obj.get("type")
    if kind == "table":
        return TableSignature(arity, tuple(_scalar_from_json(v) for v in obj["values"]))
    if kind == "affine":
        rows_a = obj.get("A") or []
        consts = obj.get("c") or [0] * len(rows_a)
        rows = tuple(
            (tuple(int(x) for x in row), int(cc)) for row, cc in zip(rows_a, consts)
        )
        g = _quadratic_from_json(obj.get("g") or {}, arity)
        lam = _scalar_from_json(obj.get("lambda", 1))
        return AffineSignature(arity, lam, rows, g)
    if kind == "product":
        unary = tuple(
            (int(pos), tuple(_scalar_from_json(v) for v in table))
            for pos, table in (obj.get("unary") or [])
        )
        eqs = tuple((int(i), int(j)) for i, j in (obj.get("equalities") or []))
        return ProductSignature(arity, unary, eqs)
    raise ValueError(f"unknown signature type {kind!r}")


def grid_from_json(obj) -> SignatureGrid:
    d = int(obj["d"])
    edges = tuple(str(e) for e in obj["edges"])
    vertices = []
    for v in obj["vertices"]:
        ve = tuple(str(e) for e in v["edges"])
        vertices.append(Vertex(ve, signature_from_json(v["signature"], len(ve))))
    return SignatureGrid(d, edges, tuple(vertices))
