"""Executable demonstrations of the tractability boundary.

Covers the Z_{1/2^k}(2, f) family (Boolean domain, phases at omega_{2^(k+1)}):
the divisibility test and reduction that make the periodic quadratic cells
polynomial, the linear-factorization fast path, the degree-3 zero-counting
reduction through diagonal-circuit amplitudes, the {H, Z, CS} gadget
identities, and a runtime evidence table for the classification of cells.
Everything outside the tractable cells runs by explicit brute force and is
marked as such in the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .clifford import Circuit, Gate, statevector
from .cyclotomic import (
    CyclotomicNumber,
    Surd,
    one,
    root_of_unity,
    xi_exponent_modulus,
    xi_pow,
)
from .expsum import check_periodicity, eval_half_gauss, gap2
from .oracle import SumDescriptor, brute_sum
from .polynomials import IntPolynomial, QuadraticForm


@dataclass(frozen=True)
class TwoPowerSum:
    """Z_{1/2^k}(2, f) = sum over x in Z_2^n of omega_{2^(k+1)}^f(x)."""

    k: int
    poly: IntPolynomial

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")


@dataclass(frozen=True)
class TwoPowerResult:
    value: CyclotomicNumber
    path: str  # "linear-factorization" | "gap-recursion" | "periodic-reduction" | "brute-force"


def check_periodicity_2k(f: QuadraticForm, k: int) -> bool:
    """Divisibility conditions making omega_{2^(k+1)}^f well-defined on Z_2^n.

    Requires 2^(k-1) | alpha_ii, 2^k | alpha_ij (i < j) and 2^k | beta_i.
    """
    if k < 1:
        raise ValueError("the divisibility test needs k >= 1")
    for (i, j), c in f.alpha.items():
        need = 1 << (k - 1) if i == j else 1 << k
        if c % need:
            return False
    return all(c % (1 << k) == 0 for c in f.beta.values())


def eval_two_power(s: TwoPowerSum, budget: int | None = None) -> TwoPowerResult:
    """Evaluate Z_{1/2^k}(2, f): fast paths where the classification allows,
    explicit brute force (marked) everywhere else."""
    k = s.k
    phase_mod = 1 << (k + 1)
    deg = s.poly.degree()
    if deg <= 1:
        # the sum factors per variable: omega^gamma * prod_i (1 + omega^beta_i)
        out = one()
        gamma = s.poly.terms.get((), 0)
        if gamma % phase_mod:
            out = out * root_of_unity(phase_mod, gamma)
        for i in range(1, s.poly.n + 1):
            b = s.poly.terms.get((i,), 0)
            out = out * (one() + root_of_unity(phase_mod, b))
            if out.is_zero():
                break
        return TwoPowerResult(out, "linear-factorization")
    if deg == 2:
        f = s.poly.as_quadratic()
        if k == 0:
            return TwoPowerResult(
                CyclotomicNumber.from_rational(gap2(f)), "gap-recursion"
            )
        if check_periodicity_2k(f, k):
            # strip the constant as an omega_{2^(k+1)} phase, then divide the
            # rest by 2^(k-1): the quotient satisfies the d = 2 periodicity
            shift = 1 << (k - 1)
            reduced = QuadraticForm(
                f.n,
                {key: c // shift for key, c in f.alpha.items()},
                {i: c // shift for i, c in f.beta.items()},
                0,
            )
            value = eval_half_gauss(2, reduced).surd * Surd(1, 1, phase_mod, f.gamma0)
            return TwoPowerResult(value.to_cyclotomic(), "periodic-reduction")
    value = brute_sum(SumDescriptor(2, phase_mod, s.poly), budget)
    return TwoPowerResult(value, "brute-force")


# ---------------------------------------------------------------------------
# degree-3 sums through diagonal-circuit amplitudes

DIAGONAL_KINDS = {"Z", "G", "CZ", "CCZ"}


def diagonal_phase_poly(circuit: Circuit) -> IntPolynomial:
    """The xi-exponent polynomial of a diagonal circuit over {Z, G, CZ, CCZ}."""
    terms: dict[tuple[int, ...], int] = {}

    def bump(mono: tuple[int, ...], c: int):
        terms[mono] = terms.get(mono, 0) + c

    for g in circuit.gates:
        if g.kind not in DIAGONAL_KINDS:
            raise ValueError(f"{g.kind} is not a diagonal demo gate")
        t = tuple(sorted(x + 1 for x in g.targets))
        if g.kind == "Z":
            bump(t, 2 * g.repeat)
        elif g.kind == "G":
            bump((t[0], t[0]), g.repeat)
        else:  # CZ / CCZ carry omega = xi^2 phases
            bump(t, 2 * g.repeat)
    return IntPolynomial(circuit.m, terms)


def degree3_zero_count_demo(circuit: Circuit, target: int, budget: int | None = None) -> int:
    """Count solutions of f_D = target via the inverse-Fourier amplitude formula.

    Computes <0|(F^dag)^n D^j F^n|0> for j up to the xi-exponent modulus with
    the exact statevector oracle (no efficiency claim), then inverts the
    Fourier relation; the result must match direct solution counting over
    the cubic phase polynomial.
    """
    d = circuit.d
    n = circuit.m
    f = diagonal_phase_poly(circuit)
    mod = xi_exponent_modulus(d)
    front = tuple(Gate("F", (r,)) for r in range(n))
    back = tuple(Gate("FDAG", (r,)) for r in range(n))
    acc = CyclotomicNumber.zero()
    zero_in = tuple(0 for _ in range(n))
    for j in range(mod):
        cj = Circuit(d, n, front + circuit.gates * j + back)
        amp0 = statevector(cj, zero_in, budget=budget)[0]
        acc = acc + xi_pow(d, -j * target) * amp0
    total = acc.scale(Fraction(d**n, mod))
    r = total.as_rational()
    if r is None or r.denominator != 1 or r < 0:
        raise ArithmeticError(f"count came out non-integral: {r}")
    return int(r)


# ---------------------------------------------------------------------------
# {H, Z, CS} gadget identities (qubit-only, exact unitaries)


def _unitary(circuit: Circuit):
    d, m = circuit.d, circuit.m
    cols = []
    for idx in range(d**m):
        a = tuple((idx // d ** (m - 1 - r)) % d for r in range(m))
        cols.append(statevector(circuit, a))
    return cols  # cols[input][output]


def _unitary_eq(c1: Circuit, c2: Circuit) -> bool:
    u1, u2 = _unitary(c1), _unitary(c2)
    return all(x == y for col1, col2 in zip(u1, u2) for x, y in zip(col1, col2))


def _ccz_gadget_gates(i: int, j: int, k: int) -> tuple[Gate, ...]:
    """CCZ(i,j,k) over {H, CS} plus CX, from the two-control phase identity."""
    return (
        Gate("CS", (j, k)),
        Gate("CX", (i, j)),
        Gate("CS", (j, k), 3),  # CS^3 = C(S^dag)
        Gate("CX", (i, j)),
        Gate("CS", (i, k)),
    )


def _rewrite_to_hzcs(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    out: list[Gate] = []
    for g in gates:
        for _ in range(g.repeat):
            if g.kind in ("H", "Z", "CS"):
                out.append(Gate(g.kind, g.targets))
            elif g.kind == "CZ":
                out += [Gate("CS", g.targets)] * 2
            elif g.kind == "CX":
                i, j = g.targets
                out += [Gate("H", (j,))] + [Gate("CS", (i, j))] * 2 + [Gate("H", (j,))]
            elif g.kind == "CCZ":
                out.extend(_rewrite_to_hzcs(_ccz_gadget_gates(*g.targets)))
            else:
                raise ValueError(f"cannot rewrite {g.kind} over {{H, Z, CS}}")
    return tuple(out)


def verify_gadgets(seed: int = 0) -> dict[str, bool]:
    """Exact matrix checks of the {H, Z, CS} gadget identities."""
    import random

    report: dict[str, bool] = {}
    report["CZ = (CS)^2"] = _unitary_eq(
        Circuit(2, 2, (Gate("CS", (0, 1), 2),)),
        Circuit(2, 2, (Gate("CZ", (0, 1)),)),
    )
    # C(S^dag) as an explicit diagonal: diag(1, 1, 1, -i)
    cs3 = _unitary(Circuit(2, 2, (Gate("CS", (0, 1), 3),)))
    want = [one(), one(), one(), root_of_unity(4, 3)]
    report["C(S^dag) = (CS)^3"] = all(
        cs3[i][j] == (want[i] if i == j else CyclotomicNumber.zero())
        for i in range(4)
        for j in range(4)
    )
    report["CX_12 = H_2 CZ_12 H_2"] = _unitary_eq(
        Circuit(2, 2, (Gate("H", (1,)), Gate("CZ", (0, 1)), Gate("H", (1,)))),
        Circuit(2, 2, (Gate("CX", (0, 1)),)),
    )
    report["CCZ two-control gadget"] = _unitary_eq(
        Circuit(2, 3, _ccz_gadget_gates(0, 1, 2)),
        Circuit(2, 3, (Gate("CCZ", (0, 1, 2)),)),
    )
    rng = random.Random(seed)
    ok = True
    for _ in range(5):
        gates = []
        for _ in range(rng.randrange(1, 8)):
            kind = rng.choice(["H", "Z", "CZ", "CCZ"])
            if kind in ("H", "Z"):
                gates.append(Gate(kind, (rng.randrange(3),)))
            elif kind == "CZ":
                gates.append(Gate(kind, tuple(rng.sample(range(3), 2))))
            else:
                gates.append(Gate(kind, tuple(rng.sample(range(3), 3))))
        c = Circuit(2, 3, tuple(gates))
        rewritten = Circuit(2, 3, _rewrite_to_hzcs(c.gates))
        if not _unitary_eq(c, rewritten):
            ok = False
    report["random {H,Z,CZ,CCZ} circuit over {H,Z,CS}"] = ok
    return report


# ---------------------------------------------------------------------------
# classification evidence


def _random_two_power_instance(cell: str, n: int, k: int, rng) -> TwoPowerSum:
    terms: dict[tuple[int, ...], int] = {}
    phase_mod = 1 << (k + 1)
    if cell == "deg1":
        for i in range(1, n + 1):
            terms[(i,)] = rng.randrange(phase_mod)
    elif cell == "deg2-periodic":
        for i in range(1, n + 1):
            terms[(i, i)] = (1 << max(k - 1, 0)) * rng.randrange(4)
            if i < n:
                terms[(i, i + 1)] = (1 << k) * rng.randrange(2)
            terms[(i,)] = terms.get((i,), 0) + (1 << k) * rng.randrange(2)
    elif cell == "deg2-aperiodic":
        for i in range(1, n + 1):
            terms[(i, i)] = rng.randrange(phase_mod)
        for i in range(1, n):
            terms[(i, i + 1)] = rng.randrange(phase_mod) | 1
    elif cell == "deg3":
        for i in range(1, n - 1):
            terms[(i, i + 1, i + 2)] = rng.randrange(phase_mod) | 1
        for i in range(1, n + 1):
            terms[(i, i)] = rng.randrange(phase_mod)
    else:
        raise ValueError(cell)
    return TwoPowerSum(k, IntPolynomial(n, terms))


def classification_evidence(max_n: int, seed: int = 0, budget: int | None = None) -> list[dict]:
    """Run a representative instance per classification cell, with timing.

    This is evidence of the implemented tractable/brute boundary, not a
    hardness proof: tractable cells must come back on a fast path, the other
    cells run by explicit enumeration.
    """
    import random

    if max_n > 20:
        raise ValueError("max_n is capped at 20")
    rng = random.Random(seed)
    brute_n = min(max_n, 18)
    cells = [
        ("periodic", "deg1", 1, max_n, "linear-factorization"),
        ("periodic", "deg2-periodic", 0, max_n, "gap-recursion"),
        ("periodic", "deg2-periodic", 1, max_n, "periodic-reduction"),
        ("periodic", "deg2-periodic", 2, max_n, "periodic-reduction"),
        ("periodic", "deg3", 1, brute_n, "brute-force"),
        ("aperiodic", "deg1", 3, max_n, "linear-factorization"),
        ("aperiodic", "deg2-aperiodic", 1, brute_n, "brute-force"),
        ("aperiodic", "deg2-aperiodic", 2, brute_n, "brute-force"),
        ("aperiodic", "deg3", 2, brute_n, "brute-force"),
    ]
    rows = []
    for periodic, cell, k, n, expected_path in cells:
        inst = _random_two_power_instance(cell, n, k, rng)
        t0 = time.perf_counter()
        res = eval_two_power(inst, budget=budget)
        dt = time.perf_counter() - t0
        rows.append(
            {
                "periodicity": periodic,
                "degree": 1 if cell == "deg1" else (2 if cell.startswith("deg2") else 3),
                "k": k,
                "n": n,
                "path": res.path,
                "expected_path": expected_path,
                "seconds": dt,
                "terms": 2**n if res.path == "brute-force" else None,
                "path_ok": res.path == expected_path,
            }
        )
    return rows
