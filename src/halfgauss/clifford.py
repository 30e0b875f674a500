"""Qudit Clifford circuits simulated exactly through quadratic exponential sums.

Pipeline: normalize a circuit into the sandwich form (F^dag layer) C' (F layer)
with C' over {Z, G, F, CZ}, label the wire segments, extract the quadratic
phase polynomial, and obtain amplitudes and marginal probabilities as half
Gauss sums with exact d^(-h/2) prefactors.  A dense statevector engine over
exact cyclotomic numbers serves as the oracle for everything here.

Gate semantics (omega = omega_d, xi = xi_d under the default convention):

    X|k> = |k+1>        Y|k> = xi^(1-2k)|k-1>     Z|k> = omega^k |k>
    F|k> = d^(-1/2) sum_l omega^(kl) |l>          G|k> = xi^(k^2)|k>
    CZ|k1,k2> = omega^(k1 k2)|k1,k2>              CCZ adds omega^(k1 k2 k3)

The qubit-only kinds H, S, SDAG, CS, CX are accepted by the statevector
engine at d = 2 for the gadget demos; they are rejected by normalize, which
works over the qudit gate set only.  The single-qudit definitions live in one
column table, `_gate_column`, read by the statevector oracle and gate_matrix
only: normalize and phase_polynomial compile gates on their own, so the
oracle stays independent of the fast path it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import (
    CyclotomicNumber,
    inv_sqrt_d_power,
    one,
    root_of_unity,
    xi_pow,
)
from .errors import BudgetExceededError, InternalConsistencyError
from .gauss import q_constant
from .expsum import eval_half_gauss
from .polynomials import QuadraticForm

CLIFFORD_INTERNAL = {"Z", "G", "F", "CZ"}
GATE_ARITY = {
    "X": 1, "Y": 1, "Z": 1, "F": 1, "FDAG": 1, "G": 1, "H": 1, "S": 1, "SDAG": 1,
    "CZ": 2, "CS": 2, "CX": 2,
    "CCZ": 3,
}

DEFAULT_STATEVECTOR_BUDGET = 4096


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    repeat: int = 1

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} target(s)")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")


@dataclass(frozen=True)
class Circuit:
    d: int
    m: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be >= 2")
        if self.m < 1:
            raise ValueError("need at least one register")
        for g in self.gates:
            if any(t < 0 or t >= self.m for t in g.targets):
                raise ValueError(f"gate {g} targets outside [0, {self.m})")


@dataclass(frozen=True)
class Labeling:
    """Segment labels: per-register ordered lists plus the index classes.

    On a register with a single segment the same index is both inceptive
    and terminal.
    """

    per_register: tuple[tuple[int, ...], ...]
    inceptive: tuple[int, ...]
    terminal: tuple[int, ...]
    internal: frozenset[int]


@dataclass
class NormalizedCircuit:
    """Sandwich form (F^dag)^m C' F^m; `internal` is C' over {Z, G, F, CZ}."""

    d: int
    m: int
    internal: tuple[Gate, ...]
    h: int
    n: int
    _phase: tuple | None = field(default=None, repr=False, compare=False)
    _measure: "NormalizedCircuit | None" = field(default=None, repr=False, compare=False)

    def full_circuit(self) -> Circuit:
        front = tuple(Gate("F", (r,)) for r in range(self.m))
        back = tuple(Gate("FDAG", (r,)) for r in range(self.m))
        return Circuit(self.d, self.m, front + self.internal + back)


# ---------------------------------------------------------------------------
# normalization


def _compile_gate(g: Gate, d: int) -> list[Gate]:
    """Rewrite one gate over the internal set {Z, G, F, CZ}, exactly in phase."""
    k = g.kind
    t = g.targets
    if k in CLIFFORD_INTERNAL:
        out = [Gate(k, t)]
    elif k == "FDAG":
        out = [Gate("F", t)] * 3
    elif k == "X":
        # X = F^3 Z F as operators, so the timeline is F, Z, F, F, F
        out = [Gate("F", t), Gate("Z", t), Gate("F", t), Gate("F", t), Gate("F", t)]
    elif k == "Y":
        # Y = G X^(d-1) G^(2d-1), with X^(d-1) = F^3 Z^(d-1) F
        out = [Gate("G", t)] * (2 * d - 1)
        out += [Gate("F", t)] + [Gate("Z", t)] * (d - 1) + [Gate("F", t)] * 3
        out += [Gate("G", t)]
    else:
        raise ValueError(f"gate kind {g.kind!r} is not a qudit Clifford gate")
    return out * g.repeat


def _cancel_f_quads(gates: list[Gate], m: int) -> list[Gate]:
    """Delete runs of four consecutive F gates per register (F^4 = I)."""
    changed = True
    while changed:
        changed = False
        runs: dict[int, list[int]] = {r: [] for r in range(m)}
        drop: set[int] | None = None
        for pos, g in enumerate(gates):
            if g.kind == "F":
                r = g.targets[0]
                runs[r].append(pos)
                if len(runs[r]) == 4:
                    drop = set(runs[r])
                    break
            else:
                for r in g.targets:
                    runs[r] = []
        if drop:
            gates = [g for i, g in enumerate(gates) if i not in drop]
            changed = True
    return gates


def normalize(c: Circuit) -> NormalizedCircuit:
    """Sandwich-normalize c; the result is unitarily equal to c, global phase included."""
    compiled: list[Gate] = []
    for g in c.gates:
        compiled.extend(_compile_gate(g, c.d))
    internal = [Gate("F", (r,)) for r in range(c.m)] * 3
    internal += compiled
    internal += [Gate("F", (r,)) for r in range(c.m)]
    internal = _cancel_f_quads(internal, c.m)
    h = 2 * c.m + sum(1 for g in internal if g.kind == "F")
    return NormalizedCircuit(c.d, c.m, tuple(internal), h, h - c.m)


# ---------------------------------------------------------------------------
# phase polynomial and labeling


def phase_polynomial(nc: NormalizedCircuit) -> tuple[QuadraticForm, Labeling]:
    """The quadratic exponent S_C over segment variables, plus the labeling.

    Internal F between segments i, j contributes 2 x_i x_j; Z on segment i
    contributes 2 x_i; CZ on segments i, j contributes 2 x_i x_j; G on
    segment i contributes x_i^2.  The result always satisfies the
    periodicity condition.
    """
    if nc._phase is not None:
        return nc._phase
    m = nc.m
    cur = list(range(1, m + 1))
    nxt = m + 1
    per_register: list[list[int]] = [[r + 1] for r in range(m)]
    alpha: dict[tuple[int, int], int] = {}
    beta: dict[int, int] = {}

    def bump(key: tuple[int, int], c: int):
        if key[0] > key[1]:
            key = (key[1], key[0])
        alpha[key] = alpha.get(key, 0) + c

    for g in nc.internal:
        for _ in range(g.repeat):
            if g.kind == "F":
                r = g.targets[0]
                bump((cur[r], nxt), 2)
                cur[r] = nxt
                per_register[r].append(nxt)
                nxt += 1
            elif g.kind == "Z":
                i = cur[g.targets[0]]
                beta[i] = beta.get(i, 0) + 2
            elif g.kind == "G":
                i = cur[g.targets[0]]
                bump((i, i), 1)
            elif g.kind == "CZ":
                bump((cur[g.targets[0]], cur[g.targets[1]]), 2)
            else:
                raise InternalConsistencyError(f"non-internal gate {g.kind} in C'")
    n = nxt - 1
    if n != nc.n:
        raise InternalConsistencyError("segment count disagrees with h - m")
    inceptive = tuple(seq[0] for seq in per_register)
    terminal = tuple(seq[-1] for seq in per_register)
    ends = set(inceptive) | set(terminal)
    lab = Labeling(
        per_register=tuple(tuple(s) for s in per_register),
        inceptive=inceptive,
        terminal=terminal,
        internal=frozenset(range(1, n + 1)) - ends,
    )
    out = (QuadraticForm(n, alpha, beta, 0), lab)
    nc._phase = out
    return out


def circuit_from_polynomial(s: QuadraticForm, d: int) -> Circuit:
    """A circuit whose sandwich form has phase polynomial s (constant ignored).

    Recipe: on register i apply G alpha_ii times, CZ on (i, j) alpha_ij/2
    times, Z on i beta_i/2 times, all between explicit F / F^dag boundary
    layers.  Rejects aperiodic s.
    """
    mod = 2 * d
    gates: list[Gate] = [Gate("F", (r,)) for r in range(s.n)]
    for (i, j), c in sorted(s.alpha.items()):
        c %= mod
        if i == j:
            if c:
                gates.append(Gate("G", (i - 1,), c))
        else:
            if c % 2:
                raise ValueError(f"odd cross coefficient alpha[{i},{j}] is aperiodic")
            if c // 2:
                gates.append(Gate("CZ", (i - 1, j - 1), c // 2))
    for i, c in sorted(s.beta.items()):
        c %= mod
        if c % 2:
            raise ValueError(f"odd linear coefficient beta[{i}] is aperiodic")
        if c // 2:
            gates.append(Gate("Z", (i - 1,), c // 2))
    gates += [Gate("FDAG", (r,)) for r in range(s.n)]
    return Circuit(d, s.n, tuple(gates))


# ---------------------------------------------------------------------------
# amplitudes and probabilities


def amplitude(nc: NormalizedCircuit, a: tuple[int, ...], b: tuple[int, ...]) -> CyclotomicNumber:
    """Exact <b|C|a> = d^(-h/2) Z_{1/2}(d, S_C + 2a.x_I + 2(d-b).x_T).

    The output coupling uses 2(d - b) per terminal segment: the conjugated
    output layer inserts Z^(d-b), and the statevector oracle pins this sign.
    """
    d = nc.d
    if len(a) != nc.m or len(b) != nc.m:
        raise ValueError("basis-state length must equal the register count")
    s, lab = phase_polynomial(nc)
    beta = dict(s.beta)
    for r in range(nc.m):
        i = lab.inceptive[r]
        beta[i] = beta.get(i, 0) + 2 * (a[r] % d)
        t = lab.terminal[r]
        beta[t] = beta.get(t, 0) + 2 * ((d - b[r]) % d)
    f = QuadraticForm(s.n, s.alpha, beta, 0)
    return eval_half_gauss(d, f).value * inv_sqrt_d_power(d, nc.h)


def _measure_ready(nc: NormalizedCircuit) -> NormalizedCircuit:
    """Pad registers lacking an internal F with F^4 (identity) for measurement."""
    if nc._measure is not None:
        return nc._measure
    _, lab = phase_polynomial(nc)
    missing = [r for r in range(nc.m) if len(lab.per_register[r]) < 2]
    if not missing:
        nc._measure = nc
        return nc
    extra = tuple(Gate("F", (r,)) for r in missing for _ in range(4))
    padded = NormalizedCircuit(
        nc.d, nc.m, nc.internal + extra, nc.h + 4 * len(missing), nc.n + 4 * len(missing)
    )
    nc._measure = padded
    return padded


def probability_marginal(nc: NormalizedCircuit, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
    """Exact P(b|a) for measuring the first k = len(b) registers of C|a>.

    Builds the doubled phase polynomial over x- and y-copies with the
    terminal segments of unmeasured registers shared, and evaluates
    d^-(n+k) Z_{1/2}(d, phi).  The result is checked to be a rational in
    [0, 1]; a violation raises InternalConsistencyError rather than clamping.
    """
    d = nc.d
    k = len(b)
    if not (1 <= k <= nc.m):
        raise ValueError("need 1 <= len(b) <= m")
    if len(a) != nc.m:
        raise ValueError("input length must equal the register count")
    mc = _measure_ready(nc)
    s, lab = phase_polynomial(mc)
    n = s.n
    shared = {lab.terminal[r] for r in range(k, mc.m)}
    ymap: dict[int, int] = {}
    nxt = n + 1
    for i in range(1, n + 1):
        if i in shared:
            ymap[i] = i
        else:
            ymap[i] = nxt
            nxt += 1
    total = nxt - 1

    alpha: dict[tuple[int, int], int] = {}
    beta: dict[int, int] = {}

    def bump_a(i: int, j: int, c: int):
        if i > j:
            i, j = j, i
        alpha[(i, j)] = alpha.get((i, j), 0) + c

    for (i, j), c in s.alpha.items():
        bump_a(i, j, c)
        bump_a(ymap[i], ymap[j], -c)
    for i, c in s.beta.items():
        beta[i] = beta.get(i, 0) + c
        yi = ymap[i]
        beta[yi] = beta.get(yi, 0) - c
    for r in range(mc.m):
        i = lab.inceptive[r]
        c = 2 * (a[r] % d)
        beta[i] = beta.get(i, 0) + c
        yi = ymap[i]
        beta[yi] = beta.get(yi, 0) - c
    for r in range(k):
        t = lab.terminal[r]
        c = 2 * ((d - b[r]) % d)
        beta[t] = beta.get(t, 0) + c
        yt = ymap[t]
        beta[yt] = beta.get(yt, 0) - c

    phi = QuadraticForm(total, alpha, beta, 0)
    val = eval_half_gauss(d, phi).value.scale(Fraction(1, d ** (s.n + k)))
    p = val.as_rational()
    if p is None:
        raise InternalConsistencyError("marginal probability is not rational")
    if p < 0 or p > 1:
        raise InternalConsistencyError(f"marginal probability {p} outside [0, 1]")
    return p


def sample(
    nc: NormalizedCircuit,
    a: tuple[int, ...],
    k: int,
    seed: int,
    _cache: dict | None = None,
) -> tuple[int, ...]:
    """One Born-rule sample of the first k registers, deterministic in seed.

    Outcomes are drawn digit by digit from exact conditional probabilities,
    compared against a rational uniform draw with 64 fractional bits.
    """
    rng = random.Random(seed)
    return _sample_with_rng(nc, a, k, rng, _cache if _cache is not None else {})


def _sample_with_rng(nc, a, k, rng, cache) -> tuple[int, ...]:
    d = nc.d
    prefix: tuple[int, ...] = ()
    p_prefix = Fraction(1)
    for _ in range(k):
        u = Fraction(rng.getrandbits(64), 1 << 64) * p_prefix
        acc = Fraction(0)
        chosen = None
        for v in range(d):
            cand = prefix + (v,)
            if cand not in cache:
                cache[cand] = probability_marginal(nc, a, cand)
            acc += cache[cand]
            if u < acc:
                chosen = v
                p_prefix = cache[cand]
                break
        if chosen is None:  # guard against an exact-zero tail
            chosen = d - 1
            p_prefix = cache[prefix + (chosen,)]
        prefix += (chosen,)
    return prefix


def sample_many(nc, a, k, count, seed) -> list[tuple[int, ...]]:
    """Deterministic stream of Born-rule samples sharing one marginal cache."""
    rng = random.Random(seed)
    cache: dict = {}
    return [_sample_with_rng(nc, a, k, rng, cache) for _ in range(count)]


# ---------------------------------------------------------------------------
# single-qudit gate semantics

_FOURIER_KINDS = {"F", "FDAG", "H"}  # their columns leave out a factor d^(-1/2)


def _gate_column(kind: str, d: int, k: int) -> tuple[tuple[int, CyclotomicNumber], ...]:
    """Column k of a single-qudit gate as (row, entry) pairs, without the
    d^(-1/2) factor of the Fourier kinds.

    H is the qubit Hadamard, the d = 2 Fourier gate; S and SDAG are qubit-only.
    """
    if kind == "X":
        return (((k + 1) % d, one()),)
    if kind == "Y":
        return (((k - 1) % d, xi_pow(d, 1 - 2 * k)),)
    if kind == "Z":
        return ((k, root_of_unity(d, k)),)
    if kind == "G":
        return ((k, xi_pow(d, k * k)),)
    if kind in _FOURIER_KINDS:
        sign = -1 if kind == "FDAG" else 1
        return tuple((l, root_of_unity(d, sign * k * l)) for l in range(d))
    if kind in ("S", "SDAG"):
        if d != 2:
            raise ValueError(f"{kind} is qubit-only")
        return ((k, root_of_unity(4, k if kind == "S" else -k)),)
    raise ValueError(f"no single-qudit matrix for {kind}")


# ---------------------------------------------------------------------------
# exact statevector oracle


def _check_sv_budget(d: int, m: int, budget: int | None):
    cap = DEFAULT_STATEVECTOR_BUDGET if budget is None else budget
    if d**m > cap:
        raise BudgetExceededError(d**m, cap)


def statevector(
    circuit: Circuit | NormalizedCircuit,
    a: tuple[int, ...],
    budget: int | None = None,
) -> list[CyclotomicNumber]:
    """Exact C|a> with every gate applied as its defining matrix."""
    if isinstance(circuit, NormalizedCircuit):
        circuit = circuit.full_circuit()
    d, m = circuit.d, circuit.m
    _check_sv_budget(d, m, budget)
    if len(a) != m:
        raise ValueError("input length must equal the register count")
    size = d**m
    idx = 0
    for v in a:
        idx = idx * d + (v % d)
    state: list[CyclotomicNumber] = [CyclotomicNumber.zero()] * size
    state[idx] = one()
    sqrt_scale = 0

    strides = [d ** (m - 1 - r) for r in range(m)]

    for g in circuit.gates:
        for _ in range(g.repeat):
            state, ds = _apply_gate(state, g, d, m, strides)
            sqrt_scale += ds
    if sqrt_scale:
        norm = inv_sqrt_d_power(d, sqrt_scale)
        state = [v * norm if not v.is_zero() else v for v in state]
    return state


def _apply_gate(state, g, d, m, strides):
    size = len(state)
    kind = g.kind
    out = state
    if kind in ("CZ", "CS", "CCZ"):
        s1, s2 = strides[g.targets[0]], strides[g.targets[1]]
        s3 = strides[g.targets[2]] if kind == "CCZ" else 0
        out = list(state)
        for i in range(size):
            if out[i].is_zero():
                continue
            k1 = (i // s1) % d
            k2 = (i // s2) % d
            if kind == "CZ":
                ph = root_of_unity(d, k1 * k2)
            elif kind == "CS":
                ph = root_of_unity(4, k1 * k2)
            else:
                k3 = (i // s3) % d
                ph = root_of_unity(d, k1 * k2 * k3)
            out[i] = out[i] * ph
        return out, 0
    if kind == "CX":
        s1, s2 = strides[g.targets[0]], strides[g.targets[1]]
        out = [CyclotomicNumber.zero()] * size
        for i in range(size):
            if state[i].is_zero():
                continue
            k1 = (i // s1) % d
            k2 = (i // s2) % d
            j = i + ((k1 + k2) % d - k2) * s2
            out[j] = state[i]
        return out, 0

    stride = strides[g.targets[0]]
    out = [CyclotomicNumber.zero()] * size
    for i in range(size):
        v = state[i]
        if v.is_zero():
            continue
        k = (i // stride) % d
        for l, entry in _gate_column(kind, d, k):
            j = i + (l - k) * stride
            out[j] = out[j] + v * entry
    return out, int(kind in _FOURIER_KINDS)


# ---------------------------------------------------------------------------
# gate-relation verification


def _mat_mul(a, b, d):
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(d)), CyclotomicNumber.zero())
            for j in range(d)
        ]
        for i in range(d)
    ]


def _identity_mat(d):
    return [
        [one() if i == j else CyclotomicNumber.zero() for j in range(d)]
        for i in range(d)
    ]


def _scalar_mat(d, c):
    return [
        [c if i == j else CyclotomicNumber.zero() for j in range(d)]
        for i in range(d)
    ]


def _mat_eq(a, b, d):
    return all(a[i][j] == b[i][j] for i in range(d) for j in range(d))


def gate_matrix(kind: str, d: int) -> list[list[CyclotomicNumber]]:
    """Exact d x d matrix of a single-qudit gate (columns indexed by input)."""
    zero = CyclotomicNumber.zero()
    mat = [[zero for _ in range(d)] for _ in range(d)]
    scale = inv_sqrt_d_power(d, int(kind in _FOURIER_KINDS))
    for k in range(d):
        for l, entry in _gate_column(kind, d, k):
            mat[l][k] = entry * scale
    return mat


def verify_gate_relations(d: int) -> dict[str, bool]:
    """Check every defining gate identity as an exact matrix equation."""
    if d > 16:
        raise ValueError("matrix budget is d <= 16")
    x = gate_matrix("X", d)
    y = gate_matrix("Y", d)
    z = gate_matrix("Z", d)
    f = gate_matrix("F", d)
    g = gate_matrix("G", d)
    ident = _identity_mat(d)
    omega = root_of_unity(d, 1)

    def mpow(mat, k):
        out = ident
        for _ in range(k):
            out = _mat_mul(out, mat, d)
        return out

    yinv = [[CyclotomicNumber.zero() for _ in range(d)] for _ in range(d)]
    for k in range(d):
        yinv[(k + 1) % d][k] = xi_pow(d, 2 * k + 1)

    fg = _mat_mul(f, g, d)
    report = {
        "X^d = I": _mat_eq(mpow(x, d), ident, d),
        "Y^d = I": _mat_eq(mpow(y, d), ident, d),
        "Z^d = I": _mat_eq(mpow(z, d), ident, d),
        "F^4 = I": _mat_eq(mpow(f, 4), ident, d),
        "G^2d = I": _mat_eq(mpow(g, 2 * d), ident, d),
        "(FG)^3 = q_d I": _mat_eq(mpow(fg, 3), _scalar_mat(d, q_constant(d)), d),
        "XY = w YX": _mat_eq(_mat_mul(x, y, d), _mat_mul(_scalar_mat(d, omega), _mat_mul(y, x, d), d), d),
        "YZ = w ZY": _mat_eq(_mat_mul(y, z, d), _mat_mul(_scalar_mat(d, omega), _mat_mul(z, y, d), d), d),
        "ZX = w XZ": _mat_eq(_mat_mul(z, x, d), _mat_mul(_scalar_mat(d, omega), _mat_mul(x, z, d), d), d),
        "XYZ = xi I": _mat_eq(_mat_mul(x, _mat_mul(y, z, d), d), _scalar_mat(d, xi_pow(d, 1)), d),
        "FX = ZF": _mat_eq(_mat_mul(f, x, d), _mat_mul(z, f, d), d),
        "GX = Y^-1 G": _mat_eq(_mat_mul(g, x, d), _mat_mul(yinv, g, d), d),
        "Y Y^-1 = I": _mat_eq(_mat_mul(y, yinv, d), ident, d),
    }
    return report


# ---------------------------------------------------------------------------
# circuit text format


def parse_circuit_text(text: str) -> Circuit:
    """Line format: 'dim <d>', 'qudits <m>', then '<KIND> <t...> [*<r>]'."""
    d = None
    m = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].lower()
        try:
            if head == "dim":
                d = int(parts[1])
            elif head == "qudits":
                m = int(parts[1])
            else:
                repeat = 1
                if parts[-1].startswith("*"):
                    repeat = int(parts[-1][1:])
                    parts = parts[:-1]
                kind = parts[0].upper()
                targets = tuple(int(p) for p in parts[1:])
                gates.append(Gate(kind, targets, repeat))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"circuit line {lineno}: cannot parse {raw!r}: {exc}") from exc
    if d is None or m is None:
        raise ValueError("circuit file must declare 'dim' and 'qudits'")
    return Circuit(d, m, tuple(gates))


def format_circuit(c: Circuit) -> str:
    lines = [f"dim {c.d}", f"qudits {c.m}"]
    for g in c.gates:
        suffix = f" *{g.repeat}" if g.repeat != 1 else ""
        lines.append(f"{g.kind} {' '.join(str(t) for t in g.targets)}{suffix}")
    return "\n".join(lines) + "\n"


def random_circuit(d: int, m: int, n_gates: int, rng) -> Circuit:
    """Uniformly random circuit over the qudit Clifford kinds."""
    kinds = ["X", "Y", "Z", "F", "FDAG", "G", "CZ"]
    gates = []
    for _ in range(n_gates):
        k = rng.choice(kinds)
        if k == "CZ":
            if m < 2:
                k = "Z"
                gates.append(Gate(k, (rng.randrange(m),)))
                continue
            t1 = rng.randrange(m)
            t2 = rng.randrange(m - 1)
            if t2 >= t1:
                t2 += 1
            gates.append(Gate(k, (t1, t2)))
        else:
            gates.append(Gate(k, (rng.randrange(m),)))
    return Circuit(d, m, tuple(gates))
