"""The four benchmark workloads over the public halfgauss API.

Each workload is a seeded, deterministic stream of distinct instances plus
the one timed operation ("call") made on each.  Instance i at seed s is drawn
from its own `random.Random(f"{name}/{s}/{i}")`, so it never depends on how
many instances a run made before it.  Sizes follow a fixed stratified
schedule and only coefficients (and, for prime-modulus, the order of the
primes) come from the seed, so the latency distribution of a run hardly
depends on the seed.  A timed run ends on a multiple of `period` calls, so
it always holds whole cycles of the schedule; `trace_calls` is the fixed
call count of a traced run; `count` bounds the stream when instances must
stay distinct.

Every workload also provides
  * `check`     exact checks of one result that need no reference,
  * `values`    the exact field values in a result (for the nonzero count),
  * `encode` / `matches`   the JSON form of a result kept as a reference,
                and the comparison against it, done with `==` on decoded
                field elements rather than on printed forms,
  * `gate`      a small check set from the same generator, compared with the
                brute-force and statevector oracles.

The library is reached only through module attributes (`hg.eval_half_gauss`,
`clifford.amplitude`, ...), so the tracer's rebinding of those attributes
sees every call.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import halfgauss as hg
from halfgauss import clifford, holant, numtheory
from halfgauss.cyclotomic import CyclotomicNumber
from halfgauss.polynomials import QuadraticForm

SHIPPED_SEED = 1


def instance_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{i}")


def encode_value(x: CyclotomicNumber) -> list:
    return [x.conductor, [[e, str(c)] for e, c in sorted(x.coeffs.items())]]


def decode_value(obj: list) -> CyclotomicNumber:
    conductor, terms = obj
    return CyclotomicNumber(conductor, {e: Fraction(c) for e, c in terms})


def sum_value_check(sv) -> str | None:
    if sv.certificate.leaf_product() != sv.value:
        return "certificate leaf product differs from the value"
    return None


# ---------------------------------------------------------------------------
# dense-forms: eval_half_gauss on dense periodic forms


class DenseForms:
    """Dense random periodic forms; half keep their linear part, half drop it."""

    name = "dense-forms"
    moduli = (720, 45, 1 << 20)
    gate_sizes = ((720, 2), (45, 3), (1 << 20, 1), (12, 4), (16, 4), (9, 5))

    def __init__(self, profile: str = "full"):
        # four sizes, coprime to the three moduli, so one period of
        # lcm(2 * 4, 3) = 24 calls holds every (size, modulus, linear part)
        self.sizes = (60, 100, 140, 180) if profile == "full" else (3, 5, 7, 9)
        self.period = math.lcm(2 * len(self.sizes), len(self.moduli))
        self.trace_calls = 2 * self.period
        self.count = None  # unbounded stream

    @staticmethod
    def _form(rng, d: int, n: int, keep_linear: bool) -> QuadraticForm:
        f = hg.random_periodic_form(d, n, rng)
        return f if keep_linear else QuadraticForm(f.n, f.alpha, {}, f.gamma0)

    def build(self, seed: int, i: int):
        rng = instance_rng(self.name, seed, i)
        d = self.moduli[i % len(self.moduli)]
        n = self.sizes[i % len(self.sizes)]
        keep = (i // len(self.sizes)) % 2 == 0
        return d, self._form(rng, d, n, keep)

    def call(self, inst):
        d, f = inst
        return hg.eval_half_gauss(d, f)

    def check(self, inst, result) -> str | None:
        return sum_value_check(result)

    def values(self, result) -> list:
        return [result.value]

    def layer_counts(self, inst, result) -> dict:
        return {}

    def encode(self, result):
        return encode_value(result.value)

    def matches(self, result, ref) -> bool:
        return result.value == decode_value(ref)

    def gate(self, seed: int) -> tuple[int, list[str]]:
        bad = []
        checked = 0
        for t, ((d, n), keep) in enumerate(itertools.product(self.gate_sizes, (True, False))):
            rng = instance_rng(self.name + "/gate", seed, t)
            f = self._form(rng, d, n, keep)
            sv = hg.eval_half_gauss(d, f)
            checked += 1
            if sv.value != hg.brute_half_gauss(d, f) or sum_value_check(sv):
                bad.append(f"eval_half_gauss(d={d}, n={n}, keep_linear={keep})")
        return checked, bad


# ---------------------------------------------------------------------------
# clifford-sim: normalize, amplitudes, one full-register sample per job


class CliffordSim:
    """One job per call on a fresh random circuit at composite d = 6."""

    name = "clifford-sim"
    d = 6
    queries = 16
    gate_shapes = ((2, 10), (3, 14), (3, 20))

    def __init__(self, profile: str = "full"):
        self.m, self.n_gates = (4, 24) if profile == "full" else (2, 6)
        # job time grows with the segment count n of the normalized circuit;
        # instance i is redrawn until n falls in quartile bin i % 4 of its
        # distribution at m = 4, 24 gates, so every run has the same mix
        self.n_bins = ((0, 38), (39, 42), (43, 50), (51, 1 << 30)) if profile == "full" else ((0, 1 << 30),)
        self.period = len(self.n_bins)
        self.trace_calls = 40
        self.count = None

    def _job(self, rng, m: int, n_gates: int):
        circ = clifford.random_circuit(self.d, m, n_gates, rng)
        a = tuple(rng.randrange(self.d) for _ in range(m))
        bs = tuple(tuple(rng.randrange(self.d) for _ in range(m)) for _ in range(self.queries))
        return circ, a, bs, rng.randrange(1 << 30)

    def build(self, seed: int, i: int):
        rng = instance_rng(self.name, seed, i)
        lo, hi = self.n_bins[i % len(self.n_bins)]
        while True:
            job = self._job(rng, self.m, self.n_gates)
            if lo <= clifford.normalize(job[0]).n <= hi:
                return job

    def call(self, inst):
        circ, a, bs, sample_seed = inst
        nc = clifford.normalize(circ)
        amps = tuple(clifford.amplitude(nc, a, b) for b in bs)
        return nc, amps, clifford.sample(nc, a, circ.m, sample_seed)

    def check(self, inst, result) -> str | None:
        _, a, _, _ = inst
        nc, amps, outcome = result
        for x in amps:
            p = (x * x.conj()).as_rational()
            if p is None or p > 1:
                return "amplitude with |a|^2 not a rational in [0, 1]"
        amp = clifford.amplitude(nc, a, outcome)
        prob = clifford.probability_marginal(nc, a, outcome)
        if prob == 0 or amp * amp.conj() != prob:
            return "sampled outcome probability disagrees with its amplitude"
        return None

    def values(self, result) -> list:
        return list(result[1])

    def layer_counts(self, inst, result) -> dict:
        return {"sampled_digits": len(result[2])}

    def encode(self, result):
        _, amps, outcome = result
        return {"amps": [encode_value(x) for x in amps], "outcome": list(outcome)}

    def matches(self, result, ref) -> bool:
        _, amps, outcome = result
        return list(outcome) == ref["outcome"] and len(amps) == len(ref["amps"]) and all(
            x == decode_value(r) for x, r in zip(amps, ref["amps"])
        )

    def gate(self, seed: int) -> tuple[int, list[str]]:
        d = self.d
        bad = []
        checked = 0
        for t, (m, n_gates) in enumerate(self.gate_shapes):
            inst = self._job(instance_rng(self.name + "/gate", seed, t), m, n_gates)
            circ, a, _, _ = inst
            sv = clifford.statevector(circ, a)
            probs = [x * x.conj() for x in sv]
            nc, amps, outcome = self.call(inst)
            basis = list(itertools.product(range(d), repeat=m))
            for idx, b in enumerate(basis):
                checked += 1
                if clifford.amplitude(nc, a, b) != sv[idx]:
                    bad.append(f"amplitude m={m} b={b}")
            for k in range(1, m + 1):
                block = d ** (m - k)
                for j, prefix in enumerate(itertools.product(range(d), repeat=k)):
                    checked += 1
                    want = sum(probs[j * block:(j + 1) * block], CyclotomicNumber.zero())
                    if clifford.probability_marginal(nc, a, prefix) != want:
                        bad.append(f"marginal m={m} prefix={prefix}")
            checked += 1
            idx = sum(v * d ** (m - 1 - r) for r, v in enumerate(outcome))
            if probs[idx] == 0 or self.check(inst, (nc, amps, outcome)):
                bad.append(f"sampled outcome m={m}")
        return checked, bad


# ---------------------------------------------------------------------------
# holant-affine: holant_affine on random affine signature grids


class HolantAffine:
    """Affine grids, arity <= 3; half homogeneous (no linear part, rows through 0)."""

    name = "holant-affine"
    moduli = (6, 45, 8)
    row_chance = 1 / 3
    gate_sizes = ((6, 4), (45, 2), (8, 4))

    def __init__(self, profile: str = "full"):
        self.edges = 160 if profile == "full" else 8
        self.period = 2 * len(self.moduli)
        self.trace_calls = 6 * self.period
        self.count = None

    def _grid(self, rng, d: int, n_edges: int, homogeneous: bool):
        ends = [e for e in range(n_edges) for _ in range(2)]
        rng.shuffle(ends)
        vertices = []
        n_rows = 0
        while ends:
            arity = min(rng.randint(1, 3), len(ends))
            edges, ends = ends[:arity], ends[arity:]
            g = hg.random_periodic_form(d, arity, rng)
            rows = ()
            if rng.random() < self.row_chance:
                coeffs = tuple(rng.randrange(d) for _ in range(arity))
                rows = ((coeffs, 0 if homogeneous else rng.randrange(d)),)
                n_rows += 1
            if homogeneous:
                g = QuadraticForm(arity, g.alpha, {}, g.gamma0)
            lam = CyclotomicNumber.from_rational(rng.choice((1, -1, 2)))
            sig = holant.AffineSignature(arity, lam, rows, g)
            vertices.append(holant.Vertex(tuple(f"e{e}" for e in edges), sig))
        grid = holant.SignatureGrid(d, tuple(f"e{e}" for e in range(n_edges)), tuple(vertices))
        return grid, n_edges + n_rows

    def build(self, seed: int, i: int):
        rng = instance_rng(self.name, seed, i)
        d = self.moduli[i % len(self.moduli)]
        return self._grid(rng, d, self.edges, (i // len(self.moduli)) % 2 == 0)

    def call(self, inst):
        return holant.holant_affine(inst[0])

    def check(self, inst, result) -> str | None:
        return None

    def values(self, result) -> list:
        return [result]

    def layer_counts(self, inst, result) -> dict:
        return {"grid_vars": inst[1]}

    def encode(self, result):
        return encode_value(result)

    def matches(self, result, ref) -> bool:
        return result == decode_value(ref)

    def gate(self, seed: int) -> tuple[int, list[str]]:
        bad = []
        checked = 0
        for t, ((d, n_edges), homog) in enumerate(itertools.product(self.gate_sizes, (True, False))):
            grid, _ = self._grid(instance_rng(self.name + "/gate", seed, t), d, n_edges, homog)
            checked += 1
            if holant.holant_affine(grid) != holant.holant_brute(grid):
                bad.append(f"holant_affine(d={d}, edges={n_edges}, homogeneous={homog})")
        return checked, bad


# ---------------------------------------------------------------------------
# prime-modulus: eval_gauss_quadratic at one call per distinct prime


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if numtheory.factorize(p) == [(p, 1)]]


class PrimeModulus:
    """Four-variable sums modulo each prime of a fixed range, each prime once."""

    name = "prime-modulus"
    n = 4

    def __init__(self, profile: str = "full"):
        self.primes = _primes(90, 720) if profile == "full" else _primes(5, 150)
        # brute-forceable sizes, plus the range's own smallest and largest prime
        self.gate_cases = ((5, 4), (7, 4), (13, 4), (97, 3), (self.primes[0], 2), (self.primes[-1], 2))
        self.period = self.trace_calls = self.count = len(self.primes)
        self._order: dict[int, list[int]] = {}

    def _prime_order(self, seed: int) -> list[int]:
        # a seeded rotation stepped by a stride near count/golden ratio, so any
        # prefix of the order spreads evenly over the range
        order = self._order.get(seed)
        if order is None:
            count = len(self.primes)
            step = round(count * 0.618)
            while math.gcd(step, count) != 1:
                step += 1
            start = instance_rng(self.name, seed, -1).randrange(count)
            order = [self.primes[(start + j * step) % count] for j in range(count)]
            self._order[seed] = order
        return order

    @staticmethod
    def _form(rng, p: int, n: int) -> QuadraticForm:
        alpha = {(i, j): rng.randrange(p) for i in range(1, n + 1) for j in range(i, n + 1)}
        beta = {i: rng.randrange(p) for i in range(1, n + 1)}
        return QuadraticForm(n, alpha, beta, rng.randrange(p))

    def build(self, seed: int, i: int):
        p = self._prime_order(seed)[i]
        return p, self._form(instance_rng(self.name, seed, i), p, self.n)

    def call(self, inst):
        p, g = inst
        return hg.eval_gauss_quadratic(p, g)

    def check(self, inst, result) -> str | None:
        return sum_value_check(result)

    def values(self, result) -> list:
        return [result.value]

    def layer_counts(self, inst, result) -> dict:
        return {}

    def encode(self, result):
        return encode_value(result.value)

    def matches(self, result, ref) -> bool:
        return result.value == decode_value(ref)

    def gate(self, seed: int) -> tuple[int, list[str]]:
        bad = []
        checked = 0
        for t, (p, n) in enumerate(self.gate_cases):
            g = self._form(instance_rng(self.name + "/gate", seed, t), p, n)
            sv = hg.eval_gauss_quadratic(p, g)
            desc = hg.SumDescriptor(p, p, g.to_int_polynomial())
            checked += 1
            if sv.value != hg.brute_sum(desc) or sum_value_check(sv):
                bad.append(f"eval_gauss_quadratic(p={p}, n={n})")
        return checked, bad


WORKLOADS = {w.name: w for w in (DenseForms, CliffordSim, HolantAffine, PrimeModulus)}
