"""Oracle-equivalence sweeps: the machinery behind `selftest` and acceptance.

Each sweep runs the fast evaluator on every instance of a family and compares
against exact enumeration.  Comparisons are exact equality of canonical
cyclotomic forms; any mismatch is reported as a witness key.  Sweeps can be
chunked across worker processes; results are independent of scheduling.
"""

from __future__ import annotations

import itertools
import random
from multiprocessing import Pool

import numpy as np

from .cyclotomic import from_xi_counts, xi_exponent_modulus, xi_pow
from .expsum import eval_half_gauss, random_periodic_form
from .oracle import _fourier_terms, _identity_holds, brute_half_gauss
from .polynomials import QuadraticForm

_MAX_WITNESSES = 20


def _pool_map(fn, jobs: list, processes: int, chunksize: int | None = None) -> tuple[int, list]:
    """fn over jobs, in a pool of `processes` workers when that exceeds 1;
    sums the cases and concatenates the witnesses of the (cases, fails) parts."""
    if processes <= 1:
        parts = [fn(j) for j in jobs]
    else:
        with Pool(processes) as pool:
            parts = pool.map(fn, jobs, chunksize)
    return sum(c for c, _ in parts), [w for _, ws in parts for w in ws]


def _coeff_ranges(d: int):
    """The literal coefficient space [0, 2d): every value for diagonal terms,
    even values only for cross/linear terms when d is even."""
    full = range(2 * d)
    constrained = range(0, 2 * d, 2) if d % 2 == 0 else full
    return full, constrained


def _half_chunk(args) -> tuple[int, list]:
    """Exhaustively check one alpha-slice of the (d, n) family, all gammas."""
    d, n, a_first_values = args
    mod = xi_exponent_modulus(d)
    full, constrained = _coeff_ranges(d)
    cases = 0
    fails: list = []
    xi_table = [xi_pow(d, g) for g in range(2 * d)]
    if n == 0:
        for g in range(2 * d):
            f = QuadraticForm(0, {}, {}, g)
            cases += 1
            if eval_half_gauss(d, f).value != xi_table[g]:
                fails.append((d, f.key()))
        return cases, fails

    xs = [np.arange(d, dtype=np.int64)]
    if n == 2:
        x1 = np.arange(d, dtype=np.int64)[:, None]
        x2 = np.arange(d, dtype=np.int64)[None, :]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    tail_ranges = [full if i == j else constrained for (i, j) in pairs[1:]]
    for a_first in a_first_values:
        for alphas_tail in itertools.product(*tail_ranges):
            alphas = (a_first,) + alphas_tail
            alpha = dict(zip(pairs, alphas))
            if n == 1:
                quad = (alphas[0] * xs[0] * xs[0]) % mod
            else:
                quad = (alpha[(1, 1)] * x1 * x1 + alpha[(1, 2)] * x1 * x2 + alpha[(2, 2)] * x2 * x2) % mod
            for betas in itertools.product(constrained, repeat=n):
                if n == 1:
                    vals = (quad + betas[0] * xs[0]) % mod
                else:
                    vals = (quad + betas[0] * x1 + betas[1] * x2) % mod
                counts = np.bincount(vals.reshape(-1), minlength=mod)
                expected0 = from_xi_counts(d, counts)
                beta = {i + 1: b for i, b in enumerate(betas)}
                for g in range(2 * d):
                    f = QuadraticForm(n, alpha, beta, g)
                    cases += 1
                    got = eval_half_gauss(d, f).value
                    expected = expected0 if g == 0 else xi_table[g] * expected0
                    if got != expected:
                        if len(fails) < _MAX_WITNESSES:
                            fails.append((d, f.key()))
    return cases, fails


def exhaustive_half_sweep(d: int, n: int, processes: int = 1) -> tuple[int, list]:
    """All periodic coefficient tuples in [0, 2d) for Z_{1/2}(d, .) at n variables."""
    if n == 0:
        return _half_chunk((d, 0, []))
    firsts = list(range(2 * d))  # alpha_11 is a diagonal coefficient
    k = max(processes, 1)
    return _pool_map(_half_chunk, [(d, n, firsts[i::k]) for i in range(k)], processes)


def random_half_sweep(
    d: int, n_max: int, count: int, seed: int, budget: int | None = None
) -> tuple[int, list]:
    """Random periodic instances with n up to n_max, evaluator vs enumeration."""
    rng = random.Random(seed)
    cases = 0
    fails: list = []
    for _ in range(count):
        n = rng.randrange(0, n_max + 1)
        f = random_periodic_form(d, n, rng)
        cases += 1
        if eval_half_gauss(d, f).value != brute_half_gauss(d, f, budget=budget):
            if len(fails) < _MAX_WITNESSES:
                fails.append((d, f.key()))
    return cases, fails


def _fourier_chunk(args) -> tuple[int, list]:
    d, n, a_first_values = args
    mod = xi_exponent_modulus(d)
    full, constrained = _coeff_ranges(d)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    tail_ranges = [full if i == j else constrained for (i, j) in pairs[1:]]
    cases = 0
    fails: list = []
    for a_first in a_first_values:
        for alphas_tail in itertools.product(*tail_ranges):
            alpha = dict(zip(pairs, (a_first,) + alphas_tail))
            for betas in itertools.product(constrained, repeat=n):
                beta = {i + 1: b for i, b in enumerate(betas)}
                f = QuadraticForm(n, alpha, beta, 0)
                terms = _fourier_terms(d, f)
                for j in range(mod):
                    cases += 1
                    if not _identity_holds(d, terms, j):
                        if len(fails) < _MAX_WITNESSES:
                            fails.append((d, f.key(), j))
    return cases, fails


def fourier_sweep(d: int, n: int, processes: int = 1) -> tuple[int, list]:
    """The zero-counting identity for every (alpha, beta) tuple and outcome j.

    Constant terms are omitted: adding gamma translates both sides of the
    identity by the same outcome shift, so the j sweep already covers every
    shifted equation.
    """
    mod = xi_exponent_modulus(d)
    if n == 0:
        f = QuadraticForm(0, {}, {}, 0)
        terms = _fourier_terms(d, f)
        fails = [(d, f.key(), j) for j in range(mod) if not _identity_holds(d, terms, j)]
        return mod, fails
    firsts = list(range(2 * d))
    k = max(processes, 1)
    return _pool_map(_fourier_chunk, [(d, n, firsts[i::k]) for i in range(k)], processes)


def _circuit_case(args) -> tuple[int, list]:
    """One random circuit: every amplitude against the statevector oracle."""
    from .clifford import amplitude, normalize, random_circuit, statevector

    d, seed, max_gates = args
    rng = random.Random(seed)
    m = rng.randrange(1, 4)
    c = random_circuit(d, m, rng.randrange(0, max_gates + 1), rng)
    nc = normalize(c)
    a = tuple(rng.randrange(d) for _ in range(m))
    sv = statevector(c, a)
    for idx in range(d**m):
        b = tuple((idx // d ** (m - 1 - r)) % d for r in range(m))
        if amplitude(nc, a, b) != sv[idx]:
            return 1, [(d, seed, a, b)]
    return 1, []


def clifford_amplitude_sweep(
    d: int, count: int, seed0: int, max_gates: int = 30, processes: int = 1
) -> tuple[int, list]:
    """`count` random circuits at dimension d, all output strings each."""
    jobs = [(d, seed0 + i, max_gates) for i in range(count)]
    return _pool_map(_circuit_case, jobs, processes, chunksize=8)


def _random_half_job(args):
    d, n_max, count, seed = args
    return random_half_sweep(d, n_max, count, seed)


def random_half_sweep_many(
    ds: list[int], n_max: int, count: int, seed: int, processes: int = 1
) -> tuple[int, list]:
    jobs = [(d, n_max, count, seed + d) for d in ds]
    return _pool_map(_random_half_job, jobs, processes)


def selftest(
    max_d: int, max_n: int, seed: int = 0, random_count: int = 200, processes: int = 1
) -> dict:
    """Bounded oracle sweep used by the CLI: exhaustive for n <= 2, random above."""
    cases = 0
    fails: list = []
    for d in range(2, max_d + 1):
        for n in range(0, min(max_n, 2) + 1):
            c, f = exhaustive_half_sweep(d, n, processes=processes)
            cases += c
            fails += f
        if max_n > 2:
            c, f = random_half_sweep(d, max_n, random_count, seed + d)
            cases += c
            fails += f
    return {
        "cases": cases,
        "failures": len(fails),
        "witnesses": [repr(w) for w in fails[:_MAX_WITNESSES]],
    }
