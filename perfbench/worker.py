"""One benchmark step inside a fresh interpreter; prints one JSON line.

Started by run.py, never by hand:

  worker.py gate  --workload W --seed S --profile P
  worker.py setup --workload W --seed S --profile P --t0 T
  worker.py time  --workload W --seed S --profile P --t0 T --seconds N
  worker.py pass  --workload W --seed S --profile P --traced 0|1

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` spans interpreter start, `import halfgauss` and
building the first instance.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads  # imports halfgauss, so it counts towards setup_s
from tracer import TRACED, Tracer

REFS = Path(__file__).resolve().parent / "refs"
MIN_CALLS = 100
LEAF_RULES = ("block_uni_2adic", "block_uni_odd", "block_two_2adic")
CRT_RULES = ("crt_prime_power", "crt_half_split")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_refs(w, seed: int, profile: str) -> list:
    path = REFS / f"{w.name}.json.gz"
    if profile != "full" or not path.is_file():
        return []
    data = json.loads(gzip.decompress(path.read_bytes()))
    return data["results"] if data["seed"] == seed else []


class Checker:
    """Exact per-call checks: the workload's own checks plus the references."""

    def __init__(self, w, seed: int, profile: str):
        self.w, self.seed, self.profile = w, seed, profile
        self.refs = None
        self.failures: list[str] = []
        self.ref_checked = self.nonzero = self.valued = 0

    def __call__(self, i: int, inst, result, error: Exception | None):
        if error is not None:
            self.failures.append(f"call {i} raised {error!r}")
            return
        if self.refs is None:  # loaded after the first timed call, outside set-up
            self.refs = load_refs(self.w, self.seed, self.profile)
        values = self.w.values(result)
        self.valued += len(values)
        self.nonzero += sum(1 for x in values if not x.is_zero())
        problem = self.w.check(inst, result)
        if problem is None and i < len(self.refs):
            self.ref_checked += 1
            if not self.w.matches(result, self.refs[i]):
                problem = "differs from the recorded reference"
        if problem is not None:
            self.failures.append(f"call {i}: {problem}")

    def summary(self) -> dict:
        return {
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "ref_checked": self.ref_checked,
            "nonzero": self.nonzero,
            "valued": self.valued,
        }


def timed_call(w, inst):
    t = perf_counter()
    try:
        return w.call(inst), None, perf_counter() - t
    except Exception as exc:  # a failing call is counted, not fatal
        return None, exc, perf_counter() - t


def run_gate(w, args) -> dict:
    checked, bad = w.gate(args.seed)
    return {"checked": checked, "mismatches": bad}


def run_setup(w, args) -> dict:
    w.build(args.seed, 0)
    return {"setup_s": time.monotonic() - args.t0}


def run_time(w, args) -> dict:
    """Closed loop, one client: whole schedule periods until the deadline, and
    at least MIN_CALLS calls, or until the workload's distinct instances run out."""
    inst = w.build(args.seed, 0)
    setup_s = time.monotonic() - args.t0
    check = Checker(w, args.seed, args.profile)
    rss_calls = MIN_CALLS if w.count is None else min(MIN_CALLS, w.count)
    durations: list[float] = []
    peak = None
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        result, error, dt = timed_call(w, inst)
        durations.append(dt)
        check(i, inst, result, error)
        i += 1
        if i == rss_calls:
            peak = rss_mb()
        if i == w.count or (i >= MIN_CALLS and i % w.period == 0 and perf_counter() >= deadline):
            break
        inst = w.build(args.seed, i)
    return {"setup_s": setup_s, "durations": durations, "peak_rss_mb": peak, "rss_calls": rss_calls,
            **check.summary()}


def layer_metrics(tracer, counts: Counter) -> dict:
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    rules: Counter = Counter()
    for sv in tracer.sum_values:
        rules.update(sv.certificate.rule_counts())
    values = [sv.value for sv in tracer.sum_values]
    out["expsum.reductions"] = rules["congruence_reduction"]
    out["expsum.leaves"] = sum(rules[r] for r in LEAF_RULES)
    out["expsum.crt_parts"] = sum(rules[r] for r in CRT_RULES)
    out["expsum.nonzero_share"] = sum(not x.is_zero() for x in values) / len(values) if values else 0.0
    out["cyclotomic.result_terms_max"] = max((len(x.coeffs) for x in values), default=0)
    out["cyclotomic.result_conductor_max"] = max((x.conductor for x in values), default=0)
    digits = counts["sampled_digits"]
    marginals = tracer.calls["clifford.probability_marginal"]
    out["clifford.marginals_per_digit"] = marginals / digits if digits else 0.0
    grids = tracer.calls["holant.holant_affine"]
    out["holant.vars_per_grid"] = counts["grid_vars"] / grids if grids else 0.0
    return out


def run_pass(w, args) -> dict:
    """A fixed number of calls, traced or not, for the per-layer breakdown.

    The tracer records only inside the timed call, so the per-call checks,
    made in both passes to leave the library's caches in the same state,
    are not counted.  Both passes report a digest per result so the parent
    can assert that tracing changed no result.
    """
    tracer = Tracer() if args.traced else None
    check = Checker(w, args.seed, args.profile)
    counts: Counter = Counter()
    digests: list[str] = []
    wall = 0.0
    calls = w.trace_calls
    if tracer:
        tracer.install()
    try:
        for i in range(calls):
            inst = w.build(args.seed, i)
            if tracer:
                tracer.recording = True
            result, error, dt = timed_call(w, inst)
            if tracer:
                tracer.recording = False
            wall += dt
            check(i, inst, result, error)
            if error is not None:
                digests.append("error")
                continue
            counts.update(w.layer_counts(inst, result))
            blob = json.dumps(w.encode(result), sort_keys=True).encode()
            digests.append(hashlib.sha256(blob).hexdigest())
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        # every SumValue made inside the calls, e.g. within amplitude or holant_affine
        bad = sum(1 for sv in tracer.sum_values if workloads.sum_value_check(sv))
        if bad:
            check.failures.append(f"{bad} evaluator results with a wrong certificate")
    out = {"calls": calls, "wall_s": wall, "digests": digests, **check.summary()}
    if tracer:
        out["self_s_total"] = sum(tracer.self_s.values())
        out["layers"] = layer_metrics(tracer, counts)
    return out


MODES = {"gate": run_gate, "setup": run_setup, "time": run_time, "pass": run_pass}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload](args.profile)
    out = MODES[args.mode](w, args)
    import numpy

    out["python"] = sys.version.split()[0]
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
