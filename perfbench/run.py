"""Exact-evaluation benchmark for halfgauss: one closed-loop client, one workload.

  python3 perfbench/run.py --workload dense-forms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Workloads: dense-forms, clifford-sim, holant-affine, prime-modulus (see
workloads.py, and layers.json for which layer each per-layer metric belongs
to and which end-to-end metric it should move).

Every step runs in a fresh interpreter (worker.py) with BLAS/OpenMP thread
counts capped at the number of usable CPUs:

1. the exact correctness gate: a small check set from the workload's own
   generator against the brute-force and statevector oracles, untimed; any
   mismatch fails the run;
2. `--trace 0`: four set-up probes and the timed run.  The timed run calls
   the library until `--seconds` have passed, and at least 100 times, and
   checks every result exactly (certificate leaf products, amplitude versus
   sampled-outcome probability, and for the shipped seed the references in
   refs/).  prime-modulus makes one call per prime and ends when its
   primes run out.  It prints every end-to-end metric;
   `--trace 1`: an untraced and a traced pass over the same fixed list of
   instances, and the per-layer metrics from the traced one.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report.  The exit
code is 0 only for a correct run, and 2 when there is nothing to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("dense-forms", "clifford-sim", "holant-affine", "prime-modulus")
SETUP_PROBES = 4
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{f}.{k}": u for f in TRACED for k, u in (("calls", "count"), ("self_s", "s"))},
    "expsum.reductions": "count",
    "expsum.leaves": "count",
    "expsum.crt_parts": "count",
    "expsum.nonzero_share": "ratio",
    "cyclotomic.result_terms_max": "count",
    "cyclotomic.result_conductor_max": "count",
    "clifford.marginals_per_digit": "ratio",
    "holant.vars_per_grid": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # same set iteration order inside the library in every run
    cap = str(usable_cpus())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = cap
    return env


class Runner:
    """Starts worker steps one at a time, each within what is left of the budget."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def step(self, mode: str, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(WORKER), mode, "--workload", a.workload, "--seed", str(a.seed),
               "--profile", a.profile, *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"no time left for the {mode} step")
        try:
            # subprocess.run kills and reaps the child when the timeout expires
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} step did not finish within the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} step exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def spawn_timed(self, mode: str, *extra: str) -> dict:
        return self.step(mode, "--t0", repr(time.monotonic()), *extra)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def report(name: str, value, unit: str, note: str = ""):
    print(f"  {name:<40} {value:<14.6g} {unit:<6} {note}".rstrip())


def measure_end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.spawn_timed("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    out = runner.spawn_timed("time", "--seconds", str(runner.args.seconds))
    setups.append(out["setup_s"])
    durations = out["durations"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(durations) / sum(durations),
        "latency_p50_s": statistics.median(durations),
        "latency_p90_s": statistics.quantiles(durations, n=10)[-1],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} interpreter starts",
        "throughput_per_s": f"{len(durations)} calls in {sum(durations):.3f} s timed",
        "latency_p50_s": f"{len(durations)} samples",
        "latency_p90_s": f"{len(durations)} samples",
        "peak_rss_mb": f"ru_maxrss after the first {out['rss_calls']} calls",
    }
    for name, unit in END_TO_END.items():
        report(name, metrics[name], unit, notes[name])
    out["attempted"] = len(durations)
    return metrics, out


def measure_layers(runner: Runner) -> tuple[dict, dict]:
    plain = runner.step("pass", "--traced", "0")
    traced = runner.step("pass", "--traced", "1")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    problems = []
    if traced["digests"] != plain["digests"]:
        problems.append("traced results differ from untraced ones")
    if traced["self_s_total"] > traced["wall_s"]:
        problems.append("summed self times exceed the traced wall time")
    for name, unit in PER_LAYER.items():
        report(name, metrics[name], unit)
    print(f"  traced pass: {traced['calls']} calls, {traced['wall_s']:.3f} s traced, "
          f"{plain['wall_s']:.3f} s untraced, self times sum to {traced['self_s_total']:.3f} s")
    out = dict(plain)
    out["attempted"] = plain["calls"] + traced["calls"]
    out["failed"] = plain["failed"] + traced["failed"] + len(problems)
    out["failures"] = plain["failures"] + traced["failures"] + problems
    return metrics, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny: the same generators at small sizes, for the smoke check")
    args = ap.parse_args(argv)
    if not (SRC / "halfgauss" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}; run from a halfgauss checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"profile={args.profile}")
    try:
        gate = runner.step("gate")
        print(f"  gate: {gate['checked']} exact oracle checks, {len(gate['mismatches'])} mismatches")
        if gate["mismatches"]:
            for m in gate["mismatches"][:20]:
                print(f"  gate mismatch: {m}", file=sys.stderr)
            return 1
        metrics, out = (measure_layers if args.trace else measure_end_to_end)(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} calls)")
    print(f"  nonzero values {out['nonzero']} of {out['valued']}; "
          f"reference-checked calls {out['ref_checked']}")
    for f in out["failures"]:
        print(f"  failure: {f}")
    meta = {"nproc": usable_cpus(), "python": out["python"], "numpy": out["numpy"],
            "src_lines": src_lines(), "nonzero": out["nonzero"], "valued": out["valued"]}
    print(f"  meta {json.dumps(meta)}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
