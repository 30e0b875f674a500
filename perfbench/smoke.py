"""Smoke check: every workload, traced and untraced, at tiny sizes.

  python3 perfbench/smoke.py

Asserts that each run is correct and prints exactly the metrics that
BENCHMARK.json declares for its mode, each a number with the declared unit,
and that layers.json assigns every per-layer metric to exactly one layer and
names only known workloads and end-to-end metrics.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import numbers
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    if set(printed) != set(declared):
        problems.append(f"{where}: missing {sorted(set(declared) - set(printed))}, "
                        f"undeclared {sorted(set(printed) - set(declared))}")
    for name, unit in declared.items():
        m = printed.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), numbers.Real):
            problems.append(f"{where}: {name} printed as {m}, declared unit {unit}")
    return problems


def check_layer_map(spec: dict) -> list[str]:
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    owned = Counter(m for layer in layers.values() for m in layer["metrics"])
    problems = [f"layers.json: {m} is in {owned[m]} layers" for m in
                {m["name"] for m in spec["per_layer"]} if owned[m] != 1]
    problems += [f"layers.json: unknown metric {m}" for m in owned
                 if m not in {p["name"] for p in spec["per_layer"]}]
    for name, layer in layers.items():
        if not set(layer["moves"]) <= e2e:
            problems.append(f"layers.json: {name} moves unknown metrics")
        if not set(layer["on"]) | set(layer["unchanged_on"]) <= workloads:
            problems.append(f"layers.json: {name} names unknown workloads")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_layer_map(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
