"""Record the results that timed runs at the shipped seed are checked against.

  python3 perfbench/record_refs.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose results are the
reference, then commit refs/.  Instances are computed in chunks, each in a
fresh interpreter, so the library's caches stay small.  A chunk is one
worker-style step:

  python3 perfbench/record_refs.py --chunk WORKLOAD START STOP
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys

from run import HERE, ROOT, SRC, WORKLOAD_NAMES, child_env

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (needs src/ on the path)

# instances per workload: about three times what a 20 s run makes today, so
# a faster commit is still checked call by call; prime-modulus: all its primes
REF_CALLS = {"dense-forms": 720, "clifford-sim": 600, "holant-affine": 600, "prime-modulus": None}
CHUNK = 120


def chunk(name: str, start: int, stop: int) -> list:
    w = workloads.WORKLOADS[name]()
    return [w.encode(w.call(w.build(workloads.SHIPPED_SEED, i))) for i in range(start, stop)]


def record(name: str):
    total = REF_CALLS[name] or workloads.WORKLOADS[name]().count
    results = []
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        cmd = [sys.executable, str(HERE / "record_refs.py"), "--chunk", name, str(start), str(stop)]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
        results += json.loads(proc.stdout)
        print(f"{name}: {stop} of {total}", flush=True)
    data = {"workload": name, "seed": workloads.SHIPPED_SEED, "results": results}
    blob = json.dumps(data, separators=(",", ":")).encode()
    (HERE / "refs").mkdir(exist_ok=True)
    (HERE / "refs" / f"{name}.json.gz").write_bytes(gzip.compress(blob, mtime=0))


def main() -> int:
    if sys.argv[1:2] == ["--chunk"]:
        name, start, stop = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
        print(json.dumps(chunk(name, start, stop)))
        return 0
    for name in sys.argv[1:] or WORKLOAD_NAMES:
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
