"""The benchmark harness in perfbench/ still runs against the library.

The harness modules are loaded by file path, unchanged, so a library rename
that breaks the benchmark fails here and not only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    tracer = _load("tracer")
    for name, (modname, attr) in tracer.TRACED.items():
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_every_workload_runs_at_tiny_profile():
    workloads = _load("workloads")
    for name, cls in workloads.WORKLOADS.items():
        w = cls("tiny")
        inst = w.build(workloads.SHIPPED_SEED, 0)
        assert w.check(inst, w.call(inst)) is None, name
