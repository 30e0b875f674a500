"""Per-layer call counts and self times, measured from outside the library.

`Tracer.install` rebinds each traced public function at every halfgauss
module that binds it (the defining module, the package namespace and each
importer, e.g. both `clifford.eval_half_gauss` and `holant.eval_half_gauss`),
so calls between modules are seen too.  `CyclotomicNumber.__mul__` is
rebound on the class.  A wrapper's self time is its wall time minus the wall
time of wrapped calls made inside it.  `uninstall` puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer metric prefix -> (module, attribute); "mul" is a method of CyclotomicNumber
TRACED = {
    "expsum.eval_half_gauss": ("halfgauss.expsum", "eval_half_gauss"),
    "expsum.eval_gauss_quadratic": ("halfgauss.expsum", "eval_gauss_quadratic"),
    "cyclotomic.mul": ("halfgauss.cyclotomic", "CyclotomicNumber.__mul__"),
    "cyclotomic.root_of_unity": ("halfgauss.cyclotomic", "root_of_unity"),
    "cyclotomic.sqrt_int": ("halfgauss.cyclotomic", "sqrt_int"),
    "gauss.gauss_sum": ("halfgauss.gauss", "gauss_sum"),
    "gauss.half_gauss_sum": ("halfgauss.gauss", "half_gauss_sum"),
    "numtheory.factorize": ("halfgauss.numtheory", "factorize"),
    "numtheory.modinv": ("halfgauss.numtheory", "modinv"),
    "clifford.normalize": ("halfgauss.clifford", "normalize"),
    "clifford.phase_polynomial": ("halfgauss.clifford", "phase_polynomial"),
    "clifford.amplitude": ("halfgauss.clifford", "amplitude"),
    "clifford.probability_marginal": ("halfgauss.clifford", "probability_marginal"),
    "holant.holant_affine": ("halfgauss.holant", "holant_affine"),
}

# evaluators whose SumValue results are kept for the certificate counters
EVALUATORS = ("expsum.eval_half_gauss", "expsum.eval_gauss_quadratic")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.sum_values: list = []
        self.recording = False
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        keep = name in EVALUATORS
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                self.self_s[name] += dt - inner
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if keep:
                self.sum_values.append(out)
            return out

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "halfgauss" or k.startswith("halfgauss.")]
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for owner, attr, original in self._patched:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{attr} was not restored")
        self._patched.clear()
