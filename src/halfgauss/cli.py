"""Command-line interface: JSON on stdout, human summaries on stderr.

Exit codes: 0 success, 1 usage or input error (bad grammar, aperiodic input
on a fast path, budget refusal), 2 internal fault (an internal-consistency
failure or any other unexpected exception, reported as a JSON error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from .clifford import (
    normalize,
    amplitude,
    parse_circuit_text,
    probability_marginal,
    sample_many,
    statevector,
    verify_gate_relations,
)
from .cyclotomic import SignConvention, to_json_dict
from .errors import (
    AperiodicPolynomialError,
    BudgetExceededError,
    InternalConsistencyError,
)
from .expsum import (
    _reduction,
    check_periodicity,
    eval_gauss_quadratic,
    eval_half_gauss_with_convention,
    random_periodic_form,
)
from .gauss import gauss_sum, half_gauss_sum
from .hardness import classification_evidence, verify_gadgets
from .holant import (
    AffineSignature,
    ProductSignature,
    grid_from_json,
    holant_affine,
    holant_brute,
    holant_product,
)
from .oracle import SumDescriptor, brute_sum, count_solutions, fourier_zero_identity_check
from .polynomials import QuadraticForm, format_polynomial, parse_polynomial
from .sweeps import selftest


# ---------------------------------------------------------------------------
# helpers


def _digits(s: str, m: int, d: int) -> tuple[int, ...]:
    raw = s.split(",") if "," in s else list(s)
    vals = tuple(int(x) for x in raw)
    if len(vals) != m:
        raise ValueError(f"expected {m} digits, got {len(vals)}")
    if any(v < 0 or v >= d for v in vals):
        raise ValueError(f"digits must lie in [0, {d})")
    return vals


def _conv(name: str) -> SignConvention:
    return SignConvention.MINUS_FOR_EVEN if name == "minus" else SignConvention.PLUS


def _cert_json(cert) -> dict:
    return {"rules": cert.rule_counts(), "steps": len(cert.steps)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval_sum(args) -> dict:
    poly = parse_polynomial(args.poly)
    d = args.d
    if args.mode == "general":
        phase = args.phase if args.phase is not None else d
        value = brute_sum(SumDescriptor(d, phase, poly), budget=args.budget)
        return {
            "mode": "general",
            "d": d,
            "phase": phase,
            "poly": format_polynomial(poly),
            "path": "brute-force",
            "value": to_json_dict(value, approx_only=args.approx_only),
        }
    quad = poly.as_quadratic()
    if args.mode == "half":
        if not check_periodicity(d, quad):
            raise AperiodicPolynomialError(
                "polynomial is aperiodic for this d; rerun with --mode general "
                f"--phase {2 * d} for the brute-force path"
            )
        sv = eval_half_gauss_with_convention(d, quad, _conv(args.convention))
        return {
            "mode": "half",
            "d": d,
            "convention": args.convention,
            "poly": format_polynomial(poly),
            "path": "closed-form",
            "value": to_json_dict(sv.value, approx_only=args.approx_only),
            "certificate": _cert_json(sv.certificate),
        }
    sv = eval_gauss_quadratic(d, quad)
    return {
        "mode": "full",
        "d": d,
        "poly": format_polynomial(poly),
        "path": "closed-form",
        "value": to_json_dict(sv.value, approx_only=args.approx_only),
        "certificate": _cert_json(sv.certificate),
    }


def _cmd_eval_gauss(args) -> dict:
    if args.half:
        value = half_gauss_sum(args.a, args.d, _conv(args.convention))
    else:
        value = gauss_sum(args.a, args.d)
    return {
        "a": args.a,
        "d": args.d,
        "half": bool(args.half),
        "convention": args.convention,
        "value": to_json_dict(value, approx_only=args.approx_only),
    }


def _cmd_check_periodic(args) -> dict:
    quad = parse_polynomial(args.poly).as_quadratic()
    return {"d": args.d, "poly": format_polynomial(quad.to_int_polynomial()),
            "periodic": check_periodicity(args.d, quad)}


def _cmd_simulate(args) -> dict:
    with open(args.circuit) as fh:
        circ = parse_circuit_text(fh.read())
    nc = normalize(circ)
    a = _digits(args.inp, circ.m, circ.d)
    out: dict = {"d": circ.d, "qudits": circ.m, "h": nc.h, "segments": nc.n}
    if args.statevector:
        sv = statevector(circ, a, budget=args.budget)
        out["statevector"] = [to_json_dict(v, approx_only=args.approx_only) for v in sv]
    elif args.out is not None:
        b = _digits(args.out, circ.m, circ.d)
        amp = amplitude(nc, a, b)
        p = (amp * amp.conj()).as_rational()
        out["amplitude"] = to_json_dict(amp, approx_only=args.approx_only)
        out["probability"] = str(p)
    elif args.sample is not None:
        k = args.measure if args.measure else circ.m
        draws = sample_many(nc, a, k, args.sample, args.seed)
        freq: dict[str, int] = {}
        for t in draws:
            key = ",".join(str(x) for x in t)
            freq[key] = freq.get(key, 0) + 1
        out["samples"] = args.sample
        out["seed"] = args.seed
        out["measured"] = k
        out["frequencies"] = dict(sorted(freq.items()))
    elif args.outcome is not None:
        if not args.measure:
            raise ValueError("--outcome requires --measure k")
        b = _digits(args.outcome, args.measure, circ.d)
        p = probability_marginal(nc, a, b)
        out["measured"] = args.measure
        out["outcome"] = list(b)
        out["probability"] = str(p)
        out["probability_float"] = float(p)
    else:
        raise ValueError("choose one of --out, --measure/--outcome, --sample, --statevector")
    return out


def _cmd_holant(args) -> dict:
    with open(args.grid) as fh:
        grid = grid_from_json(json.load(fh))
    conv = _conv(args.convention)
    if args.brute:
        method = "brute-force"
        value = holant_brute(grid, conv, budget=args.budget)
    elif all(isinstance(v.signature, ProductSignature) for v in grid.vertices):
        method = "product-class"
        value = holant_product(grid)
    elif all(isinstance(v.signature, AffineSignature) for v in grid.vertices):
        method = "affine-class"
        value = holant_affine(grid, conv)
    else:
        method = "brute-force"
        value = holant_brute(grid, conv, budget=args.budget)
    return {
        "d": grid.d,
        "edges": len(grid.edges),
        "vertices": len(grid.vertices),
        "method": method,
        "value": to_json_dict(value, approx_only=args.approx_only),
    }


def _cmd_count_zeros(args) -> dict:
    poly = parse_polynomial(args.poly)
    count = count_solutions(args.d, poly, args.target, args.modulus, budget=args.budget)
    out = {
        "d": args.d,
        "poly": format_polynomial(poly),
        "target": args.target,
        "modulus": args.modulus,
        "count": count,
    }
    if args.check:
        quad = poly.as_quadratic()
        out["fourier_identity"] = fourier_zero_identity_check(args.d, quad, args.target, budget=args.budget)
    return out


def _cmd_count_deg3(args) -> dict:
    from .hardness import degree3_zero_count_demo, diagonal_phase_poly

    with open(args.circuit) as fh:
        circ = parse_circuit_text(fh.read())
    mod = circ.d if circ.d % 2 else 2 * circ.d
    got = degree3_zero_count_demo(circ, args.target, budget=args.budget)
    poly = diagonal_phase_poly(circ)
    direct = count_solutions(circ.d, poly, args.target, mod, budget=args.budget)
    return {
        "d": circ.d,
        "registers": circ.m,
        "phase_poly": format_polynomial(poly),
        "target": args.target,
        "modulus": mod,
        "count": got,
        "direct_count": direct,
        "agree": got == direct,
    }


def _cmd_table1(args) -> dict:
    rows = classification_evidence(args.max_n, seed=args.seed, budget=args.budget)
    return {"max_n": args.max_n, "rows": rows, "all_paths_expected": all(r["path_ok"] for r in rows)}


def _cmd_gadgets(args) -> dict:
    rep = verify_gadgets()
    return {"identities": rep, "all_pass": all(rep.values())}


def _cmd_verify_relations(args) -> dict:
    rep = verify_gate_relations(args.d)
    return {"d": args.d, "identities": rep, "all_pass": all(rep.values())}


def _cmd_selftest(args) -> dict:
    return selftest(args.max_d, args.max_n, seed=args.seed, random_count=args.random_count,
                    processes=args.processes)


def _cmd_bench(args) -> dict:
    import random as _random

    rng = _random.Random(args.seed)
    f = random_periodic_form(args.d, args.n, rng)
    t0 = time.perf_counter()
    sv = eval_half_gauss_with_convention(args.d, f, SignConvention.PLUS)
    dt = time.perf_counter() - t0
    # a zero value stops after the frame that gives it; the same quadratic
    # part without its linear part is timed too, its frames computed afresh
    _reduction.cache_clear()
    t0 = time.perf_counter()
    sv0 = eval_half_gauss_with_convention(args.d, QuadraticForm(f.n, f.alpha, {}, f.gamma0), SignConvention.PLUS)
    dt0 = time.perf_counter() - t0
    brute_digits = args.n * len(str(args.d))
    return {
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "seconds": dt,
        "certificate": _cert_json(sv.certificate),
        "brute_force_fallbacks": 1 if sv.certificate.uses_brute_force() else 0,
        "brute_force_terms": f"{args.d}^{args.n} (~10^{brute_digits - 1}; not attempted)",
        "value": {"approx": to_json_dict(sv.value, approx_only=True)["approx"],
                  "coefficients": len(sv.value.coeffs),
                  "conductor": sv.value.conductor},
        "beta_removed": {"seconds": dt0, "nonzero": not sv0.value.is_zero()},
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="halfgauss",
        description="Exact quadratic exponential sums, qudit Clifford simulation, Holant evaluation.",
    )
    ap.add_argument("--budget", type=int, default=None, help="brute-force term budget (default 1e7 or HG_BUDGET)")
    ap.add_argument("--approx-only", action="store_true", help="emit only float approximations of values")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-sum", help="evaluate Z_{1/2}(d,f), Z(d,f) or a general incomplete sum")
    p.add_argument("--mode", choices=["half", "full", "general"], default="half")
    p.add_argument("--d", "--domain", dest="d", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--phase", type=int, default=None, help="phase modulus for --mode general")
    p.add_argument("--convention", choices=["plus", "minus"], default="plus")
    p.set_defaults(fn=_cmd_eval_sum)

    p = sub.add_parser("eval-gauss", help="univariate Gauss / half Gauss sums")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--half", action="store_true")
    p.add_argument("--convention", choices=["plus", "minus"], default="plus")
    p.set_defaults(fn=_cmd_eval_gauss)

    p = sub.add_parser("check-periodic", help="test the periodicity condition")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_check_periodic)

    p = sub.add_parser("simulate", help="simulate a qudit Clifford circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--in", dest="inp", required=True, help="input basis state digits")
    p.add_argument("--out", default=None, help="output digits for one amplitude")
    p.add_argument("--measure", type=int, default=None, help="number of measured registers")
    p.add_argument("--outcome", default=None, help="digits for a marginal probability")
    p.add_argument("--sample", type=int, default=None, help="number of Born-rule samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--statevector", action="store_true")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("holant", help="evaluate a signature grid (JSON file)")
    p.add_argument("--grid", required=True)
    p.add_argument("--brute", action="store_true")
    p.add_argument("--convention", choices=["plus", "minus"], default="plus")
    p.set_defaults(fn=_cmd_holant)

    p = sub.add_parser("count-zeros", help="count solutions of f = j (mod m)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--check", action="store_true", help="also verify the Fourier identity")
    p.set_defaults(fn=_cmd_count_zeros)

    p = sub.add_parser("count-deg3", help="cubic zero counting via diagonal-circuit amplitudes")
    p.add_argument("--circuit", required=True, help="circuit file over {Z, G, CZ, CCZ}")
    p.add_argument("--k", dest="target", type=int, required=True)
    p.set_defaults(fn=_cmd_count_deg3)

    p = sub.add_parser("table1", help="classification-cell runtime evidence")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("gadgets", help="verify the {H,Z,CS} gadget identities")
    p.set_defaults(fn=_cmd_gadgets)

    p = sub.add_parser("verify-relations", help="verify the gate algebra at dimension d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_verify_relations)

    p = sub.add_parser("selftest", help="exhaustive oracle sweeps")
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-count", type=int, default=200)
    p.add_argument("--processes", type=int, default=1)
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser("bench", help="time one random periodic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)

    return ap


def run(argv: list[str]) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        result = args.fn(args)
    except InternalConsistencyError as exc:
        json.dump({"error": {"kind": "internal-consistency", "message": str(exc)}}, sys.stdout)
        print(file=sys.stdout)
        print(f"internal-consistency fault: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AperiodicPolynomialError, BudgetExceededError, OSError) as exc:
        kind = type(exc).__name__
        payload = {"error": {"kind": kind, "message": str(exc)}}
        if isinstance(exc, BudgetExceededError):
            payload["error"]["needed"] = exc.needed
            payload["error"]["budget"] = exc.budget
        json.dump(payload, sys.stdout)
        print(file=sys.stdout)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a defect, not a usage error: keep its traceback on stderr for the report
        traceback.print_exc(file=sys.stderr)
        kind = type(exc).__name__
        json.dump({"error": {"kind": kind, "message": str(exc)}}, sys.stdout)
        print(file=sys.stdout)
        print(f"internal fault: {kind}: {exc}", file=sys.stderr)
        return 2
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    print(file=sys.stdout)
    print(f"{args.command}: ok", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
