import json
import random

import pytest

from halfgauss.cli import format_polynomial, parse_polynomial, run
from halfgauss.expsum import eval_half_gauss, random_periodic_form
from halfgauss.polynomials import QuadraticForm



def test_parse_examples():
    p = parse_polynomial("3*x1^2 + 2*x1*x2 + 1")
    assert p.terms == {(1, 1): 3, (1, 2): 2, (): 1}
    q = p.as_quadratic()
    assert q.a(1, 1) == 3 and q.a(1, 2) == 2 and q.gamma0 == 1

    cubic = parse_polynomial("x1*x2*x3")
    assert cubic.degree() == 3
    with pytest.raises(ValueError):
        cubic.as_quadratic()

    assert parse_polynomial("x1 - x1").terms == {}
    assert parse_polynomial("").terms == {}


def test_parse_round_trips_canonical_printer():
    for src in ["3*x1^2 + 2*x1*x2 + 1", "x1 - 4*x2^2", "-x1*x2 + 7", "2", "x3^3"]:
        p = parse_polynomial(src)
        assert parse_polynomial(format_polynomial(p)).terms == p.terms


def test_parse_errors_have_positions():
    with pytest.raises(ValueError) as exc:
        parse_polynomial("x1 + $")
    assert "position" in str(exc.value)
    with pytest.raises(ValueError):
        parse_polynomial("x")
    with pytest.raises(ValueError):
        parse_polynomial("x1 x2")
    with pytest.raises(ValueError):
        parse_polynomial("x1^y")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def test_eval_sum_half(capsys):
    code, obj = _run_json(capsys, ["eval-sum", "--mode", "half", "--d", "2", "--poly", "x1^2"])
    assert code == 0
    assert obj["value"]["coeffs"] == {"0": "1", "1": "1"}
    assert obj["value"]["pretty"] == "√2·ζ_8"
    assert obj["path"] == "closed-form"


def test_eval_sum_aperiodic_is_usage_error(capsys):
    code, obj = _run_json(capsys, ["eval-sum", "--mode", "half", "--d", "2", "--poly", "x1*x2"])
    assert code == 1
    assert obj["error"]["kind"] == "AperiodicPolynomialError"


def test_eval_sum_general_mode(capsys):
    code, obj = _run_json(
        capsys,
        ["eval-sum", "--mode", "general", "--d", "2", "--phase", "8", "--poly", "x1*x2"],
    )
    assert code == 0
    assert obj["value"]["coeffs"] == {"0": "3", "1": "1"}


def test_check_periodic(capsys):
    code, obj = _run_json(capsys, ["check-periodic", "--d", "2", "--poly", "x1*x2"])
    assert code == 0 and obj["periodic"] is False
    code, obj = _run_json(capsys, ["check-periodic", "--d", "3", "--poly", "x1*x2"])
    assert code == 0 and obj["periodic"] is True


def test_eval_gauss(capsys):
    code, obj = _run_json(capsys, ["eval-gauss", "--a", "1", "--d", "5"])
    assert code == 0 and obj["value"]["pretty"] == "√5"
    code, obj = _run_json(capsys, ["eval-gauss", "--a", "1", "--d", "2", "--half"])
    assert code == 0 and obj["value"]["coeffs"] == {"0": "1", "1": "1"}
    code, obj = _run_json(capsys, ["eval-gauss", "--a", "2", "--d", "4"])
    assert code == 1 and "gcd" in obj["error"]["message"]


def test_simulate_subcommand(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("dim 2\nqudits 1\nF 0\nG 0\nFDAG 0\n")
    code, obj = _run_json(capsys, ["simulate", "--circuit", str(path), "--in", "0", "--out", "0"])
    assert code == 0
    assert obj["amplitude"]["coeffs"] == {"0": "1/2", "1": "1/2"}
    assert obj["probability"] == "1/2"

    code, obj = _run_json(
        capsys,
        ["simulate", "--circuit", str(path), "--in", "0", "--measure", "1", "--outcome", "0"],
    )
    assert code == 0 and obj["probability"] == "1/2"

    code, obj = _run_json(
        capsys,
        ["simulate", "--circuit", str(path), "--in", "0", "--sample", "40", "--seed", "1"],
    )
    assert code == 0 and sum(obj["frequencies"].values()) == 40

    code, obj = _run_json(capsys, ["simulate", "--circuit", str(path), "--in", "0", "--statevector"])
    assert code == 0 and len(obj["statevector"]) == 2


def test_simulate_sampling_reproducible(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("dim 3\nqudits 1\nF 0\n")
    args = ["simulate", "--circuit", str(path), "--in", "0", "--sample", "30", "--seed", "11"]
    _, obj1 = _run_json(capsys, args)
    _, obj2 = _run_json(capsys, args)
    assert obj1["frequencies"] == obj2["frequencies"]


def test_holant_subcommand(tmp_path, capsys):
    grid = {
        "d": 3,
        "edges": ["e1", "e2"],
        "vertices": [
            {"edges": ["e1", "e2"],
             "signature": {"type": "affine", "lambda": 1, "A": [], "g": {"alpha": {"1,2": 2}}}},
            {"edges": ["e1", "e2"],
             "signature": {"type": "affine", "lambda": 1, "A": [], "g": {"alpha": {"1,2": 2}}}},
        ],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, obj = _run_json(capsys, ["holant", "--grid", str(path)])
    assert code == 0 and obj["method"] == "affine-class"
    assert obj["value"]["coeffs"] == {"0": "3"}
    code, obj2 = _run_json(capsys, ["holant", "--grid", str(path), "--brute"])
    assert code == 0 and obj2["value"] == obj["value"]


def test_count_zeros_subcommand(capsys):
    code, obj = _run_json(
        capsys,
        ["count-zeros", "--d", "2", "--poly", "x1^2", "--target", "0", "--modulus", "4", "--check"],
    )
    assert code == 0 and obj["count"] == 1 and obj["fourier_identity"] is True


def test_count_deg3_subcommand(tmp_path, capsys):
    path = tmp_path / "ccz.txt"
    path.write_text("dim 2\nqudits 3\nCCZ 0 1 2\n")
    code, obj = _run_json(capsys, ["count-deg3", "--circuit", str(path), "--k", "0"])
    assert code == 0
    assert obj["count"] == 7 and obj["agree"] is True


def test_table1_gadgets_relations(capsys):
    code, obj = _run_json(capsys, ["table1", "--max-n", "10"])
    assert code == 0 and obj["all_paths_expected"] is True
    code, obj = _run_json(capsys, ["gadgets"])
    assert code == 0 and obj["all_pass"] is True
    code, obj = _run_json(capsys, ["verify-relations", "--d", "3"])
    assert code == 0 and obj["all_pass"] is True


def test_selftest_subcommand(capsys):
    code, obj = _run_json(capsys, ["selftest", "--max-d", "3", "--max-n", "2"])
    assert code == 0
    assert obj["failures"] == 0
    assert obj["cases"] > 1000


def test_bench_subcommand(capsys):
    code, obj = _run_json(capsys, ["bench", "--n", "40", "--d", "12", "--seed", "1"])
    assert code == 0
    assert obj["brute_force_fallbacks"] == 0
    assert "not attempted" in obj["brute_force_terms"]
    # the same form without its linear part is timed too, and says whether
    # its value is nonzero
    variant = obj["beta_removed"]
    assert set(variant) == {"seconds", "nonzero"} and variant["seconds"] >= 0
    f = random_periodic_form(12, 40, random.Random(1))
    want = eval_half_gauss(12, QuadraticForm(f.n, f.alpha, {}, f.gamma0)).value
    assert variant["nonzero"] is (not want.is_zero())


def test_budget_flag(capsys):
    code, obj = _run_json(
        capsys,
        ["--budget", "4", "eval-sum", "--mode", "general", "--d", "3", "--poly", "x1+x2"],
    )
    assert code == 1
    assert obj["error"]["kind"] == "BudgetExceededError"
    assert obj["error"]["needed"] == 9 and obj["error"]["budget"] == 4


def test_missing_file_is_usage_error(capsys):
    code, obj = _run_json(capsys, ["simulate", "--circuit", "/nonexistent", "--in", "0", "--statevector"])
    assert code == 1


def test_internal_consistency_exit_code(capsys, monkeypatch):
    # a consistency fault (a defect signal, never produced by healthy code)
    # must surface as exit code 2 with a machine-readable diagnostic
    from halfgauss import cli as climod
    from halfgauss.errors import InternalConsistencyError

    def broken(args):
        raise InternalConsistencyError("probability is not rational")

    monkeypatch.setattr(climod, "_cmd_gadgets", broken)
    code, obj = _run_json(capsys, ["gadgets"])
    assert code == 2
    assert obj["error"]["kind"] == "internal-consistency"


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    # anything outside the usage and consistency errors is an internal fault:
    # exit code 2 and a JSON error naming the exception type, no traceback
    from halfgauss import cli as climod

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(climod, "_cmd_gadgets", broken)
    code, obj = _run_json(capsys, ["gadgets"])
    assert code == 2
    assert obj["error"]["kind"] == "RuntimeError"
    assert obj["error"]["message"] == "boom"


def test_eval_sum_2adic_modulus_2_pow_24(capsys):
    poly = "2097152*x1^2 + 2097152*x1*x2 + 2097152*x2^2 + 2097152*x1*x3 + 4194304*x3^2"
    code, obj = _run_json(capsys, ["eval-sum", "--d", "16777216", "--poly", poly])
    assert code == 0
    assert obj["value"]["pretty"] == "-73786976294838206464·√2·ζ_8^3"


def test_approx_only_does_not_change_verdicts(capsys):
    code, obj = _run_json(
        capsys, ["--approx-only", "eval-sum", "--mode", "half", "--d", "2", "--poly", "x1^2"]
    )
    assert code == 0
    assert "coeffs" not in obj["value"] and "approx" in obj["value"]
    code2, obj2 = _run_json(
        capsys, ["--approx-only", "eval-sum", "--mode", "half", "--d", "2", "--poly", "x1*x2"]
    )
    assert code2 == 1


def test_bench_value_beyond_float_range_is_strict_json(capsys):
    # the value's coefficients are far beyond float range: approx is a finite
    # mantissa pair with a binary exponent
    code, obj = _run_json(capsys, ["bench", "--n", "500", "--d", "720", "--seed", "1"])
    assert code == 0
    approx = obj["value"]["approx"]
    assert set(approx) == {"re", "im", "exp2"} and approx["exp2"] > 1024
    assert 0 < abs(complex(approx["re"], approx["im"])) < 4


def test_brute_force_paths_are_bounded_by_the_grid(capsys):
    # a huge phase modulus or counting modulus costs the grid, not the modulus
    big = str(10**16)
    code, obj = _run_json(
        capsys, ["eval-sum", "--mode", "general", "--d", "2", "--phase", big, "--poly", "x1"]
    )
    assert code == 0
    assert obj["value"]["conductor"] == 10**16 and obj["value"]["coeffs"] == {"0": "1", "1": "1"}
    code, obj = _run_json(
        capsys, ["count-zeros", "--d", "3", "--poly", "x1^2", "--target", "1", "--modulus", big]
    )
    assert code == 0 and obj["count"] == 1


def test_eval_sum_phase_modulus_at_and_beyond_2_pow_63(capsys):
    # factorization strips 2 and 3 before its 2^63 cap, so a phase modulus of
    # 2^63 works; one whose part prime to 6 reaches 2^63 is a usage error
    # that names the phase modulus
    argv = ["eval-sum", "--mode", "general", "--d", "2", "--poly", "x1", "--phase"]
    code, obj = _run_json(capsys, argv + [str(1 << 63)])
    assert code == 0
    assert obj["value"]["conductor"] == 1 << 63 and obj["value"]["coeffs"] == {"0": "1", "1": "1"}
    big = str((1 << 64) + 1)
    code, obj = _run_json(capsys, argv + [big])
    assert code == 1 and obj["error"]["kind"] == "ValueError"
    assert f"phase modulus {big}" in obj["error"]["message"]
    assert "factorize" not in obj["error"]["message"]
