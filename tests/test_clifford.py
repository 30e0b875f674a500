import random
from fractions import Fraction

import pytest

from halfgauss.clifford import (
    Circuit,
    Gate,
    NormalizedCircuit,
    amplitude,
    circuit_from_polynomial,
    format_circuit,
    gate_matrix,
    normalize,
    parse_circuit_text,
    phase_polynomial,
    probability_marginal,
    random_circuit,
    sample,
    sample_many,
    statevector,
    verify_gate_relations,
)
from halfgauss.cyclotomic import one, root_of_unity, sqrt_int, xi_pow
from halfgauss.errors import BudgetExceededError
from halfgauss.polynomials import QuadraticForm


def all_states(d, m):
    for idx in range(d**m):
        yield tuple((idx // d ** (m - 1 - r)) % d for r in range(m))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CZ", (0, 0))
    with pytest.raises(ValueError):
        Gate("NOPE", (0,))
    with pytest.raises(ValueError):
        Circuit(3, 1, (Gate("Z", (2,)),))


def test_normalize_rejects_qubit_only_kinds():
    for kind, targets in [("H", (0,)), ("S", (0,)), ("CS", (0, 1)), ("CX", (0, 1)), ("CCZ", (0, 1, 2))]:
        c = Circuit(2, 3, (Gate(kind, targets),))
        with pytest.raises(ValueError):
            normalize(c)


def test_normalize_empty():
    nc = normalize(Circuit(5, 1, ()))
    assert (nc.h, nc.n) == (2, 1)
    assert nc.internal == ()


def test_normalize_internal_gate_set():
    rng = random.Random(0)
    for _ in range(20):
        c = random_circuit(rng.choice([2, 3, 4]), rng.randrange(1, 4), rng.randrange(0, 15), rng)
        nc = normalize(c)
        assert all(g.kind in {"Z", "G", "F", "CZ"} for g in nc.internal)
        assert nc.n == nc.h - nc.m


def test_normalize_preserves_unitary_exactly():
    rng = random.Random(1)
    for _ in range(30):
        d = rng.choice([2, 3, 4, 5])
        m = rng.randrange(1, 3)
        c = random_circuit(d, m, rng.randrange(0, 9), rng)
        nc = normalize(c)
        for a in all_states(d, m):
            assert statevector(c, a) == statevector(nc, a)


def test_compiled_gate_identities():
    # X = F^3 Z F and Y = G X^(d-1) G^(2d-1), exactly including phase
    for d in (2, 3, 5, 6):
        for kind in ("X", "Y", "FDAG"):
            c = Circuit(d, 1, (Gate(kind, (0,)),))
            nc = normalize(c)
            for a in all_states(d, 1):
                assert statevector(c, a) == statevector(nc, a)


def test_phase_polynomial_examples():
    nc = normalize(Circuit(3, 1, ()))
    s, lab = phase_polynomial(nc)
    assert s.key() == QuadraticForm(1).key()
    assert lab.inceptive == lab.terminal == (1,)
    assert not lab.internal

    s_in = QuadraticForm(1, {(1, 1): 1})
    nc = normalize(circuit_from_polynomial(s_in, 3))
    s, _ = phase_polynomial(nc)
    assert s.key() == s_in.key()

    s_in = QuadraticForm(2, {(1, 2): 2})
    nc = normalize(circuit_from_polynomial(s_in, 4))
    s, _ = phase_polynomial(nc)
    assert s.key() == s_in.key()
    assert nc.h == 4 and nc.n == 2


def test_phase_polynomial_always_periodic():
    from halfgauss.expsum import check_periodicity

    rng = random.Random(2)
    for _ in range(25):
        d = rng.choice([2, 3, 4, 6])
        c = random_circuit(d, rng.randrange(1, 4), rng.randrange(0, 20), rng)
        s, _ = phase_polynomial(normalize(c))
        assert check_periodicity(d, s)


def test_circuit_from_polynomial_rejects_aperiodic():
    with pytest.raises(ValueError):
        circuit_from_polynomial(QuadraticForm(2, {(1, 2): 3}), 4)
    with pytest.raises(ValueError):
        circuit_from_polynomial(QuadraticForm(1, {}, {1: 5}), 4)


def test_theta_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randrange(2, 8)
        n = rng.randrange(1, 6)
        alpha = {}
        beta = {}
        for i in range(1, n + 1):
            alpha[(i, i)] = rng.randrange(2 * d)
            beta[i] = 2 * rng.randrange(d)
            for j in range(i + 1, n + 1):
                alpha[(i, j)] = 2 * rng.randrange(d)
        s = QuadraticForm(n, alpha, beta, 0)
        got, _ = phase_polynomial(normalize(circuit_from_polynomial(s, d)))
        assert got.key() == s.key()


def test_amplitude_examples():
    nc = normalize(Circuit(4, 1, ()))
    assert amplitude(nc, (0,), (0,)) == one()
    nc = normalize(circuit_from_polynomial(QuadraticForm(1, {(1, 1): 1}), 2))
    assert amplitude(nc, (0,), (0,)) == (one() + root_of_unity(4, 1)).scale(Fraction(1, 2))
    # (F^dag Z F)|0> has no overlap with |0> at d = 3
    nc = normalize(Circuit(3, 1, (Gate("F", (0,)), Gate("Z", (0,)), Gate("FDAG", (0,)))))
    assert amplitude(nc, (0,), (0,)).is_zero()


def test_amplitude_matches_statevector_random():
    rng = random.Random(4)
    for _ in range(25):
        d = rng.choice([2, 3, 4, 5, 6])
        m = rng.randrange(1, 4)
        c = random_circuit(d, m, rng.randrange(0, 12), rng)
        nc = normalize(c)
        a = tuple(rng.randrange(d) for _ in range(m))
        sv = statevector(c, a)
        for idx, b in enumerate(all_states(d, m)):
            assert amplitude(nc, a, b) == sv[idx]


def _sv_marginal(c, a, b):
    d, m, k = c.d, c.m, len(b)
    sv = statevector(c, a)
    total = Fraction(0)
    for idx, digits in enumerate(all_states(d, m)):
        if digits[:k] == b:
            total += (sv[idx] * sv[idx].conj()).as_rational()
    return total


def test_probability_marginal_examples():
    nc = normalize(Circuit(2, 1, ()))
    assert probability_marginal(nc, (0,), (0,)) == 1
    # a Fourier layer makes the outcome uniform
    nc = normalize(Circuit(3, 1, (Gate("F", (0,)),)))
    for b in range(3):
        assert probability_marginal(nc, (0,), (b,)) == Fraction(1, 3)
    nc = normalize(Circuit(2, 2, (Gate("CZ", (0, 1)),)))
    got = probability_marginal(nc, (0, 0), (0,))
    assert got == _sv_marginal(Circuit(2, 2, (Gate("CZ", (0, 1)),)), (0, 0), (0,))


def test_probability_marginal_random():
    rng = random.Random(5)
    for _ in range(15):
        d = rng.choice([2, 3, 4])
        m = rng.randrange(1, 4)
        c = random_circuit(d, m, rng.randrange(0, 10), rng)
        nc = normalize(c)
        a = tuple(rng.randrange(d) for _ in range(m))
        for k in {1, m}:
            total = Fraction(0)
            for b_idx in range(d**k):
                b = tuple((b_idx // d ** (k - 1 - r)) % d for r in range(k))
                p = probability_marginal(nc, a, b)
                assert 0 <= p <= 1
                assert p == _sv_marginal(c, a, b)
                total += p
            assert total == 1


def test_probability_marginal_register_without_internal_fourier():
    # register r0 carries no internal F: either it has no gates at all, or
    # C' puts only diagonal gates on it.  Its one segment variable is then
    # inceptive and terminal at once, measured for k > r0 and shared by the
    # two copies of the doubled form for k <= r0
    rng = random.Random(31)
    for d in (2, 3, 6):
        m = 3 if d < 6 else 2
        for t in range(6):
            r0 = rng.randrange(m)
            others = [r for r in range(m) if r != r0]
            gates = [Gate(rng.choice(["F", "Z", "G"]), (rng.choice(others),)) for _ in range(5)]
            if t % 2:
                c = Circuit(d, m, tuple(gates))
                nc = normalize(c)
            else:
                gates += [Gate(rng.choice(["Z", "G"]), (r0,)), Gate("CZ", (r0, rng.choice(others)))]
                rng.shuffle(gates)
                h = 2 * m + sum(g.kind == "F" for g in gates)
                c = nc = NormalizedCircuit(d, m, tuple(gates), h, h - m)
            assert len(phase_polynomial(nc)[1].per_register[r0]) == 1
            a = tuple(rng.randrange(d) for _ in range(m))
            probs = [(x * x.conj()).as_rational() for x in statevector(c, a)]
            for k in range(1, m + 1):
                for b in all_states(d, k):
                    want = sum(p for p, digits in zip(probs, all_states(d, m)) if digits[:k] == b)
                    assert probability_marginal(nc, a, b) == want, (d, gates, a, b)


def test_probability_equals_amplitude_squared_when_all_measured():
    rng = random.Random(6)
    for _ in range(10):
        d = rng.choice([2, 3])
        m = rng.randrange(1, 3)
        c = random_circuit(d, m, rng.randrange(0, 8), rng)
        nc = normalize(c)
        a = tuple(rng.randrange(d) for _ in range(m))
        for b in all_states(d, m):
            amp = amplitude(nc, a, b)
            assert probability_marginal(nc, a, b) == (amp * amp.conj()).as_rational()


def test_sample_deterministic_and_supported():
    nc = normalize(Circuit(3, 1, ()))
    assert sample(nc, (2,), 1, seed=9) == (2,)
    nc = normalize(Circuit(3, 2, (Gate("F", (0,)), Gate("CZ", (0, 1)))))
    s1 = sample(nc, (1, 0), 2, seed=5)
    s2 = sample(nc, (1, 0), 2, seed=5)
    assert s1 == s2
    draws = sample_many(nc, (1, 0), 2, 200, seed=5)
    probs = {b: probability_marginal(nc, (1, 0), b) for b in set(draws)}
    assert all(p > 0 for p in probs.values())


def test_statevector_examples_and_budget():
    sv = statevector(Circuit(2, 1, (Gate("F", (0,)),)), (0,))
    assert sv[0] == sv[1] == sqrt_int(2).scale(Fraction(1, 2))
    sv = statevector(Circuit(3, 1, (Gate("G", (0,)),)), (1,))
    assert sv[1] == xi_pow(3, 1) and sv[0].is_zero()
    sv = statevector(Circuit(3, 1, (Gate("Z", (0,)),)), (2,))
    assert sv[2] == root_of_unity(3, 2)
    with pytest.raises(BudgetExceededError):
        statevector(Circuit(2, 13, ()), (0,) * 13)


def test_statevector_and_gate_matrix_share_columns():
    for d in range(2, 7):
        kinds = ["X", "Y", "Z", "G", "F", "FDAG"] + (["H", "S", "SDAG"] if d == 2 else [])
        for kind in kinds:
            mat = gate_matrix(kind, d)
            for k in range(d):
                sv = statevector(Circuit(d, 1, (Gate(kind, (0,)),)), (k,))
                assert sv == [mat[l][k] for l in range(d)], (kind, d, k)
    for kind in ("H", "S", "SDAG"):
        with pytest.raises(ValueError):
            gate_matrix(kind, 3)
        with pytest.raises(ValueError):
            statevector(Circuit(3, 1, (Gate(kind, (0,)),)), (0,))
    with pytest.raises(ValueError):
        statevector(Circuit(3, 2, (Gate("CS", (0, 1)),)), (1, 1))


def test_verify_gate_relations():
    for d in (2, 3, 6):
        rep = verify_gate_relations(d)
        assert all(rep.values()), rep
    with pytest.raises(ValueError):
        verify_gate_relations(17)


def test_circuit_text_roundtrip():
    text = "dim 3\nqudits 2\nF 0\nG 1 *2\nCZ 0 1\nX 1\n"
    c = parse_circuit_text(text)
    assert c.d == 3 and c.m == 2
    assert c.gates[1] == Gate("G", (1,), 2)
    assert parse_circuit_text(format_circuit(c)) == c
    with pytest.raises(ValueError):
        parse_circuit_text("qudits 2\nF 0\n")
    with pytest.raises(ValueError):
        parse_circuit_text("dim 3\nqudits 1\nF zero\n")


def _cancel_f_quads_by_rescan(gates, m):
    """Reference: delete the first run of four F on one register, then rescan."""
    while True:
        runs = {r: [] for r in range(m)}
        for pos, g in enumerate(gates):
            if g.kind == "F":
                runs[g.targets[0]].append(pos)
                if len(runs[g.targets[0]]) == 4:
                    drop = set(runs[g.targets[0]])
                    gates = [h for i, h in enumerate(gates) if i not in drop]
                    break
            else:
                for r in g.targets:
                    runs[r] = []
        else:
            return gates


def test_cancel_f_quads_one_pass_matches_rescan():
    from halfgauss.clifford import _cancel_f_quads

    rng = random.Random(12)
    for _ in range(3000):
        m = rng.randrange(1, 4)
        gates = []
        for _ in range(rng.randrange(0, 30)):
            kind = rng.choice(["F", "F", "F", "F", "Z", "G", "CZ"])
            if kind == "CZ" and m > 1:
                gates.append(Gate("CZ", tuple(rng.sample(range(m), 2))))
            else:
                gates.append(Gate("F" if kind == "CZ" else kind, (rng.randrange(m),)))
        assert _cancel_f_quads(gates, m) == _cancel_f_quads_by_rescan(gates, m)
