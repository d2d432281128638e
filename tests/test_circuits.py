import itertools
import math
import random

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import (Branch, CircuitSpec, CondGate, Conventional,
                            Gate, Measure, MeasureStep, _check_unitary,
                            _unitary_deviation, flatten, gate,
                            lower_controls, qvar, seq, validate)
from tddeq.logic import BoolFunc
from tddeq.equivalence import check
from tddeq.oracle import oracle_q_eq, superoperator
from tddeq.textfmt import parse, print_spec


@pytest.mark.parametrize("name,k", [
    ("H", 1), ("X", 1), ("Y", 1), ("Z", 1), ("S", 1), ("SDG", 1), ("T", 1),
    ("TDG", 1), ("CX", 2), ("CZ", 2), ("SWAP", 2),
])
def test_library_gates_are_unitary(name, k):
    g = gate(name, [f"q{i}" for i in range(k)])
    d = 1 << k
    assert np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(d))) < 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.1, math.pi / 3, 2.5])
def test_parametric_gates_are_unitary(theta):
    for name, qs in (("P", ["a"]), ("CP", ["a", "b"])):
        g = gate(name, qs, [theta])
        d = g.matrix.shape[0]
        assert np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(d))) < 1e-10


def test_sdg_matrix_value():
    assert np.allclose(gate("SDG", ["q"]).matrix, np.diag([1, -1j]))


def test_unknown_gate_rejected():
    with pytest.raises(ValueError):
        gate("FOO", ["q"])


def _one_gate_spec(g):
    return CircuitSpec(qubits=g.qubits, circuit=Conventional((g,)),
                       fixed_init={q: "0" for q in g.qubits})


def test_non_unitary_gate_rejected_on_every_use():
    # the deviation is cached by matrix bytes; a cache hit must still reject
    mat = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-4j]])  # deviation 1e-8
    before = _unitary_deviation.cache_info().hits
    for _ in range(3):
        bad = Gate("M", (), ("q0",), mat.copy())
        with pytest.raises(ValueError, match="M: matrix is not unitary"):
            _check_unitary(bad)
        errs = validate(_one_gate_spec(bad))
        assert any("M: matrix is not unitary" in e for e in errs)
    assert _unitary_deviation.cache_info().hits >= before + 5


def test_hand_built_float_and_odd_dtype_gates_are_checked():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])           # float64, unitary
    for _ in range(2):
        _check_unitary(Gate("X", (), ("q0",), x))
        assert validate(_one_gate_spec(Gate("X", (), ("q0",), x))) == []
    # the same eight-byte items read as complex64 hold 1.875j, not 1: keyed
    # on raw bytes and dimension, this matrix would hit the float X's entry
    odd = x.view(np.complex64)
    assert odd.shape == (2, 2) and odd.tobytes() == x.tobytes()
    aliased = Gate("Y", (), ("q0",), odd)
    with pytest.raises(ValueError, match="not unitary"):
        _check_unitary(aliased)
    assert any("not unitary" in e for e in validate(_one_gate_spec(aliased)))
    with pytest.raises(ValueError, match="not unitary"):
        _check_unitary(Gate("D", (), ("q0",), np.diag([1.0, 2.0])))


def test_qvar_single_gate():
    assert qvar(Conventional((gate("H", ["q1"]),))) == {"q1"}


def test_qvar_teleport_circuit():
    assert qvar(B.teleport().circuit) == {"q", "q1", "q2"}


def test_qvar_seq_union():
    a = Conventional((gate("H", ["q0"]),))
    b = Conventional((gate("X", ["q1"]),))
    assert qvar(seq(a, b)) == qvar(a) | qvar(b)


def test_validate_teleport_ok():
    assert validate(B.teleport()) == []


def test_validate_branch_on_measured_qubit():
    # a branch body acting on a measured qubit violates the side condition
    bad = Branch(MeasureStep(("q0",), ("c",)), BoolFunc.identity(1),
                 (Conventional(()), Conventional((gate("X", ["q0"]),))))
    spec = CircuitSpec(qubits=("q0",), circuit=bad, fixed_init={"q0": "0"})
    errs = validate(spec)
    assert any("acts on measured" in e for e in errs)


def test_validate_m_mode_requires_no_principal_inputs():
    spec = CircuitSpec(qubits=("q0",),
                       circuit=Measure(MeasureStep(("q0",), ("c",))),
                       fixed_init={}, inputs=("q0",), outputs=("q0",),
                       output_bits=("c",))
    errs = validate(spec)
    assert any("principal inputs" in e for e in errs)


def test_validate_reports_unmeasured_output_bit():
    spec = CircuitSpec(qubits=("q0",), circuit=Conventional(()),
                       fixed_init={"q0": "0"}, output_bits=("c",))
    errs = validate(spec)
    assert any("never measured" in e for e in errs)


def test_validate_bit_used_before_measurement():
    spec = CircuitSpec(
        qubits=("q0",),
        circuit=CondGate(gate("X", ["q0"]), ("c",), BoolFunc.identity(1)),
        fixed_init={"q0": "0"})
    errs = validate(spec)
    assert any("before measurement" in e for e in errs)


def test_validate_rejects_a_read_of_a_bit_measured_on_one_path():
    # d is measured only when body 1 runs, so the ifc after the dispatch
    # has no value of d to read when body 0 runs
    x = BoolFunc.identity(1)
    br = Branch(MeasureStep(("a",), ("c0",)), x,
                (Conventional(()), Measure(MeasureStep(("b",), ("d",)))))
    spec = CircuitSpec(qubits=("a", "b", "t"),
                       circuit=seq(br, CondGate(gate("X", ["t"]), ("d",), x)),
                       fixed_init={"a": "+", "b": "+", "t": "0"}, outputs=("t",))
    errs = validate(spec)
    assert any("bit d is not measured on every path" in e for e in errs)
    assert check(spec, spec, "q")[0].status == "inconclusive"
    # a body may not read a bit that another body measures either
    other = Branch(MeasureStep(("a",), ("c0",)), x,
                   (Measure(MeasureStep(("b",), ("d",))),
                    CondGate(gate("X", ["t"]), ("d",), x)))
    errs = validate(CircuitSpec(qubits=("a", "b", "t"), circuit=other,
                                fixed_init={"a": "+", "b": "+", "t": "0"}))
    assert any("bit d is not measured on every path" in e for e in errs)


def test_validate_is_total_on_junk():
    # arbitrary wrong shapes produce error lists, not crashes
    spec = CircuitSpec(qubits=("q0", "q0"), circuit=Conventional(()),
                       fixed_init={}, inputs=("nope",), outputs=("also-no",))
    errs = validate(spec)
    assert errs


def test_lower_controls_teleport_factorises():
    lowered = lower_controls(B.teleport().circuit)
    steps = flatten(lowered)
    conds = [s for s in steps if isinstance(s, CondGate)]
    assert [c.gate.name for c in conds] == ["X", "Z"]
    # X is driven by the second measured bit (q1's), Z by the first (q's),
    # each a one-bit control on only the bit it reads
    assert [c.bits for c in conds] == [("c1",), ("c0",)]
    assert all(c.func.arity == 1 and [c.func((v,)) for v in (0, 1)] == [0, 1]
               for c in conds)


def test_factorised_teleport_lifts_no_control_function(monkeypatch):
    # one-bit controls take the rank-3 controlled-gate tensor
    import tddeq.encode as E
    calls = []
    lift = E.func_to_tensor
    monkeypatch.setattr(E, "func_to_tensor",
                        lambda *a: calls.append(a) or lift(*a))
    E.compile_spec(B.teleport())
    assert calls == []


def _cond_gates(c):
    return [(s.gate.name, s.gate.qubits, s.bits, s.func)
            for s in flatten(lower_controls(c)) if isinstance(s, CondGate)]


def test_lower_controls_parsed_teleport_factorises_like_built():
    # the parsed X-then-Z body is a Seq of two gate segments, not one
    parsed = parse(print_spec(B.teleport())).circuit
    assert not any(isinstance(s, Branch) for s in flatten(lower_controls(parsed)))
    built = _cond_gates(B.teleport().circuit)
    assert [c[0] for c in built] == ["X", "Z"]
    assert _cond_gates(parsed) == built


def test_lower_controls_reads_body_ifc_on_the_union_of_bits():
    spec = parse("qubits p a t\ninit p=+\ninit a=+\ninit t=0\n"
                 "measure p -> e\ngate H t\nmeasure a -> c\n"
                 "dispatch c { 0: s0 1: s1 }\n"
                 "subcircuit s0 {\n  gate X t\n}\n"
                 "subcircuit s1 {\n  ifc e^c apply Z t\n  gate H t\n}\n")
    (x, z, h) = _cond_gates(spec.circuit)
    assert (x[0], x[2], z[0], z[2], h[0], h[2]) == \
        ("X", ("c",), "Z", ("c", "e"), "H", ("c",))
    assert [x[3]((v,)) for v in (0, 1)] == [1, 0]
    assert [h[3]((v,)) for v in (0, 1)] == [0, 1]
    # body 1 runs when c = 1, where its ifc e^c fires on e = 0
    assert [z[3](v) for v in itertools.product((0, 1), repeat=2)] == [0, 0, 1, 0]


def test_lower_controls_without_branch_is_identity():
    c = Conventional((gate("H", ["q0"]), gate("CX", ["q0", "q1"])))
    assert lower_controls(c) is c


def test_lower_controls_general_fallback():
    # branches {I, X, H, Z} share no gate: each keeps its own guard
    br = Branch(MeasureStep(("a", "b"), ("c0", "c1")), BoolFunc.identity(2),
                (Conventional(()), Conventional((gate("X", ["t"]),)),
                 Conventional((gate("H", ["t"]),)),
                 Conventional((gate("Z", ["t"]),))))
    steps = flatten(lower_controls(br))
    conds = [s for s in steps if isinstance(s, CondGate)]
    assert len(conds) == 3
    for c in conds:
        # one guard per branch value
        assert sum(c.func(b) for b in itertools.product((0, 1), repeat=2)) == 1


def _same_channel(circuit, lowered, qubits, init, outputs):
    specs = [CircuitSpec(qubits=qubits, circuit=c, fixed_init=dict(init),
                         inputs=(), outputs=outputs) for c in (circuit, lowered)]
    assert validate(specs[1]) == []
    return np.max(np.abs(superoperator(specs[0]) - superoperator(specs[1]))) < 1e-10


def test_lower_controls_merges_a_gate_shared_by_bodies():
    # bodies {I, I, Z, XZ}: Z runs whenever c0 = 1, X only when both bits are
    x, z = gate("X", ["t"]), gate("Z", ["t"])
    br = Branch(MeasureStep(("a", "b"), ("c0", "c1")), BoolFunc.identity(2),
                (Conventional(()), Conventional(()), Conventional((z,)),
                 Conventional((x, z))))
    circuit = seq(Conventional((gate("H", ["t"]),)), br)
    lowered = lower_controls(circuit)
    (cx, cz) = [s for s in flatten(lowered) if isinstance(s, CondGate)]
    assert (cx.gate.name, cx.bits, cz.gate.name, cz.bits) == \
        ("X", ("c0", "c1"), "Z", ("c0",))
    assert cz.func.arity == 1 and [cz.func((v,)) for v in (0, 1)] == [0, 1]
    assert [cx.func(v) for v in itertools.product((0, 1), repeat=2)] == [0, 0, 0, 1]
    assert _same_channel(circuit, lowered, ("a", "b", "t"),
                         {"a": "+", "b": "+", "t": "0"}, ("t",))


def test_lower_controls_gate_in_every_body_is_unconditional():
    text = ("qubits a t\ninit a=+\ninit t=0\noutputs t\n"
            "measure a -> c\n{}")
    a = parse(text.format("dispatch c { 0: s 1: s }\n"
                          "subcircuit s {\n  gate H t\n}\n"))
    b = parse(text.format("gate H t\n"))
    lowered = flatten(lower_controls(a.circuit))
    assert [type(s).__name__ for s in lowered] == ["Measure", "Conventional"]
    assert lowered[1].gates[0].name == "H"
    assert oracle_q_eq(a, b)
    assert check(a, b, "q")[0].status == "equivalent"


def test_lower_controls_preserves_semantics_on_random_circuits():
    rng = random.Random(99)
    for trial in range(15):
        prep = Conventional(tuple(
            gate(rng.choice(["H", "X", "S", "T"]), [rng.choice(["q0", "q1", "q2"])])
            for _ in range(4)))
        branches = []
        for i in range(4):
            gates = tuple(gate(rng.choice(["X", "Z", "S"]), ["q2"])
                          for _ in range(rng.randint(0, 2)))
            branches.append(Conventional(gates))
        br = Branch(MeasureStep(("q0", "q1"), ("c0", "c1")),
                    BoolFunc.identity(2), tuple(branches))
        assert _same_channel(seq(prep, br), lower_controls(seq(prep, br)),
                             ("q0", "q1", "q2"),
                             {"q0": "0", "q1": "+", "q2": "0"}, ("q2",))
    # bodies on two target qubits that share gates, with ifcs reading a bit
    # e measured before the dispatch, alone or with a dispatch bit
    e, pair = BoolFunc.identity(1), BoolFunc.identity(2)
    reads = [(("e",), e), (("e",), ~e),
             (("e", "c0"), pair.output_bit(0) ^ pair.output_bit(1)),
             (("c1", "e"), pair.output_bit(0) & pair.output_bit(1))]
    for trial in range(40):
        prep = Conventional(tuple(
            gate(rng.choice(["H", "S", "T"]), [rng.choice(["p", "q0", "q1", "t", "u"])])
            for _ in range(5)))
        bodies = []
        for _ in range(4):
            steps = []
            for _ in range(rng.randint(0, 3)):
                g = rng.choice([gate("X", ["t"]), gate("X", ["u"]), gate("H", ["t"]),
                                gate("CX", ["t", "u"]), gate("CX", ["u", "t"]),
                                gate("S", ["u"])])
                if rng.random() < 0.3:
                    bits, f = rng.choice(reads)
                    steps.append(CondGate(g, bits, f))
                else:
                    steps.append(Conventional((g,)))
            bodies.append(seq(*steps))
        br = Branch(MeasureStep(("q0", "q1"), ("c0", "c1")),
                    BoolFunc.identity(2), tuple(bodies))
        circuit = seq(Measure(MeasureStep(("p",), ("e",))), prep, br)
        lowered = lower_controls(circuit)
        assert not any(isinstance(s, Branch) for s in flatten(lowered))
        assert _same_channel(circuit, lowered, ("p", "q0", "q1", "t", "u"),
                             {"p": "+", "q0": "+", "q1": "+", "t": "0", "u": "+"},
                             ("t", "u")), trial


def test_qvar_invariant_under_lower_controls():
    circ = B.teleport().circuit
    assert qvar(lower_controls(circ)) == qvar(circ)


def test_seq_builder_drops_empty_segments():
    c = seq(Conventional(()), Conventional((gate("H", ["q"]),)), Conventional(()))
    assert isinstance(c, Conventional)
    assert len(c.gates) == 1
    h, x, z = (Conventional((gate(g, ["q"]),)) for g in "HXZ")
    assert seq(seq(h, x), z).steps == (h, x, z)
