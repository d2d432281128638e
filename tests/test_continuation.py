"""Measurements whose qubit keeps evolving (the rank-3 COPY path)."""

import numpy as np

from tddeq import benchmarks as B
from tddeq.circuits import (CircuitSpec, CondGate, Conventional, Measure,
                            MeasureStep, gate, seq, validate)
from tddeq.encode import compile_spec
from tddeq.equivalence import check, q_eq
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_q_eq, outcome_distribution

from dense_ref import record_masses


def remeasure_spec():
    # H, measure, H, measure on one qubit: all four records mass 1/4
    parts = [Conventional((gate("H", ["q0"]),)),
             Measure(MeasureStep(("q0",), ("c0",))),
             Conventional((gate("H", ["q0"]),)),
             Measure(MeasureStep(("q0",), ("c1",)))]
    return CircuitSpec(qubits=("q0",), circuit=seq(*parts),
                       fixed_init={"q0": "0"}, outputs=("q0",),
                       output_bits=("c0", "c1"))


def test_remeasured_qubit_distribution():
    spec = remeasure_spec()
    assert validate(spec) == []
    dist = outcome_distribution(spec)
    r = compile_spec(spec)
    masses = record_masses(r.mgr, r.tdd, r.m_set)
    for key in ("00", "01", "10", "11"):
        assert abs(dist[key] - 0.25) < 1e-9
        assert abs(masses[key] - 0.25) < 1e-9


def test_control_from_earlier_measurement_on_continuing_qubit():
    # measure q0, then use the bit to flip q0 itself back to |0>
    parts = [Conventional((gate("H", ["q0"]),)),
             Measure(MeasureStep(("q0",), ("c0",))),
             CondGate(gate("X", ["q0"]), ("c0",), BoolFunc.identity(1), expr="c0"),
             Measure(MeasureStep(("q0",), ("c1",)))]
    spec = CircuitSpec(qubits=("q0",), circuit=seq(*parts),
                       fixed_init={"q0": "0"}, outputs=("q0",),
                       output_bits=("c0", "c1"))
    dist = outcome_distribution(spec)
    assert abs(dist.get("00", 0) - 0.5) < 1e-9
    assert abs(dist.get("10", 0) - 0.5) < 1e-9  # corrected back to 0
    r = compile_spec(spec)
    masses = record_masses(r.mgr, r.tdd, r.m_set)
    for key, p in dist.items():
        assert abs(masses.get(key, 0.0) - p) < 1e-9


def test_q_mode_measured_output_qubit_is_outcome_dependent():
    # measuring H|0> leaves the output state tied to the outcome: q_eq must
    # say no (even against the circuit itself), and the oracle agrees
    parts = [Conventional((gate("H", ["q0"]),)),
             Measure(MeasureStep(("q0",), ("c0",)))]
    spec = CircuitSpec(qubits=("q0",), circuit=seq(*parts),
                       fixed_init={"q0": "0"}, outputs=("q0",))
    r = compile_spec(spec)
    assert not q_eq(r.mgr, r.tdd, r.tdd, set(r.peel_set))
    assert not oracle_q_eq(spec, spec)
    v, _ = check(spec, spec, "q")
    assert v.status == "not-equivalent"


def test_q_mode_corrected_measured_output_qubit():
    # the same circuit with the outcome corrected away is q-equivalent to
    # preparing |0>
    parts = [Conventional((gate("H", ["q0"]),)),
             Measure(MeasureStep(("q0",), ("c0",))),
             CondGate(gate("X", ["q0"]), ("c0",), BoolFunc.identity(1), expr="c0")]
    spec = CircuitSpec(qubits=("q0",), circuit=seq(*parts),
                       fixed_init={"q0": "0"}, outputs=("q0",))
    ref = CircuitSpec(qubits=("q0",), circuit=Conventional(()),
                      fixed_init={"q0": "0"}, outputs=("q0",))
    v, _ = check(spec, ref, "q")
    assert v.status == "equivalent"
    assert oracle_q_eq(spec, ref)
