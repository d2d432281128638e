import random

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import (Branch, CircuitSpec, Conventional, Measure,
                            MeasureStep, gate, seq)
from tddeq.encode import compile_spec
from tddeq.logic import BoolFunc
from tddeq.oracle import (OracleScaleError, _apply, identity_choi,
                          oracle_full_eq, oracle_m_eq, oracle_q_eq,
                          outcome_distribution, semantics, superoperator)
from tddeq.textfmt import parse

from dense_ref import record_masses


def test_semantics_conventional_is_singleton():
    c = Conventional((gate("H", ["q0"]), gate("CX", ["q0", "q1"])))
    members = semantics(c, ("q0", "q1"))
    assert len(members) == 1
    h = gate("H", ["q0"]).matrix
    cx = gate("CX", ["q0", "q1"]).matrix
    ref = cx @ np.kron(h, np.eye(2))
    assert np.allclose(members[0].op, ref)


def _kron_embed(mat, positions, n):
    """The k-qubit ``mat`` as a 2^n x 2^n matrix (MSB-first positions),
    built with ``np.kron`` and an axis permutation."""
    order = list(positions) + [p for p in range(n) if p not in positions]
    full = np.kron(mat, np.eye(1 << (n - len(positions)))).reshape((2,) * (2 * n))
    axes = [order.index(p) for p in range(n)]
    return full.transpose(axes + [n + a for a in axes]).reshape(1 << n, 1 << n)


def test_apply_equals_the_kron_embedding():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 3) + 1))
        positions = [int(p) for p in rng.permutation(n)[:k]]
        mat = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
        op = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        want = _kron_embed(mat, positions, n) @ op
        assert np.allclose(_apply(mat, positions, op), want, rtol=0, atol=1e-12), (n, positions)


def test_semantics_teleport_four_members_complete():
    spec = B.teleport()
    members = semantics(spec.circuit, spec.qubits)
    assert len(members) == 4
    total = sum(m.op.conj().T @ m.op for m in members)
    assert np.max(np.abs(total - np.eye(8))) < 1e-9


def test_semantics_collapsing_dispatch_member_count():
    # f maps two outcomes to branch 0 and two to branch 1; branch 1 itself
    # measures, so it has two members
    inner = seq(Conventional((gate("H", ["t"]),)),
                Measure(MeasureStep(("t",), ("d",))))
    br = Branch(MeasureStep(("a",), ("c",)),
                BoolFunc.identity(1),
                (Conventional((gate("X", ["t"]),)), inner))
    members = semantics(br, ("a", "t"))
    # outcome c=0 -> 1 member, outcome c=1 -> 2 members
    assert len(members) == 3


def test_records_are_unique_per_member():
    spec = B.dyn_qft(3)
    members = semantics(spec.circuit, spec.qubits)
    records = [m.record for m in members]
    assert len(set(records)) == len(records)


def test_superoperator_teleport_is_identity_channel():
    choi = superoperator(B.teleport())
    assert np.max(np.abs(choi - identity_choi(1))) < 1e-10


def test_superoperator_of_wrapped_unitary():
    u = gate("H", ["q0"]).matrix
    spec = CircuitSpec(qubits=("q0",), circuit=Conventional((gate("H", ["q0"]),)),
                       fixed_init={}, inputs=("q0",), outputs=("q0",))
    choi = superoperator(spec)
    ref = np.zeros((4, 4), dtype=complex)
    for x in range(2):
        for xp in range(2):
            e = np.zeros((2, 2))
            e[x, xp] = 1.0
            block = u @ e @ u.conj().T
            for o in range(2):
                for op_ in range(2):
                    ref[o * 2 + x, op_ * 2 + xp] += block[o, op_]
    assert np.max(np.abs(choi - ref)) < 1e-10


def test_swap_teleport_same_choi():
    a = superoperator(B.teleport())
    b = superoperator(B.swap_teleport())
    assert np.max(np.abs(a - b)) < 1e-10


def test_outcome_distribution_dyn_pe():
    dist = outcome_distribution(B.dyn_pe(2, 0.25))
    assert abs(dist.get("01", 0.0) - 1.0) < 1e-9


def test_outcome_distribution_measure_h():
    spec = CircuitSpec(qubits=("a",),
                       circuit=seq(Conventional((gate("H", ["a"]),)),
                                   Measure(MeasureStep(("a",), ("c",)))),
                       fixed_init={"a": "0"}, outputs=("a",), output_bits=("c",))
    dist = outcome_distribution(spec)
    assert abs(dist["0"] - 0.5) < 1e-9 and abs(dist["1"] - 0.5) < 1e-9


def test_ifc_inside_a_body_reads_the_record():
    # body s1 runs only on c0 = 1, and its ifc reads c0 from the record
    head = "qubits a t\noutbits r\ninit a=+\ninit t=0\nmeasure a -> c0\n"
    spec = parse(head + "dispatch c0 { 0: s0 1: s1 }\nmeasure t -> r\n"
                 "subcircuit s0 {\n}\nsubcircuit s1 {\n  ifc c0 apply X t\n}\n")
    flat = parse(head + "ifc c0 apply X t\nmeasure t -> r\n")
    dist = outcome_distribution(spec)
    assert abs(dist["0"] - 0.5) < 1e-9 and abs(dist["1"] - 0.5) < 1e-9
    assert oracle_full_eq(spec, flat)


def test_outcome_distribution_requires_m_mode():
    with pytest.raises(ValueError):
        outcome_distribution(B.teleport())


def test_distribution_matches_tdd_readoff_on_random_circuits():
    rng = random.Random(4)
    for _ in range(10):
        spec = B.random_dqc(rng, "m", n_qubits=3)
        dist = outcome_distribution(spec)
        r = compile_spec(spec)
        masses = record_masses(r.mgr, r.tdd, r.m_set)
        for key in set(dist) | set(masses):
            assert abs(dist.get(key, 0.0) - masses.get(key, 0.0)) < 1e-9


def test_oracle_m_eq_pe_pair():
    assert oracle_m_eq(B.pe(2, 0.25), B.dyn_pe(2, 0.25))


def test_oracle_all_three_reflexive():
    spec = B.dyn_pe(2, 0.5)
    assert oracle_m_eq(spec, spec)
    tp = B.teleport()
    assert oracle_q_eq(tp, tp)
    assert oracle_full_eq(tp, tp)


def test_oracle_q_eq_detects_dropped_correction():
    broken = Branch(MeasureStep(("q", "q1"), ("c0", "c1")), BoolFunc.identity(2),
                    (Conventional(()), Conventional((gate("X", ["q2"]),)),
                     Conventional(()),  # Z correction dropped
                     Conventional((gate("X", ["q2"]),))))
    prep = Conventional((gate("H", ["q2"]), gate("CX", ["q2", "q1"]),
                         gate("CX", ["q", "q1"]), gate("H", ["q"])))
    spec = CircuitSpec(qubits=("q", "q1", "q2"), circuit=seq(prep, broken),
                       fixed_init={"q1": "0", "q2": "0"},
                       inputs=("q",), outputs=("q2",))
    assert not oracle_q_eq(spec, B.swap_teleport())


def test_ensemble_completeness_random():
    rng = random.Random(11)
    for _ in range(10):
        spec = B.random_dqc(rng, "q", n_qubits=3)
        members = semantics(spec.circuit, spec.qubits)
        n = len(spec.qubits)
        total = sum(m.op.conj().T @ m.op for m in members)
        assert np.max(np.abs(total - np.eye(1 << n))) < 1e-9


def test_distribution_normalisation_random():
    rng = random.Random(13)
    for _ in range(10):
        spec = B.random_dqc(rng, "m", n_qubits=3)
        dist = outcome_distribution(spec)
        assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_full_eq_implies_m_eq_random():
    rng = random.Random(17)
    hits = 0
    for _ in range(20):
        a = B.random_dqc(rng, "m", n_qubits=3)
        b = B.rewrite(rng, a)
        if oracle_full_eq(a, b):
            hits += 1
            assert oracle_m_eq(a, b)
    assert hits >= 5  # rewrites are equivalence-preserving


def test_oracle_scale_guard():
    qs = tuple(f"q{k}" for k in range(13))
    spec_circ = Conventional((gate("H", ["q0"]),))
    with pytest.raises(OracleScaleError):
        semantics(spec_circ, qs)
