"""Fixed input states folded into the netlist.

The compiler carries each fixed-input qubit as a dense 2-vector until a
step entangles it: a 1-qubit gate updates the vector, a gate that passes
through a qubit in a basis state is sliced at that state, any other step
takes the vector into its own tensor, and a measurement or the finish
emits it as a rank-1 entry; rank-1 entries on one index multiply into one.
These tests check each rule against a dense statevector in the COPY
semantics of measurement, an oracle fuzz over 0/1/+ inputs, and the sizes
that folding makes reachable.
"""

import random
from collections import Counter

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import (INIT_STATES, CircuitSpec, CondGate, Conventional,
                            Measure, MeasureStep, flatten, gate, seq, validate)
from tddeq.encode import compile_spec, prepare
from tddeq.equivalence import check
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.textfmt import parse

_X, _PAIR = BoolFunc.identity(1), BoolFunc.identity(2)
GUARDS = {1: _X, 2: _PAIR.output_bit(0) ^ _PAIR.output_bit(1)}
THETA = 0.7


def _reference(spec):
    """Dense tensor of ``spec`` over its outcome indices, and their names.

    A measurement copies its qubit's value onto its bit; a guarded gate
    acts where its guard holds.  Every qubit must end in a measurement,
    whose bit then names the qubit's final wire, as in the compiler.
    """
    names = list(spec.qubits)
    t = np.array(1.0 + 0j)
    for q in spec.qubits:
        t = np.multiply.outer(t, INIT_STATES[spec.fixed_init[q]])
    last = {}

    def apply(t, g):
        k, pos = len(g.qubits), [names.index(q) for q in g.qubits]
        u = g.matrix.reshape((2,) * (2 * k))
        return np.moveaxis(np.tensordot(u, t, (list(range(k, 2 * k)), pos)), range(k), pos)

    for st in flatten(spec.circuit):
        if isinstance(st, Measure):
            for q, b in zip(st.step.qubits, st.step.bits):
                ax = names.index(q)
                t = np.stack([np.where(np.indices(t.shape)[ax] == v, t, 0) for v in (0, 1)], -1)
                names.append(b)
                last[q] = b
            continue
        g = st.gates[0] if isinstance(st, Conventional) else st.gate
        for q in g.qubits:
            last.pop(q, None)
        if isinstance(st, Conventional):
            t = apply(t, g)
            continue
        pos = [names.index(b) for b in st.bits]
        fired = np.zeros(t.shape, dtype=bool)
        for idx in np.ndindex(*t.shape):
            fired[idx] = st.func(tuple(idx[p] for p in pos))
        t = np.where(fired, apply(t, g), t)
    assert set(last) == set(spec.qubits), "every qubit must end measured"
    for q, b in last.items():
        t = np.diagonal(t, axis1=names.index(q), axis2=names.index(b))
        names = [n for n in names if n not in (q, b)] + [b]
    return t, [f"outbit:{spec.output_bits.index(b)}" if b in spec.output_bits else f"bit:{b}"
               for b in names]


def _assert_dense(spec):
    """The compiled diagram of ``spec`` equals ``_reference`` entry for entry."""
    want, names = _reference(spec)
    r = compile_spec(spec, mode="m")
    have = [i.name for i in r.tdd.indices]
    assert sorted(have) == sorted(names)
    got = np.transpose(r.mgr.to_dense(r.tdd), [have.index(n) for n in names])
    assert np.max(np.abs(got - want)) < 1e-12
    return r


def _spec(init: str, *steps, bits=None):
    """Qubits a, b, c, ... with ``init`` states; ``steps`` as text lines."""
    qs = [chr(ord("a") + k) for k in range(len(init))]
    lines = [f"qubits {' '.join(qs)}"] + [f"init {q}={s}" for q, s in zip(qs, init)]
    body = list(steps) + [f"measure {q} -> o{k}" for k, q in enumerate(qs)]
    out = bits or [f"o{k}" for k in range(len(qs))]
    return parse("\n".join([lines[0], f"outbits {' '.join(out)}"] + lines[1:] + body) + "\n")


def _rank1(net):
    return [e for e in net.entries if len(e.indices) == 1]


# -- one dense check per rule -----------------------------------------------------


def test_one_qubit_gates_update_the_state():
    r = _assert_dense(_spec("0", "gate H a", "gate T a", "gate H a"))
    assert [e.kind for e in r.net.entries] == ["init"]


@pytest.mark.parametrize("init", ["11", "10", "01", "00"])
def test_cp_on_basis_states_keeps_its_phase(init):
    # all-basis slices leave the phase e^{i theta} on |11> in a's state
    r = _assert_dense(_spec(init, f"gate CP({THETA}) a b", "gate CZ b a"))
    assert [len(e.indices) for e in r.net.entries] == [1, 1]
    want = np.exp(1j * THETA) * -1 if init == "11" else 1
    d = r.mgr.to_dense(r.tdd)
    assert abs(d[int(init[0]), int(init[1])] - want) < 1e-12


def test_cp_on_one_becomes_a_phase_on_the_other_qubit():
    # b = |1> slices CP to P on a = |+>: a relative phase, no entangling entry
    r = _assert_dense(_spec("+1", f"gate CP({THETA}) b a", "gate H a"))
    assert all(len(e.indices) == 1 for e in r.net.entries)
    r = _assert_dense(_spec("+0", f"gate CP({THETA}) b a", "gate H a"))
    assert all(len(e.indices) == 1 for e in r.net.entries)


@pytest.mark.parametrize("init", ["+0", "+1", "0+", "1+", "++"])
def test_state_taken_into_cx_control_and_target(init):
    # a non-basis control scales the CX's held axis; a target state is
    # summed into its in axis; a basis control slices the CX to X or to
    # nothing.  T makes a = |+> asymmetric, so a reversed axis shows
    r = _assert_dense(_spec(init, "gate T a", "gate CX a b", "gate H a"))
    entangled = init[0] == "+"
    assert any(len(e.indices) == 2 for e in r.net.entries) == entangled
    assert not any(e.kind == "init" and e.indices[0].startswith("w:") for e in r.net.entries)


@pytest.mark.parametrize("b_init", ["0", "1", "+"])
@pytest.mark.parametrize("arity", [1, 2])
def test_guarded_phase_on_a_basis_qubit(b_init, arity):
    # on |1> a guarded P is a phase on its guard bits, on |0> nothing, on
    # |+> it takes the state in
    guard = "m0" if arity == 1 else "m0 ^ m1"
    head = "gate H c\nmeasure c -> m1\n" if arity == 2 else ""
    spec = parse(f"qubits a b c\noutbits o0 o1 o2\ninit a=+\ninit b={b_init}\ninit c=+\n"
                 f"measure a -> m0\n{head}ifc {guard} apply P({THETA}) b\n"
                 "gate H b\nmeasure a -> o0\nmeasure b -> o1\nmeasure c -> o2\n")
    assert validate(spec) == []
    r = _assert_dense(spec)
    on_b = [e for e in r.net.entries if e.kind == "cond"]
    if b_init == "0":
        assert on_b == []
    elif b_init == "1":
        # the guard bits alone; on one bit the phase is a rank-1 entry, which
        # multiplies into the identity that joins m0 to o0
        assert [len(e.indices) for e in on_b] == ([] if arity == 1 else [arity])
        if arity == 1:
            (e,) = [e for e in r.net.entries if "bit:m0" in e.indices]
            assert e.indices == ("bit:m0", "outbit:0")
            assert np.isclose(e.payload[1, 1] / e.payload[0, 0], np.exp(1j * THETA))
    else:
        assert [len(e.indices) for e in on_b] == [arity + 1]


def test_measurement_of_a_carried_qubit():
    # the state goes out as a rank-1 entry on the outcome, the measured
    # wire's new name, and multiplies into the CX that holds it; b's state
    # is summed into the CX's in axis.  Each later measurement of a reads an
    # outcome, which keeps its name, so an identity joins it to the next one
    spec = _spec("+0", "measure a -> m", "gate CX a b", "measure a -> n",
                 bits=["o0", "o1"])
    r = _assert_dense(spec)
    assert [(e.kind, e.indices) for e in r.net.entries] == [
        ("gate", ("bit:m", "outbit:1")), ("ident", ("bit:m", "bit:n")),
        ("ident", ("bit:n", "outbit:0"))]
    assert np.allclose(r.net.entries[0].payload, np.eye(2) / np.sqrt(2))
    # a final measurement of a carried qubit leaves its state on the outcome
    r = _assert_dense(_spec("+1"))
    assert [(e.kind, e.indices) for e in r.net.entries] == [
        ("init", ("outbit:0",)), ("init", ("outbit:1",))]


def test_rank1_entries_on_one_index_merge():
    # a = |+> measured into o0; three guarded phases on basis qubits |1>
    # and a 1-qubit diagonal after it all land on o0: one entry
    spec = parse("qubits a b c d\noutbits o0 o1 o2 o3\n"
                 "init a=+\ninit b=1\ninit c=1\ninit d=0\n"
                 f"gate H a\ngate T a\nmeasure a -> o0\n"
                 f"ifc o0 apply P({THETA}) b\nifc o0 apply P(0.3) c\nifc o0 apply Z d\n"
                 "gate H b\nmeasure b -> o1\nmeasure c -> o2\nmeasure d -> o3\n")
    r = _assert_dense(spec)
    assert sorted(e.indices for e in _rank1(r.net)) == [("outbit:0",), ("outbit:1",),
                                                       ("outbit:2",), ("outbit:3",)]
    assert len(r.net.entries) == 4
    # 1-qubit diagonals on an entangled wire multiply into the first CX,
    # which holds that wire
    spec = _spec("+0", "gate CX a b", "gate T a", "gate S a", "gate CX a b", "gate H b")
    r = _assert_dense(spec)
    assert _rank1(r.net) == []
    assert [(e.kind, e.indices) for e in r.net.entries] == [
        ("gate", ("outbit:0", "w:b.1")), ("gate", ("outbit:0", "w:b.2", "w:b.1")),
        ("gate", ("outbit:1", "w:b.2"))]


# -- oracle fuzz over 0/1/+ inputs ---------------------------------------------------


ONE, TWO = ("H", "X", "Z", "S", "T", "P"), ("CX", "CZ", "CP", "SWAP")
GUARDED = ("P", "Z", "X", "H", "CP", "CX")
ANGLES = (0.3, 1.1, np.pi / 2, np.pi)


class _FoldGen:
    """One random circuit on fixed 0/1/+ inputs; gate number ``drop`` is left
    out.  Dropping a gate draws the same random numbers as keeping it.

    Gates act on qubits still in their input state, so every folding rule
    fires: 1-qubit gates, 2-qubit gates on basis and non-basis states,
    guarded gates on one or two bits over carried qubits, and measurements
    of carried qubits.  In q-mode the principal qubit ``r`` is open.
    """

    def __init__(self, seed: int, drop: int | None = None):
        self.rng = random.Random(seed)
        self.drop = drop
        self.gates = 0

    def _numbered(self, step):
        self.gates += 1
        return [] if self.gates == self.drop else [step]

    def _gate(self, names, qubits):
        rng = self.rng
        name = rng.choice(names)
        qs = rng.sample(qubits, 2 if name in TWO else 1)
        return gate(name, qs, [rng.choice(ANGLES)] if name in ("P", "CP") else [])

    def spec(self, mode: str) -> CircuitSpec:
        rng = self.rng
        work = ["a", "b", "c"]
        qubits = work + (["r"] if mode == "q" else ["d"])
        meas = work if mode == "q" else qubits
        steps, scope = [], []
        for _ in range(rng.randint(4, 9)):
            r = rng.random()
            if r < 0.3:
                steps += self._numbered(Conventional((self._gate(ONE, qubits),)))
            elif r < 0.6:
                steps += self._numbered(Conventional((self._gate(TWO, qubits),)))
            elif r < 0.75 or not scope:
                b = f"m{len(scope)}"
                steps.append(Measure(MeasureStep((rng.choice(meas),), (b,))))
                scope.append(b)
            else:
                k = min(len(scope), rng.choice((1, 2)))
                g = self._gate(GUARDED, qubits)
                steps += self._numbered(CondGate(g, tuple(rng.sample(scope, k)), GUARDS[k]))
        init = {q: rng.choice("01+") for q in meas}
        for q in meas:
            if rng.random() < 0.5:
                steps += self._numbered(Conventional((gate("H", [q]),)))
        bits = tuple(f"o{k}" for k in range(len(meas)))
        steps.append(Measure(MeasureStep(tuple(meas), bits)))
        if mode == "m":
            return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                               fixed_init=init, output_bits=bits)
        return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                           fixed_init=init, inputs=("r",), outputs=("r",))


def folding_pair(seed: int, mode: str):
    """(A, B): B is A without one gate, or A itself in one pair in ten."""
    gen = _FoldGen(seed)
    a = gen.spec(mode)
    rng = random.Random(seed)
    drop = None if rng.random() < 0.1 or not gen.gates else rng.randint(1, gen.gates)
    return a, _FoldGen(seed, drop).spec(mode)


def test_folding_agrees_with_oracle():
    oracle = {"m": oracle_m_eq, "q": oracle_q_eq}
    tally = Counter()
    for seed in range(120):
        for mode in ("m", "q"):
            a, b = folding_pair(seed, mode)
            assert validate(a) == [] and validate(b) == [], (seed, mode)
            if mode == "m":
                _assert_dense(a)
            want = "equivalent" if oracle[mode](a, b) else "not-equivalent"
            for plan in ("basic", "partitioned"):
                v, _ = check(a, b, mode, plan)
                assert v.status == want, (seed, mode, plan, v.reason)
                tally[mode, want] += 1
    assert sum(tally.values()) >= 400
    assert all(tally[mode, want] >= 40 for mode in "mq"
               for want in ("equivalent", "not-equivalent")), tally


# -- sizes that folding reaches ----------------------------------------------------


def _ghz(n: int, extra: str = "") -> str:
    qs = [f"q{k}" for k in range(n)]
    lines = [f"qubits {' '.join(qs)}", f"outbits {' '.join(f'c{k}' for k in range(n))}"]
    lines += [f"init {q}=0" for q in qs] + ["gate H q0"]
    lines += [f"gate CX q{k} q{k + 1}" for k in range(n - 1)] + ([extra] if extra else [])
    return "\n".join(lines + [f"measure q{k} -> c{k}" for k in range(n)]) + "\n"


@pytest.mark.parametrize("plan", ["basic", "partitioned"])
def test_ghz_200_is_decided(plan):
    # every wire used to stay open until the final measurements: open rank 32
    base = parse(_ghz(200))
    for extra, want in (("gate Z q0", "equivalent"), ("gate X q0", "not-equivalent")):
        v, rep = check(base, parse(_ghz(200, extra)), "m", plan)
        assert v.status == want, (extra, v.reason)
        assert rep.max_nodes <= 400


def test_qft_16_on_a_basis_input_folds_to_one_entry_per_qubit():
    bits = "0110100111001010"
    for spec in (B.qft(16, bits), B.dyn_qft(16, bits)):
        _, (net,) = prepare([spec])
        assert sorted(e.indices for e in net.entries) == sorted(
            (f"outbit:{k}",) for k in range(16))
        for e in net.entries:    # each qubit ends in an equal superposition
            assert np.allclose(np.abs(e.payload), 2 ** -0.5)
    v, _ = check(B.qft(16, bits), B.dyn_qft(16, bits), "m")
    assert v.status == "equivalent"
