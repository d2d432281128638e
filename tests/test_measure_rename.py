"""An unguarded measurement renames its qubit's wire to the outcome.

The compiler emits no tensor for a measurement of q into c: every entry
that holds q's current wire takes c instead, and c is q's wire until a step
that does not pass q through opens a fresh segment.  These tests compare
the compiled diagram with the COPY network of the circuit (a fresh wire at
every step, every measurement a rank-3 COPY, every guarded step a dense
tensor), check the invariants of the compacted netlist, and run an oracle
fuzz over circuits whose measured qubits are used again.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import (INIT_STATES, Branch, CircuitSpec, CondGate,
                            CondMeasure, Conventional, Measure, MeasureStep,
                            flatten, gate, lower_controls, seq, validate)
from tddeq.encode import COPY3, UNTAKEN, compile_spec, prepare
from tddeq.equivalence import check
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.textfmt import parse

_X, _PAIR = BoolFunc.identity(1), BoolFunc.identity(2)
_XOR = _PAIR.output_bit(0) ^ _PAIR.output_bit(1)


# -- the COPY network of a circuit -------------------------------------------------


def _copy_network(spec, mode, open_inputs=False):
    """``spec`` as (tensor, legs) pairs with a fresh wire at every step, and
    its open legs.  A measurement is COPY3(c, x, y); a guarded step is one
    dense tensor over its bits; every qubit ends on a leg of its own: its
    principal output ``out:q``, its discard ``disc:q``, or in m-mode its
    last wire ``end:q``."""
    tensors, opened, seg, cur = [], [], Counter(), {}

    def fresh(q):
        seg[q] += 1
        cur[q] = f"r:{q}.{seg[q]}"
        return cur[q]

    def outcome(bit):
        if bit in spec.output_bits:
            return f"outbit:{spec.output_bits.index(bit)}"
        return f"bit:{bit}"

    def guarded(func, bits, on, off):
        t = np.stack([on if func(v) else off
                      for v in itertools.product((0, 1), repeat=len(bits))])
        return t.reshape((2,) * len(bits) + on.shape), [outcome(b) for b in bits]

    for q in spec.qubits:
        if q in spec.inputs or open_inputs:
            cur[q] = f"w:{q}.0"
            opened.append(cur[q])
        else:
            tensors.append((INIT_STATES[spec.fixed_init.get(q, "0")], [fresh(q)]))
    for st in flatten(lower_controls(spec.circuit)):
        if isinstance(st, (Conventional, CondGate)):
            for g in st.gates if isinstance(st, Conventional) else (st.gate,):
                k = len(g.qubits)
                ins = [cur[q] for q in g.qubits]
                legs = [fresh(q) for q in g.qubits] + ins
                u = g.matrix.reshape((2,) * (2 * k))
                if isinstance(st, CondGate):
                    t, bits = guarded(st.func, st.bits, u, np.eye(1 << k).reshape(u.shape))
                    tensors.append((t, bits + legs))
                else:
                    tensors.append((u, legs))
            continue
        for q, bit in zip(st.step.qubits, st.step.bits):
            c = outcome(bit)
            opened.append(c)
            x = cur[q]
            legs = [c, x, fresh(q)]
            if isinstance(st, CondMeasure):
                t, bits = guarded(st.func, st.bits, COPY3, UNTAKEN)
                tensors.append((t, bits + legs))
            else:
                tensors.append((COPY3, legs))
    for q in spec.qubits:
        if q in spec.outputs and (mode == "q" or not spec.output_bits):
            end = f"out:{q}"
        else:
            end = f"disc:{q}" if mode == "q" else f"end:{q}"
        tensors.append((np.eye(2), [cur[q], end]))
        opened.append(end)
    return tensors, list(dict.fromkeys(opened))


def _contract(tensors, opened):
    """Dense contraction of (tensor, legs) pairs, one tensor at a time;
    (array, legs) over the open legs."""
    out, names = np.array(1.0 + 0j), []
    for k, (t, legs) in enumerate(tensors):
        later = {n for _, ls in tensors[k + 1:] for n in ls} | set(opened)
        every = list(dict.fromkeys(names + legs))
        keep = [n for n in every if n in later]
        lab = {n: j for j, n in enumerate(every)}
        out = np.einsum(out, [lab[n] for n in names], t, [lab[n] for n in legs],
                        [lab[n] for n in keep])
        names = keep
    return out, names


def _assert_copy_network(spec, mode, open_inputs=False):
    """The compiled diagram of ``spec`` equals its COPY network.  A leg of
    the network that the diagram lacks must repeat one that it keeps (the
    network vanishes off their diagonal), and the diagonal is compared."""
    ref, names = _contract(*_copy_network(spec, mode, open_inputs))
    r = compile_spec(spec, mode=mode, open_inputs=open_inputs)
    # the compiler leaves an m-mode qubit's last wire open under its segment name
    have = [i.name for i in r.tdd.indices]
    mapped = [f"end:{n[2:].split('.')[0]}"
              if n.startswith("w:") and n not in r.net.in_names else n for n in have]
    for leg in [n for n in names if n not in mapped]:
        ax = names.index(leg)
        for other in mapped:
            bx = names.index(other)
            off = np.moveaxis(ref, (ax, bx), (0, 1))[[0, 1], [1, 0]]
            if not np.abs(off).max(initial=0.0) > 1e-12:
                break
        else:
            raise AssertionError(f"leg {leg} repeats no leg of the diagram")
        ref = np.moveaxis(np.diagonal(ref, axis1=ax, axis2=bx), -1, min(ax, bx))
        names = [n for n in names if n != leg]
    assert sorted(mapped) == sorted(names)
    got = np.transpose(r.mgr.to_dense(r.tdd), [mapped.index(n) for n in names])
    assert np.max(np.abs(got - ref), initial=0.0) < 1e-9
    return r


def _assert_invariants(net):
    """No entry comes from an unguarded measurement: an identity joins only
    an index that keeps its name (an open input wire or an outcome) to the
    next one.  No entry holds an index twice, and every index that is not
    open has at least two holders, so the contraction sums it."""
    held = Counter()
    for e in net.entries:
        assert e.kind in ("init", "gate", "cond", "cmeasure", "ident"), e.kind
        assert len(set(e.indices)) == len(e.indices), e.indices
        if e.kind == "ident":
            assert e.indices[0] in net.open_names, e.indices
        held.update(e.indices)
    lone = [n for n, k in held.items() if k < 2 and n not in net.open_names]
    assert lone == []


def _net(spec, **kw):
    return prepare([spec], **kw)[1][0]


# -- one dense check per case --------------------------------------------------------


def test_a_reset_is_one_rank2_entry():
    # measure, then X under the same bit: the X's in wire is the outcome
    # itself, so its guarded tensor keeps the (c, c) diagonal, and a's
    # state multiplies into it
    spec = parse("qubits a b\noutbits o0 o1\ninit a=+\ninit b=+\ngate CX a b\n"
                 "measure a -> c\nifc c apply X a\ngate H a\ngate CX a b\n"
                 "measure a -> o0\nmeasure b -> o1\n")
    r = _assert_copy_network(spec, "m")
    _assert_invariants(r.net)
    (reset,) = [e for e in r.net.entries if e.kind == "cond"]
    assert len(reset.indices) == 2 and reset.indices[0] == "bit:c"
    # reset to |0>: the pair is m-equivalent to a plain reset by CX
    other = parse("qubits a b\noutbits o0 o1\ninit a=+\ninit b=+\ngate CX a b\n"
                  "measure a -> c\nifc c apply X a\ngate H a\ngate CX a b\n"
                  "gate Z a\nmeasure a -> o0\nmeasure b -> o1\n")
    assert check(spec, other, "m")[0].status == "equivalent"


@pytest.mark.parametrize("after", ["gate T a", "gate CZ a b", "gate CX a b",
                                   "gate T a\ngate H a", "gate CP(0.7) b a\ngate H a"])
def test_a_gate_after_a_measurement(after):
    # a pass-through gate holds the outcome; any other step opens a fresh
    # segment whose in wire is the outcome
    spec = parse("qubits a b\noutbits o0 o1\ninit a=+\ninit b=+\ngate T b\n"
                 f"gate CX b a\nmeasure a -> c\n{after}\nmeasure a -> o0\n"
                 "gate H b\nmeasure b -> o1\n")
    r = _assert_copy_network(spec, "m")
    _assert_invariants(r.net)


@pytest.mark.parametrize("mode", ["m", "q"])
def test_a_measurement_of_an_open_input(mode):
    # the open input wire keeps its name: one identity joins it to c
    spec = parse("qubits a t\ninputs a t\noutputs t\ngate T a\nmeasure a -> c\n"
                 "ifc c apply X t\ngate H a\nmeasure a -> d\n")
    r = _assert_copy_network(spec, mode, open_inputs=True)
    _assert_invariants(r.net)
    assert [e.indices for e in r.net.entries if e.kind == "ident"][0] == ("w:a.0", "bit:c")


def test_a_measurement_of_a_carried_qubit():
    # a's state goes out on the outcome, which later steps read as a's wire
    spec = parse("qubits a b\noutbits o0 o1\ninit a=+\ninit b=0\ngate T a\n"
                 "measure a -> c\ngate CX a b\ngate H a\nmeasure a -> o0\n"
                 "measure b -> o1\n")
    r = _assert_copy_network(spec, "m")
    _assert_invariants(r.net)
    assert all(e.kind != "init" for e in r.net.entries if "bit:c" in e.indices)


@pytest.mark.parametrize("after", ["", "gate T r\n"])
def test_a_q_mode_principal_output_measured_last(after):
    # the outcome keeps its name, so an identity joins it to the output leg
    spec = parse("qubits r a\ninputs r\noutputs r\ninit a=+\ngate CX a r\n"
                 f"measure r -> c\n{after}")
    r = _assert_copy_network(spec, "q")
    _assert_invariants(r.net)
    assert [e.indices for e in r.net.entries if e.kind == "ident"] == [("bit:c", "out:r")]


@pytest.mark.parametrize("after", ["", "gate T a\n", "gate S a\ngate Z a\n"])
def test_a_q_mode_discard_measured_last(after):
    # the outcome holds a's last value, so a gets no discard leg
    spec = parse("qubits r a\ninputs r\noutputs r\ninit a=+\ngate CX a r\ngate H a\n"
                 f"measure a -> c\n{after}")
    r = _assert_copy_network(spec, "q")
    _assert_invariants(r.net)
    assert "disc:a" not in r.net.decls and "bit:c" in r.net.peel_set


def _measuring_dispatch(arity: int, mode: str):
    """b measured into e, then a dispatch on a (and p) whose body corrects
    b under e, measures b again and resets it, and a correction of a under
    c ^ e.  b's wire is e under the first correction and a's wire is c
    under the last, so each is a guard bit and an axis of one guarded
    tensor."""
    measured, bits = ("a", "p")[:arity], ("c", "f")[:arity]
    body = seq(CondGate(gate("X", ["b"]), ("e",), _X),
               Measure(MeasureStep(("b",), ("d",))),
               CondGate(gate("X", ["b"]), ("d",), _X), Conventional((gate("H", ["b"]),)))
    bodies = (seq(Conventional((gate("T", ["t"]),))), body) + \
        tuple(seq(Conventional((gate("H", ["t"]),))) for _ in range((1 << arity) - 2))
    steps = [Conventional((gate("H", ["a"]), gate("H", ["p"]), gate("CX", ["a", "b"]),
                           gate("H", ["b"]), gate("CX", ["p", "t"]))),
             Measure(MeasureStep(("b",), ("e",))),
             Branch(MeasureStep(measured, bits), _X if arity == 1 else _PAIR, bodies),
             CondGate(gate("Z", ["a"]), ("c", "e"), _XOR),
             Conventional((gate("CX", ["b", "t"]),))]
    work = ("a", "p", "b")
    outs = tuple(f"o{k}" for k in range(3))
    if mode == "m":
        steps.append(Measure(MeasureStep(work + ("t",), outs + ("o3",))))
        return CircuitSpec(qubits=work + ("t",), circuit=seq(*steps),
                           fixed_init={"a": "0", "p": "0", "b": "+", "t": "0"},
                           output_bits=outs + ("o3",))
    steps.append(Measure(MeasureStep(work, outs)))
    return CircuitSpec(qubits=work + ("t",), circuit=seq(*steps),
                       fixed_init={"a": "0", "p": "0", "b": "+"}, inputs=("t",), outputs=("t",))


@pytest.mark.parametrize("mode", ["m", "q"])
@pytest.mark.parametrize("arity", [1, 2])
def test_a_guarded_measurement_keeps_its_guarded_tensor(arity, mode):
    spec = _measuring_dispatch(arity, mode)
    assert validate(spec) == []
    r = _assert_copy_network(spec, mode)
    _assert_invariants(r.net)
    (e,) = [e for e in r.net.entries if e.kind == "cmeasure"]
    assert "bit:d" in e.indices
    # a guard bit that is also an axis is held once, and named twice by
    # the guarded payload, which multiplies the two pointwise
    shared = [e for e in r.net.entries if isinstance(e.payload, tuple)
              and len(e.payload[1]) > len(e.indices)]
    assert {n for e in shared for n in e.payload[1] if e.payload[1].count(n) == 2} == \
        {"bit:c", "bit:e"}


def test_rank1_entry_on_an_internal_wire_multiplies_into_its_host():
    # T on a after the CX: rank 1 on a wire held by the CX and by H, so it
    # is multiplied in pointwise and the wire stays for H to sum
    spec = parse("qubits a b\noutbits o0 o1\ninit a=+\ninit b=0\ngate CX a b\n"
                 "gate T a\ngate H a\nmeasure a -> o0\nmeasure b -> o1\n")
    r = _assert_copy_network(spec, "m")
    _assert_invariants(r.net)
    assert all(len(e.indices) > 1 for e in r.net.entries)


def test_rank1_entry_with_one_other_holder_is_summed_out_there():
    # c still carries |1> when a body measures it: the state goes out on
    # c's wire, which only the guarded measurement also holds, so it is
    # summed into that measurement's in axis
    spec = parse("qubits a c\noutbits o0 o1\ninit a=+\ninit c=1\nmeasure a -> m\n"
                 "dispatch m { 0: sub0 1: sub1 }\nmeasure a -> o0\nmeasure c -> o1\n"
                 "subcircuit sub0 {\n  gate P(0.3) c\n}\n"
                 "subcircuit sub1 {\n  measure c -> x\n  ifc x apply X c\n  gate H c\n}\n")
    assert validate(spec) == []
    r = _assert_copy_network(spec, "m")
    _assert_invariants(r.net)
    (e,) = [e for e in r.net.entries if e.kind == "cmeasure"]
    assert "w:c.0" not in e.indices and "init" not in [e.kind for e in r.net.entries]


# -- netlist invariants ---------------------------------------------------------------


def test_invariants_on_library_circuits():
    nets = [_net(B.qft(6, "01+0+1")), _net(B.dyn_qft(6, "01+0+1")),
            _net(B.qft(5), order="interleaved", open_inputs=True),
            _net(B.dyn_qft(5), open_inputs=True)]
    rng = random.Random(28)
    for _ in range(60):
        mode = rng.choice("mq")
        nets.append(_net(B.random_dqc(rng, mode), mode=mode,
                         open_inputs=rng.random() < 0.3))
    for net in nets:
        _assert_invariants(net)


def test_measurements_emit_no_tensor_on_a_correction_chain():
    # every measurement of an injection and a teleport is a rename, and no
    # identity is left: q's open input wire is consumed by its H, and its
    # last wire is renamed onto its output leg
    spec = parse("qubits q a b\ninputs q\noutputs q\ninit a=0\ninit b=0\n"
                 "gate H a\ngate P(0.7) a\ngate CX q a\nmeasure a -> c1\n"
                 "ifc c1 apply P(1.4) q\nifc c1 apply X a\n"
                 "gate H b\ngate CX b a\ngate CX q a\ngate H q\n"
                 "measure q -> c2\nmeasure a -> c3\nifc c3 apply X b\nifc c2 apply Z b\n"
                 "ifc c2 apply X q\nifc c3 apply X a\n")
    r = _assert_copy_network(spec, "q")
    _assert_invariants(r.net)
    assert "ident" not in [e.kind for e in r.net.entries]


# -- oracle fuzz ------------------------------------------------------------------


DIAG, OTHER = ("T", "S", "Z", "P"), ("H", "X")


class _RenameGen:
    """One random circuit whose measured qubits are used again; step number
    ``drop`` is left out.  Dropping a step draws the same random numbers as
    keeping it.

    After each mid-circuit measurement of q come steps on q: a reset by a
    guarded X on its bit, diagonal gates (which hold the outcome), an H or
    a CX with q as control or target (which read it), a guarded gate on q
    under two bits, one of them its own, or a second measurement.  Some
    dispatches measure a qubit again in a body.  In q-mode the principal
    qubit r is open, every other qubit ends measured and only diagonal gates
    follow that: the decider peels a discarded qubit like an outcome, where
    the oracle traces it out.
    """

    def __init__(self, seed: int, drop: int | None = None):
        self.rng = random.Random(seed)
        self.drop = drop
        self.steps_made = 0
        self.bits: list[str] = []
        self.touched_after = 0      # gates on a qubit after a mid-circuit measurement

    def _numbered(self, step):
        self.steps_made += 1
        return [] if self.steps_made == self.drop else [step]

    def _bit(self) -> str:
        self.bits.append(f"m{len(self.bits)}")
        return self.bits[-1]

    def _one(self, names, q):
        name = self.rng.choice(names)
        return gate(name, [q], [self.rng.choice((0.3, 1.1))] if name == "P" else [])

    def after(self, q, qubits, bit):
        """Steps on ``q`` right after its measurement into ``bit``."""
        rng, steps = self.rng, []
        others = [p for p in qubits if p != q]
        for k in range(rng.randint(1, 2)):
            # no second measurement first, nor past 5 bits: the oracle's cost
            # doubles with every bit
            r = rng.random() * (0.9 if k == 0 or len(self.bits) >= 5 else 1.0)
            if r < 0.25:
                g = CondGate(gate("X", [q]), (bit,), _X)
            elif r < 0.45:
                g = Conventional((self._one(DIAG, q),))
            elif r < 0.6:
                g = Conventional((self._one(OTHER, q),))
            elif r < 0.75:
                pair = [q, rng.choice(others)]
                rng.shuffle(pair)
                g = Conventional((gate(rng.choice(("CX", "CZ")), pair),))
            elif r < 0.9:
                pool = [b for b in self.bits if b != bit]
                bits = (bit, rng.choice(pool)) if pool else (bit,)
                g = CondGate(self._one(DIAG + OTHER, q), bits, _XOR if pool else _X)
            else:
                steps.append(Measure(MeasureStep((q,), (self._bit(),))))
                continue
            self.touched_after += 1
            steps += self._numbered(g)
        return steps

    def dispatch(self, q, p):
        """Measure q; one body measures p and corrects it."""
        bit = self._bit()
        inner = f"{bit}x"
        body = seq(Measure(MeasureStep((p,), (inner,))),
                   *self._numbered(CondGate(gate("X", [p]), (inner,), _X)),
                   *self._numbered(Conventional((self._one(DIAG + OTHER, p),))))
        idle = seq(*self._numbered(Conventional((self._one(DIAG + OTHER, p),))))
        return Branch(MeasureStep((q,), (bit,)), _X, (idle, body))

    def spec(self, mode: str) -> CircuitSpec:
        rng = self.rng
        work = ["a", "b", "c"]
        qubits = work + ["r"] if mode == "q" else work
        steps = [Conventional((gate("H", [rng.choice(work)]),))]
        for k in range(rng.randint(2, 4)):
            r = rng.random() * (0.5 if k == 0 else 1.0)
            if r < 0.5:
                q = rng.choice(work)
                bit = self._bit()
                steps.append(Measure(MeasureStep((q,), (bit,))))
                steps += self.after(q, qubits, bit)
            elif r < 0.65 and len(self.bits) < 5:
                q, p = rng.sample(work, 2)
                steps.append(self.dispatch(q, p))
            elif r < 0.85:
                name = rng.choice(("CX", "CZ", "CP"))
                g = gate(name, rng.sample(qubits, 2), [0.7] if name == "CP" else [])
                steps += self._numbered(Conventional((g,)))
            else:
                steps += self._numbered(Conventional((self._one(DIAG + OTHER, rng.choice(qubits)),)))
        init = {q: rng.choice("01+") for q in work}
        ends = tuple(f"o{k}" for k in range(3))
        steps.append(Measure(MeasureStep(tuple(work), ends)))
        for q in work:
            if rng.random() < 0.4:
                names = DIAG + OTHER if mode == "m" else DIAG
                steps += self._numbered(Conventional((self._one(names, q),)))
        if mode == "m":
            return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                               fixed_init=init, output_bits=ends)
        return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                           fixed_init=init, inputs=("r",), outputs=("r",))


def rename_pair(seed: int, mode: str):
    """(A, B, drop): B is A without step number ``drop``, or A itself in
    about one pair in ten."""
    gen = _RenameGen(seed)
    a = gen.spec(mode)
    rng = random.Random(seed)
    drop = None if rng.random() < 0.1 else rng.randint(1, gen.steps_made)
    return a, _RenameGen(seed, drop).spec(mode), drop, gen.touched_after


def test_measured_qubits_used_again_agree_with_oracle():
    oracle = {"m": oracle_m_eq, "q": oracle_q_eq}
    tally = Counter()
    for seed in range(170):
        for mode in ("m", "q"):
            a, b, drop, touched = rename_pair(seed, mode)
            assert validate(a) == [] and validate(b) == [], (seed, mode)
            assert touched > 0, (seed, mode)
            _assert_invariants(_net(a, mode=mode))
            if seed % 5 == 0:
                _assert_copy_network(a, mode)
            want = "equivalent" if oracle[mode](a, b) else "not-equivalent"
            v, _ = check(a, b, mode)
            assert v.status == want, (seed, mode, drop, v.reason)
            tally[mode, want] += 1
    assert sum(tally.values()) >= 300
    assert all(tally[mode, want] >= 25 for mode in "mq"
               for want in ("equivalent", "not-equivalent")), tally
