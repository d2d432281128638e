"""Pass-through wires: a gate keeps the wire of every qubit it is diagonal on.

A gate whose matrix is block-diagonal on one of its qubits holds that
qubit's current wire once, for input and output alike, instead of opening a
fresh segment.  These tests check every library gate against its dense form,
the leg counts that follow, the three builder rules the shared wire needs
(a later pass-through gate holds a measurement's outcome, a rename reaches
every holder of a wire, an open input wire is never renamed away), and an oracle
fuzz over circuits full of diagonal gates next to measurements.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import (Branch, CircuitSpec, CondGate, Conventional,
                            Measure, MeasureStep, gate, seq, validate)
from tddeq.encode import _diagonal_data, compile_spec, prepare
from tddeq.equivalence import check
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.tdd import DENSE_CACHE

_X, _PAIR = BoolFunc.identity(1), BoolFunc.identity(2)
GUARDS = {1: _X, 2: _PAIR.output_bit(0) ^ _PAIR.output_bit(1)}

# name, arity, params, legs of the plain gate
LIBRARY = [("H", 1, (), 2), ("X", 1, (), 2), ("Y", 1, (), 2), ("Z", 1, (), 1),
           ("S", 1, (), 1), ("SDG", 1, (), 1), ("T", 1, (), 1), ("TDG", 1, (), 1),
           ("P", 1, (0.7,), 1), ("CX", 2, (), 3), ("CZ", 2, (), 2),
           ("SWAP", 2, (), 4), ("CP", 2, (1.1,), 2)]


def _by_name(r, names):
    d = r.mgr.to_dense(r.tdd)
    have = [i.name for i in r.tdd.indices]
    assert sorted(have) == sorted(names)
    return np.transpose(d, [have.index(n) for n in names])


def _entry(r, kind):
    (e,) = [e for e in r.net.entries if e.kind == kind]
    return e


# -- every library gate against its dense form ---------------------------------------


def _library_spec(name, k, params, guard):
    """``guard`` measured qubits m*, then the gate on t*, under their bits."""
    ms = tuple(f"m{j}" for j in range(guard))
    ts = tuple(f"t{j}" for j in range(k))
    g = gate(name, ts, params)
    steps = [Measure(MeasureStep((m,), (f"c{j}",))) for j, m in enumerate(ms)]
    bits = tuple(f"c{j}" for j in range(guard))
    steps.append(CondGate(g, bits, GUARDS[guard]) if guard else Conventional((g,)))
    return g, CircuitSpec(qubits=ms + ts, circuit=seq(*steps),
                          inputs=ms + ts, outputs=ts)


@pytest.mark.parametrize("guard", [0, 1, 2])
@pytest.mark.parametrize("name,k,params,legs", LIBRARY)
def test_library_gate_matches_its_dense_form(name, k, params, legs, guard):
    g, spec = _library_spec(name, k, params, guard)
    assert validate(spec) == []
    r = compile_spec(spec, mode="q", open_inputs=True)
    if guard + legs == 1:
        # a rank-1 diagonal multiplies into the identity that joins its open
        # input wire to the principal output
        e = _entry(r, "ident")
        assert e.indices == ("w:t0.0", "out:t0") and not np.array_equal(e.payload, np.eye(2))
    else:
        e = _entry(r, "cond" if guard else "gate")
        assert len(e.indices) == guard + legs
    u = g.matrix.reshape((2,) * (2 * k))
    ident = np.eye(1 << k).reshape(u.shape)
    cs = [f"bit:c{j}" for j in range(guard)]
    want = np.zeros((2,) * (2 * guard + 2 * k), dtype=complex)
    for c in itertools.product((0, 1), repeat=guard):
        on = not guard or GUARDS[guard](c)
        want[c + c] = u if on else ident
    names = cs + [f"w:m{j}.0" for j in range(guard)] + \
        [f"out:t{j}" for j in range(k)] + [f"w:t{j}.0" for j in range(k)]
    assert np.max(np.abs(_by_name(r, names) - want)) < 1e-12


def test_pass_through_leg_counts():
    # a CP holds two wires, a guarded P one wire and its bit, a CX the
    # control's wire and the target's two segments, its output renamed to
    # the principal leg
    cp = _entry(compile_spec(_library_spec("CP", 2, (0.3,), 0)[1], mode="q"), "gate")
    p = _entry(compile_spec(_library_spec("P", 1, (0.3,), 1)[1], mode="q"), "cond")
    cx = _entry(compile_spec(_library_spec("CX", 2, (), 0)[1], mode="q"), "gate")
    assert cp.indices == ("w:t0.0", "w:t1.0")
    assert p.indices == ("bit:c0", "w:t0.0")
    assert cx.indices == ("w:t0.0", "out:t1", "w:t1.0")


def test_pass_through_mask_is_computed_lazily_and_once_per_matrix():
    _diagonal_data.cache_clear()
    qs = ("a", "b")
    gates = [gate("T", ["a"]) for _ in range(4)] + \
        [gate("CP", qs, [0.5]) for _ in range(3)] + [gate("H", ["b"])]
    assert _diagonal_data.cache_info().currsize == 0   # not at construction
    spec = CircuitSpec(qubits=qs, circuit=Conventional(tuple(gates)),
                       inputs=qs, outputs=qs)
    prepare([spec], mode="q")
    info = _diagonal_data.cache_info()
    assert info.currsize == 3 and info.misses == 3 and info.maxsize == DENSE_CACHE


# -- the builder rules of a shared wire ----------------------------------------------


def test_pass_through_gate_after_a_last_measurement_keeps_its_leg():
    # the measurement renames a's wire to its outcome, so T after it holds
    # the outcome: the state a carried and T's diagonal merge into one
    # rank-1 entry, the diagonal of the COPY network over (outcome, wire)
    spec = CircuitSpec(qubits=("a",), circuit=seq(
        Measure(MeasureStep(("a",), ("c",))), Conventional((gate("T", ["a"]),))),
        fixed_init={"a": "+"}, output_bits=("c",))
    r = compile_spec(spec)
    assert [(e.kind, e.indices) for e in r.net.entries] == [("init", ("outbit:0",))]
    t = np.exp(0.25j * np.pi)
    want = np.array([1, t]) / np.sqrt(2)    # over the outcome
    assert np.max(np.abs(_by_name(r, ["outbit:0"]) - want)) < 1e-12


def test_rename_reaches_every_holder_of_a_wire():
    # H's output wire is held by H and by T; the final measurement renames
    # it to the outcome in both (an open input, so no state is carried),
    # and T, then rank-1 on the outcome, multiplies into H
    spec = CircuitSpec(qubits=("a",), circuit=seq(
        Conventional((gate("H", ["a"]), gate("T", ["a"]))),
        Measure(MeasureStep(("a",), ("c",)))),
        fixed_init={"a": "0"}, output_bits=("c",))
    r = compile_spec(spec, open_inputs=True)
    assert [(e.kind, e.indices) for e in r.net.entries] == [("gate", ("outbit:0", "w:a.0"))]
    want = np.diag([1, np.exp(0.25j * np.pi)]) @ gate("H", ["a"]).matrix
    assert np.allclose(r.net.entries[0].payload, want)
    assert np.max(np.abs(_by_name(r, ["outbit:0", "w:a.0"]) - want)) < 1e-12


@pytest.mark.parametrize("mode", ["m", "q"])
def test_open_input_wire_held_by_a_pass_through_gate_keeps_its_identity(mode):
    # only T touches q, so its open input wire is its last wire: the
    # identity onto the outcome or output leg stays, and T multiplies into it
    tail = (Measure(MeasureStep(("q",), ("c",))),) if mode == "m" else ()
    spec = CircuitSpec(qubits=("q",), circuit=seq(Conventional((gate("T", ["q"]),)), *tail),
                       inputs=("q",), outputs=("q",),
                       output_bits=("c",) if mode == "m" else ())
    r = compile_spec(spec, mode=mode, open_inputs=True)
    end = "outbit:0" if mode == "m" else "out:q"
    assert [(e.kind, e.indices) for e in r.net.entries] == [("ident", ("w:q.0", end))]
    want = np.diag([1, np.exp(0.25j * np.pi)])
    assert np.max(np.abs(_by_name(r, [end, "w:q.0"]) - want)) < 1e-12


# -- capability --------------------------------------------------------------------


def test_open_input_qft_14_builds_under_the_default_rank_limit():
    # each CP holds its two wires once, so the open rank stays at most 26
    r = compile_spec(B.qft(14), order="interleaved", open_inputs=True)
    assert r.stats.final_nodes == 2 ** 15 - 1


def test_fixed_input_qft_16_is_checked():
    inputs = "0" * 5 + "+" + "1" * 5 + "+" + "0" * 4
    pair = B.qft_pair(16, inputs)
    v, _ = check(pair.spec_a, pair.spec_b, "m")
    assert v.status == "equivalent"


# -- oracle fuzz ---------------------------------------------------------------------


DIAG1, DIAG2, OTHER1 = ("Z", "S", "SDG", "T", "TDG", "P"), ("CZ", "CP"), ("H", "X", "Y")
ANGLES = (0.3, 1.1, np.pi / 2, np.pi)


class _Gen:
    """One random circuit full of diagonal gates; gate number ``drop`` is
    left out.  Dropping a gate draws the same random numbers as keeping it.

    The circuit puts diagonal gates directly before and after measurements
    of the same qubit (the final ones too), ``CX``es whose control is later
    measured, diagonal gates in dispatch bodies and under guards, and, in
    q-mode, diagonal gates on the open input wire of the principal qubit
    ``r``, which in about half the circuits no other gate changes.
    """

    def __init__(self, seed: int, drop: int | None = None):
        self.rng = random.Random(seed)
        self.drop = drop
        self.numbers = {True: [], False: []}    # diagonal or not: gate numbers
        self.bits = 0
        self.keep_r = False              # no gate but a diagonal one changes r

    def bit(self) -> str:
        self.bits += 1
        return f"m{self.bits}"

    def _numbered(self, step, diagonal: bool):
        n = sum(map(len, self.numbers.values())) + 1
        self.numbers[diagonal].append(n)
        return [] if n == self.drop else [step]

    def diag(self, qubits, on=None):
        rng = self.rng
        q = on or rng.choice(qubits)
        if len(qubits) > 1 and rng.random() < 0.4:
            pair = [q, rng.choice([p for p in qubits if p != q])]
            rng.shuffle(pair)
            name = rng.choice(DIAG2)
        else:
            pair, name = [q], rng.choice(DIAG1)
        return gate(name, pair, [rng.choice(ANGLES)] if name in ("P", "CP") else [])

    def other(self, qubits):
        rng = self.rng
        free = [q for q in qubits if q != "r" or not self.keep_r]
        if len(qubits) > 1 and rng.random() < 0.5:
            # a CX changes only its target: its control may be r
            t = rng.choice(free)
            return gate("CX", [rng.choice([q for q in qubits if q != t]), t])
        return gate(rng.choice(OTHER1), [rng.choice(free)])

    def guard(self, scope):
        k = min(len(scope), self.rng.choice((1, 2)))
        return tuple(self.rng.sample(scope, k)), GUARDS[k]

    def body(self, qubits, scope, meas, depth: int):
        rng, steps = self.rng, []
        for _ in range(rng.randint(2, 5) if depth == 0 else rng.randint(0, 3)):
            r = rng.random()
            if r < 0.3:
                steps += self._numbered(Conventional((self.diag(qubits),)), True)
            elif r < 0.5:
                steps += self._numbered(Conventional((self.other(qubits),)), False)
            elif r < 0.68:
                # diagonal gates right before and after a measurement
                q = rng.choice(meas)
                if rng.random() < 0.7:
                    steps += self._numbered(Conventional((self.diag(qubits, q),)), True)
                b = self.bit()
                steps.append(Measure(MeasureStep((q,), (b,))))
                scope = scope + [b]
                if rng.random() < 0.7:
                    steps += self._numbered(Conventional((self.diag(qubits, q),)), True)
            elif r < 0.85 and scope:
                bits, f = self.guard(scope)
                diagonal = rng.random() < 0.7
                g = self.diag(qubits) if diagonal else self.other(qubits)
                steps += self._numbered(CondGate(g, bits, f), diagonal)
            elif depth == 0:
                q = rng.choice(meas)
                rest = [p for p in qubits if p != q]
                b = self.bit()
                bodies = tuple(seq(*self.body(rest, scope + [b], [p for p in meas if p != q], 1))
                               for _ in range(2))
                steps.append(Branch(MeasureStep((q,), (b,)), _X, bodies))
        return steps

    def spec(self, mode: str) -> CircuitSpec:
        rng = self.rng
        work = ["a", "b", "c"]
        qubits = work + ["r"] if mode == "q" else work + ["d"]
        self.keep_r = mode == "q" and rng.random() < 0.5
        meas = qubits if mode == "m" else work
        steps = []
        if mode == "q":
            steps += self._numbered(Conventional((self.diag(qubits, "r"),)), True)
        steps += self.body(qubits, [], meas, 0)
        # a CX whose control is measured at the end
        steps += self._numbered(Conventional((gate("CX", rng.sample(meas, 2)),)), False)
        init = {q: rng.choice("01+") for q in meas}
        if mode == "m":
            ends = rng.sample(meas, 3)
            bits = tuple(f"o{k}" for k in range(3))
        else:
            ends, bits = work, tuple(f"f{k}" for k in range(3))
        for q in ends:
            # an H makes earlier phases visible to the measurement
            if rng.random() < 0.5:
                steps += self._numbered(Conventional((gate("H", [q]),)), False)
            if rng.random() < 0.3:
                steps += self._numbered(Conventional((self.diag(qubits, q),)), True)
        steps.append(Measure(MeasureStep(tuple(ends), bits)))
        for q in ends:
            if rng.random() < 0.4:
                steps += self._numbered(Conventional((self.diag(qubits, q),)), True)
        if mode == "m":
            return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                               fixed_init=init, output_bits=bits)
        # every qubit but r ends measured: the decider peels a discarded
        # qubit like an outcome, where the oracle traces it out
        return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                           fixed_init=init, inputs=("r",), outputs=("r",))


def diagonal_pair(seed: int, mode: str):
    """(A, B, drop): B is A without gate number ``drop``, a diagonal gate
    in about one pair in two and another gate in most of the rest, or A
    itself in one pair in ten."""
    gen = _Gen(seed)
    a = gen.spec(mode)
    rng = random.Random(seed)
    r = rng.random()
    pick = gen.numbers[r < 0.55] or gen.numbers[r >= 0.55]
    drop = None if r < 0.1 else rng.choice(pick)
    return a, _Gen(seed, drop).spec(mode), drop


def test_diagonal_gates_agree_with_oracle():
    oracle = {"m": oracle_m_eq, "q": oracle_q_eq}
    tally = Counter()
    for seed in range(120):
        for mode in ("m", "q"):
            a, b, drop = diagonal_pair(seed, mode)
            assert validate(a) == [] and validate(b) == [], (seed, mode)
            want = "equivalent" if oracle[mode](a, b) else "not-equivalent"
            v, _ = check(a, b, mode)
            assert v.status == want, (seed, mode, drop, v.reason)
            tally[mode, want] += 1
    assert sum(tally.values()) >= 150
    assert all(tally[mode, want] >= 20 for mode in "mq"
               for want in ("equivalent", "not-equivalent")), tally
