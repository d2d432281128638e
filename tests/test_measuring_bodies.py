"""Oracle fuzz over dispatches whose bodies measure.

The generator builds circuits through the Python API: a dispatch whose
bodies hold gates, measurements, ``ifc``s on the bits in scope (the
dispatch's own, earlier ones, and the body's own measured so far) and at
most one nested dispatch.  Each pair is a circuit against itself or against
the same circuit with one body gate dropped, checked in m- and q-mode and
compared with the dense oracle.
"""

import random
from collections import Counter

from tddeq.circuits import (Branch, CircuitSpec, CondGate, Conventional,
                            Measure, MeasureStep, flatten, gate, seq,
                            validate)
from tddeq.equivalence import check
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_m_eq, oracle_q_eq

ONE_QUBIT = ("H", "X", "Y", "Z", "T")
_X, _PAIR = BoolFunc.identity(1), BoolFunc.identity(2)
FUNCS = {1: (_X, ~_X),
         2: (_PAIR.output_bit(0) & _PAIR.output_bit(1),
             _PAIR.output_bit(0) ^ _PAIR.output_bit(1),
             ~_PAIR.output_bit(0) | _PAIR.output_bit(1))}


class _Gen:
    """One random circuit; the body gate numbered ``drop`` is left out.

    Dropping a gate draws the same random numbers as keeping it, so a
    circuit built with ``drop`` differs from the one without in that gate.
    """

    def __init__(self, seed: int, drop: int | None = None):
        self.rng = random.Random(seed)
        self.drop = drop
        self.bits = 0
        self.body_gates = 0

    def bit(self) -> str:
        self.bits += 1
        return f"m{self.bits}"

    def gate(self, qubits):
        rng = self.rng
        if len(qubits) > 1 and rng.random() < 0.25:
            return gate("CX", rng.sample(qubits, 2))
        return gate(rng.choice(ONE_QUBIT), [rng.choice(qubits)])

    def dispatch(self, qubits, scope, nest: bool) -> Branch:
        rng = self.rng
        k = rng.choice((1, 2)) if len(qubits) > 2 else 1
        measured = rng.sample(qubits, k)
        bits = tuple(self.bit() for _ in range(k))
        func = BoolFunc.identity(k) if rng.random() < 0.5 else rng.choice(FUNCS[k])
        rest = [q for q in qubits if q not in measured]
        bodies = tuple(self.body(rest, list(scope) + list(bits), nest)
                       for _ in range(1 << func.outputs))
        return Branch(MeasureStep(tuple(measured), bits), func, bodies)

    def body(self, qubits, scope, nest: bool):
        rng = self.rng
        steps = []
        for _ in range(rng.randint(0, 4)):
            r = rng.random()
            if r < 0.35 or (r < 0.8 and not scope):
                step = Conventional((self.gate(qubits),))
            elif r < 0.55:
                b = self.bit()
                steps.append(Measure(MeasureStep((rng.choice(qubits),), (b,))))
                scope = scope + [b]
                continue
            elif r < 0.8:
                k = min(len(scope), rng.choice((1, 2)))
                step = CondGate(self.gate(qubits), tuple(rng.sample(scope, k)),
                                rng.choice(FUNCS[k]))
            elif nest and len(qubits) > 1:
                steps.append(self.dispatch(qubits, scope, nest=False))
                nest = False
                continue
            else:
                continue
            self.body_gates += 1
            if self.body_gates != self.drop:
                steps.append(step)
        return seq(*steps)

    def spec(self, mode: str) -> CircuitSpec:
        rng = self.rng
        work = ["p", "a", "b", "t"] if mode == "m" else ["p", "a", "b"]
        qubits = work + ["r"] if mode == "q" else work
        prep = [Conventional((self.gate(qubits),)) for _ in range(4)]
        # in q-mode the principal qubit r is steered by the bodies only
        # sometimes, so both verdicts occur
        body_qubits = qubits if mode == "q" and rng.random() < 0.4 else work
        steps = prep + [self.dispatch(body_qubits, [], nest=True)]
        steps.append(Conventional((self.gate(work),)))
        init = {q: rng.choice("01+") for q in work}
        if mode == "m":
            outs = tuple(f"o{k}" for k in range(4))
            steps.append(Measure(MeasureStep(tuple(rng.sample(work, 4)), outs)))
            return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                               fixed_init=init, output_bits=outs)
        # every qubit but r ends measured, as in ``random_dqc``: the decider
        # peels a discarded qubit like an outcome, where the oracle traces
        # it out, so the two differ on a discard entangled with r
        steps.append(Measure(MeasureStep(tuple(work), tuple(f"f{k}" for k in range(3)))))
        return CircuitSpec(qubits=tuple(qubits), circuit=seq(*steps),
                           fixed_init=init, inputs=("r",), outputs=("r",))


def measuring_pair(seed: int, mode: str):
    """(A, B, drop): B is A with body gate number ``drop`` left out, or,
    for about one pair in five, A itself (``drop`` None)."""
    gen = _Gen(seed)
    a = gen.spec(mode)
    rng = random.Random(seed)
    drop = rng.randint(1, gen.body_gates) if gen.body_gates and rng.random() < 0.8 else None
    return a, _Gen(seed, drop).spec(mode), drop


def _has_measuring_body(c) -> bool:
    return any(isinstance(s, Branch) and any(
        isinstance(t, (Measure, Branch)) for body in s.branches for t in flatten(body))
        for s in flatten(c))


def test_measuring_bodies_agree_with_oracle():
    oracle = {"m": oracle_m_eq, "q": oracle_q_eq}
    tally = Counter()
    for seed in range(110):
        for mode in ("m", "q"):
            a, b, drop = measuring_pair(seed, mode)
            assert validate(a) == [] and validate(b) == [], (seed, mode)
            tally["measuring"] += _has_measuring_body(a.circuit)
            want = "equivalent" if oracle[mode](a, b) else "not-equivalent"
            v, _ = check(a, b, mode)
            assert v.status == want, (seed, mode, drop, v.reason)
            tally[mode, want] += 1
    assert sum(n for k, n in tally.items() if k != "measuring") >= 200
    # the fuzz is not vacuous: most circuits measure in a body, and each
    # mode sees both verdicts
    assert tally["measuring"] >= 150
    assert all(tally[mode, want] >= 20 for mode in "mq"
               for want in ("equivalent", "not-equivalent")), tally
