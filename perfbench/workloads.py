"""Seeded workloads of the tddeq benchmark and their known answers.

Every workload is a list of operations (``Op``) made from ``--seed``.  The
program receives only what an operation carries: ``.dqc`` text for a pair
check, or a circuit spec for an operator build.  The known answer of each
operation comes from construction, from a closed form, or from the dense
oracle, never from the checker under test.

Operations are listed in rounds: one round holds one operation per
stratum (size, input pattern or chain length) in a seeded order, so any
prefix of the list has nearly the same mix of costs for every seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from tddeq import benchmarks, encode, equivalence, oracle, textfmt
from tddeq.circuits import (Branch, CircuitSpec, CondGate, Conventional,
                            Measure, MeasureStep, gate, seq, validate)
from tddeq.logic import BoolFunc

EQ, NEQ = "equivalent", "not-equivalent"
RIGHT, WRONG, UNDECIDED = "right", "wrong", "undecided"


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and its known answer.

    ``a``/``b`` are the two ``.dqc`` texts of a pair check; for an operator
    build ``a`` is the spec and ``b`` is unused.  ``expected`` is a verdict
    status, or the final node count of an operator build.
    """

    label: str
    mode: str  # "m" | "q" | "build"
    a: object
    b: object
    expected: object


@dataclass
class Workload:
    name: str
    ops: list[Op]
    trace_ops: int           # length of the prefix the traced run repeats
    oracle_s: float = 0.0    # time spent in the dense oracle during set-up
    oracle_calls: int = 0


@dataclass
class Outcome:
    status: str              # RIGHT | WRONG | UNDECIDED
    max_nodes: int = 0
    final_nodes: int = 0
    fallback: bool = False
    discarded: int = 0
    error: str = ""


# -- qft_fixed ------------------------------------------------------------------

# The diagram of QFT on a product input grows with the position of the
# highest '+' qubit (about 2^(t+1) nodes for top position t), so that
# position is the stratum; the seed draws the second '+' below it and the
# basis value of every other qubit.
QFT_SIZES = (10, 11, 12, 13, 14)
QFT_TOPS = (3, 4, 5)


def _qft_inputs(rng: random.Random, n: int, top: int) -> str:
    low = rng.randrange(top)
    return "".join("+" if k in (low, top) else rng.choice("01")
                   for k in range(n))


def qft_fixed(seed: int, rounds: int = 12) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        strata = [(n, t) for n in QFT_SIZES for t in QFT_TOPS]
        rng.shuffle(strata)
        for n, top in strata:
            bits = _qft_inputs(rng, n, top)
            ops.append(Op(f"qft_{n}[{bits}]", "m",
                          textfmt.print_spec(benchmarks.qft(n, bits)),
                          textfmt.print_spec(benchmarks.dyn_qft(n, bits)), EQ))
    return Workload("qft_fixed", ops, trace_ops=len(QFT_SIZES) * len(QFT_TOPS))


# -- operator_build -------------------------------------------------------------

BUILD_SIZES = (5, 6, 7, 8, 9)


def operator_build(seed: int, rounds: int = 40) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        sizes = list(BUILD_SIZES)
        rng.shuffle(sizes)
        for n in sizes:
            ops.append(Op(f"qft_{n}/open", "build", benchmarks.qft(n), None,
                          (1 << (n + 1)) - 1))
    return Workload("operator_build", ops, trace_ops=len(BUILD_SIZES))


# -- peel_heavy -----------------------------------------------------------------

PEEL_BITS = (14, 15, 16, 17)
# Half the chains lose one correction; a lost hop correction costs the
# decider several times what a lost injection correction does, so each
# kind is its own stratum.
PEEL_KINDS = (None, None, "inject", "hop")
_PHASES = {"T": math.pi / 4.0, "S": math.pi / 2.0, "TDG": -math.pi / 4.0}


class _Chain:
    """Builder of a measurement-steered correction chain on three qubits.

    The logical qubit starts and ends on ``q``.  An injection applies
    P(theta) through a resource qubit, a measurement and a classically
    controlled P(2 theta) correction, then resets the resource with a
    controlled X.  A teleport hop moves the logical qubit onto another wire
    through a Bell measurement and a dispatch over four corrections (its
    two-gate body keeps it a dispatch), then resets both measured qubits.
    """

    QUBITS = ("q", "a", "b")

    def __init__(self):
        self.steps: list = []
        self.data = "q"
        self.bits = 0
        self.theta = 0.0
        # step positions of droppable corrections, by kind
        self.corrections: dict[str, list[int]] = {"inject": [], "hop": []}

    def _bit(self) -> str:
        self.bits += 1
        return f"c{self.bits}"

    def _others(self):
        return [x for x in self.QUBITS if x != self.data]

    def inject(self, name: str):
        theta = _PHASES[name]
        anc = self._others()[0]
        c = self._bit()
        self.steps.append(Conventional((gate("H", [anc]), gate("P", [anc], [theta]),
                                        gate("CX", [self.data, anc]))))
        self.steps.append(Measure(MeasureStep((anc,), (c,))))
        self.corrections["inject"].append(len(self.steps))
        self.steps.append(CondGate(gate("P", [self.data], [2.0 * theta]), (c,),
                                   BoolFunc.identity(1), expr=c))
        self.steps.append(CondGate(gate("X", [anc]), (c,), BoolFunc.identity(1),
                                   expr=c))
        self.theta += theta

    def hop(self, dest: str):
        (via,) = [x for x in self._others() if x != dest]
        src = self.data
        c0, c1 = self._bit(), self._bit()
        self.steps.append(Conventional((gate("H", [dest]), gate("CX", [dest, via]),
                                        gate("CX", [src, via]), gate("H", [src]))))
        bodies = (Conventional(()), Conventional((gate("X", [dest]),)),
                  Conventional((gate("Z", [dest]),)),
                  seq(Conventional((gate("X", [dest]),)),
                      Conventional((gate("Z", [dest]),))))
        self.corrections["hop"].append(len(self.steps))
        self.steps.append(Branch(MeasureStep((src, via), (c0, c1)),
                                 BoolFunc.identity(2), bodies, exprs=(c0, c1)))
        for q, c in ((src, c0), (via, c1)):
            self.steps.append(CondGate(gate("X", [q]), (c,), BoolFunc.identity(1),
                                       expr=c))
        self.data = dest

    def spec(self, drop: int | None = None) -> CircuitSpec:
        steps = list(self.steps)
        if drop is not None:
            st = steps[drop]
            if isinstance(st, Branch):
                # the X of the single-X branch goes missing
                bodies = list(st.branches)
                bodies[1] = Conventional(())
                steps[drop] = Branch(st.measure, st.func, tuple(bodies), st.exprs)
            else:
                del steps[drop]
        return CircuitSpec(qubits=self.QUBITS, circuit=seq(*steps),
                           fixed_init={"a": "0", "b": "0"},
                           inputs=("q",), outputs=("q",))


def injection_chain(rng: random.Random, bits: int):
    """A chain with ``bits`` measured bits: one hop there and back, and
    injections for the rest, in a seeded order.  Returns the chain and the
    bare operation it realises."""
    chain = _Chain()
    n_inject = bits - 4
    out_at = rng.randrange(n_inject + 1)
    back_at = rng.randrange(out_at, n_inject + 1)
    for k in range(n_inject + 1):
        if k == out_at:
            chain.hop(rng.choice(("a", "b")))
        if k == back_at:
            chain.hop("q")
        if k < n_inject:
            chain.inject(rng.choice(tuple(_PHASES)))
    bare = CircuitSpec(qubits=("q",),
                       circuit=Conventional((gate("P", ["q"], [chain.theta]),)),
                       inputs=("q",), outputs=("q",))
    return chain, bare


def peel_heavy(seed: int, rounds: int = 20) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        strata = [(m, kind) for m in PEEL_BITS for kind in PEEL_KINDS]
        rng.shuffle(strata)
        for m, kind in strata:
            chain, bare = injection_chain(rng, m)
            drop = rng.choice(chain.corrections[kind]) if kind else None
            ops.append(Op(f"chain_{m}{'/no-' + kind if kind else ''}", "q",
                          textfmt.print_spec(chain.spec(drop)),
                          textfmt.print_spec(bare), NEQ if kind else EQ))
    return Workload("peel_heavy", ops,
                    trace_ops=len(PEEL_BITS) * len(PEEL_KINDS))


# -- mixed_small ----------------------------------------------------------------

# A round is one pair per (kind, mode, qubits, gates); the cost of a random
# pair follows its qubit and gate counts, so they are strata too.
MIXED_QUBITS = (2, 3, 4)
MIXED_GATES = (4, 8, 12)
MIXED_ROUNDS = 17


def _mixed_pair(rng: random.Random, kind: str, mode: str, n_qubits: int,
                n_gates: int):
    while True:
        base = benchmarks.random_dqc(rng, mode, n_qubits, n_gates)
        if kind == "rewrite":
            label, other = "rewrite", benchmarks.rewrite(rng, base)
        else:
            label, other = next(benchmarks.mutations(base, rng), (None, None))
        if other is not None and not validate(other):
            return label, base, other


def mixed_small(seed: int, rounds: int = MIXED_ROUNDS) -> Workload:
    """Seeded random pairs, half rewritten and half mutated, in m and q
    mode.  The dense oracle gives every answer."""
    rng = random.Random(seed)
    strata = [(kind, mode, nq, ng) for kind in ("rewrite", "mutate")
              for mode in ("m", "q") for nq in MIXED_QUBITS for ng in MIXED_GATES]
    ops = []
    oracle_s = 0.0
    for _ in range(rounds):
        rng.shuffle(strata)
        for kind, mode, nq, ng in strata:
            label, base, other = _mixed_pair(rng, kind, mode, nq, ng)
            t0 = time.perf_counter()
            same = (oracle.oracle_m_eq(base, other) if mode == "m"
                    else oracle.oracle_q_eq(base, other))
            oracle_s += time.perf_counter() - t0
            ops.append(Op(f"{mode}/{label}", mode, textfmt.print_spec(base),
                          textfmt.print_spec(other), EQ if same else NEQ))
    return Workload("mixed_small", ops, trace_ops=len(strata) * 6,
                    oracle_s=oracle_s, oracle_calls=len(ops))


BUILDERS = {"qft_fixed": qft_fixed, "operator_build": operator_build,
            "peel_heavy": peel_heavy, "mixed_small": mixed_small}


# -- running one operation -----------------------------------------------------


def run_op(op: Op, plan: str) -> Outcome:
    """Hand one operation to the program and grade its answer.

    The program is reached through module attributes, so a tracer that
    wraps those attributes sees every call.
    """
    try:
        if op.mode == "build":
            res = encode.compile_spec(op.a, order="interleaved", open_inputs=True)
            st = res.stats
            ok = st.final_nodes == op.expected
            return Outcome(RIGHT if ok else WRONG, st.max_nodes, st.final_nodes)
        spec_a, spec_b = textfmt.parse(op.a), textfmt.parse(op.b)
        verdict, rep = equivalence.check(spec_a, spec_b, op.mode, plan=plan)
    except Exception as exc:  # an exception is an undecided operation
        return Outcome(UNDECIDED, error=f"{type(exc).__name__}: {exc}")
    if verdict.status == "inconclusive":
        status = UNDECIDED
    else:
        status = RIGHT if verdict.status == op.expected else WRONG
    return Outcome(status, rep.max_nodes, rep.final_nodes, rep.fallback,
                   rep.discarded, verdict.reason)
