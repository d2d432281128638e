"""Benchmark circuit pairs: conventional versus dynamic versions.

QFT and phase estimation pairs are checked for measurement-distribution
equivalence; the dynamic versions are the semiclassical forms where a qubit
is measured as soon as its own Hadamard has been applied and the remaining
controlled rotations become classically controlled gates.  Error correction,
teleportation and state injection pairs are checked for output-state
equivalence against the bare logical operation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .circuits import (Branch, CircuitSpec, CondGate, Conventional, Measure,
                       MeasureStep, gate, seq)
from .logic import BoolFunc


@dataclass(frozen=True)
class BenchmarkPair:
    name: str
    mode: str  # "m" | "q"
    spec_a: CircuitSpec
    spec_b: CircuitSpec
    expected: str = "equivalent"


def _rot_angle(k: int) -> float:
    """Controlled-rotation angle between output bit j and qubit j+k-1."""
    return 2.0 * math.pi / (1 << k)


# -- quantum Fourier transform ------------------------------------------------


def qft(n: int, input_bits: str | None = None) -> CircuitSpec:
    """Conventional QFT (no final swaps) with every qubit measured."""
    if not 2 <= n <= 16:
        raise ValueError("qft size out of range (2..16)")
    qs = [f"q{k}" for k in range(n)]
    gates = []
    for j in range(n):
        gates.append(gate("H", [qs[j]]))
        for k in range(j + 1, n):
            gates.append(gate("CP", [qs[j], qs[k]], [_rot_angle(k - j + 1)]))
    meas = [Measure(MeasureStep((qs[j],), (f"c{j}",))) for j in range(n)]
    init = _basis_init(qs, input_bits)
    return CircuitSpec(qubits=tuple(qs), circuit=seq(Conventional(tuple(gates)), *meas),
                       fixed_init=init, inputs=(), outputs=tuple(qs),
                       output_bits=tuple(f"c{j}" for j in range(n)))


def dyn_qft(n: int, input_bits: str | None = None) -> CircuitSpec:
    """Semiclassical QFT: measure early, classically control later rotations."""
    if not 2 <= n <= 16:
        raise ValueError("qft size out of range (2..16)")
    qs = [f"q{k}" for k in range(n)]
    parts = []
    for j in range(n):
        parts.append(Conventional((gate("H", [qs[j]]),)))
        parts.append(Measure(MeasureStep((qs[j],), (f"c{j}",))))
        for k in range(j + 1, n):
            parts.append(CondGate(gate("P", [qs[k]], [_rot_angle(k - j + 1)]),
                                  (f"c{j}",), BoolFunc.identity(1), expr=f"c{j}"))
    init = _basis_init(qs, input_bits)
    return CircuitSpec(qubits=tuple(qs), circuit=seq(*parts),
                       fixed_init=init, inputs=(), outputs=tuple(qs),
                       output_bits=tuple(f"c{j}" for j in range(n)))


def _basis_init(qs, input_bits):
    if input_bits is None:
        input_bits = "0" * len(qs)
    if len(input_bits) != len(qs) or any(b not in "01+" for b in input_bits):
        raise ValueError("input state must be one character from 01+ per qubit")
    return {q: b for q, b in zip(qs, input_bits)}


def qft_pair(n: int, input_bits: str | None = None) -> BenchmarkPair:
    return BenchmarkPair(f"qft_{n}", "m", qft(n, input_bits), dyn_qft(n, input_bits))


# -- phase estimation -----------------------------------------------------------


def pe(n: int, phi: float) -> CircuitSpec:
    """Conventional n-bit phase estimation of U = diag(1, e^{2 pi i phi}).

    The eigenstate register holds |1> (eigenvalue e^{2 pi i phi}); counting
    qubit j comes out as the j-th binary digit of phi.
    """
    if not 2 <= n <= 7:
        raise ValueError("pe size out of range (2..7)")
    if not 0.0 <= phi < 1.0:
        raise ValueError("phase must lie in [0, 1)")
    qs = [f"q{k}" for k in range(n)]
    r = "r"
    gates = [gate("H", [q]) for q in qs]
    for j in range(n):
        # qubit j kicks back U^(2^(n-1-j))
        gates.append(gate("CP", [qs[j], r], [2.0 * math.pi * phi * (1 << (n - 1 - j))]))
    for j in range(n):
        gates.append(gate("H", [qs[j]]))
        for k in range(j + 1, n):
            gates.append(gate("CP", [qs[j], qs[k]], [-_rot_angle(k - j + 1)]))
    meas = [Measure(MeasureStep((qs[j],), (f"c{j}",))) for j in range(n)]
    init = {q: "0" for q in qs}
    init[r] = "1"
    return CircuitSpec(qubits=tuple(qs) + (r,), circuit=seq(Conventional(tuple(gates)), *meas),
                       fixed_init=init, inputs=(), outputs=tuple(qs),
                       output_bits=_pe_bit_order(n))


def _pe_bit_order(n: int) -> tuple[str, ...]:
    # the swap-free inverse transform leaves the digits bit-reversed on the
    # wires; reading the bits back-to-front restores phi = 0.b1 b2 ... bn
    return tuple(f"c{j}" for j in reversed(range(n)))


def dyn_pe(n: int, phi: float) -> CircuitSpec:
    """Dynamic phase estimation: one counting qubit at a time."""
    if not 2 <= n <= 7:
        raise ValueError("pe size out of range (2..7)")
    if not 0.0 <= phi < 1.0:
        raise ValueError("phase must lie in [0, 1)")
    qs = [f"q{k}" for k in range(n)]
    r = "r"
    parts = []
    for j in range(n):
        block = [gate("H", [qs[j]]),
                 gate("CP", [qs[j], r], [2.0 * math.pi * phi * (1 << (n - 1 - j))])]
        parts.append(Conventional(tuple(block)))
        for k in range(j):
            parts.append(CondGate(gate("P", [qs[j]], [-_rot_angle(j - k + 1)]),
                                  (f"c{k}",), BoolFunc.identity(1), expr=f"c{k}"))
        parts.append(Conventional((gate("H", [qs[j]]),)))
        parts.append(Measure(MeasureStep((qs[j],), (f"c{j}",))))
    init = {q: "0" for q in qs}
    init[r] = "1"
    return CircuitSpec(qubits=tuple(qs) + (r,), circuit=seq(*parts),
                       fixed_init=init, inputs=(), outputs=tuple(qs),
                       output_bits=_pe_bit_order(n))


def pe_pair(n: int, phi: float) -> BenchmarkPair:
    return BenchmarkPair(f"PE_{n}", "m", pe(n, phi), dyn_pe(n, phi))


# -- teleportation ----------------------------------------------------------------


def teleport() -> CircuitSpec:
    """Teleportation in branch form: Bell pair, Bell measurement, dispatch."""
    prep = Conventional((gate("H", ["q2"]), gate("CX", ["q2", "q1"]),
                         gate("CX", ["q", "q1"]), gate("H", ["q"])))
    corrections = (Conventional(()),
                   Conventional((gate("X", ["q2"]),)),
                   Conventional((gate("Z", ["q2"]),)),
                   Conventional((gate("X", ["q2"]), gate("Z", ["q2"]))))
    branch = Branch(MeasureStep(("q", "q1"), ("c0", "c1")), BoolFunc.identity(2),
                    corrections, exprs=("c0", "c1"))
    return CircuitSpec(qubits=("q", "q1", "q2"), circuit=seq(prep, branch),
                       fixed_init={"q1": "0", "q2": "0"},
                       inputs=("q",), outputs=("q2",))


def swap_teleport() -> CircuitSpec:
    """The swap realisation: one SWAP moves q onto q2, q is discarded."""
    return CircuitSpec(qubits=("q", "q2"),
                       circuit=Conventional((gate("SWAP", ["q", "q2"]),)),
                       fixed_init={"q2": "0"}, inputs=("q",), outputs=("q2",))


def teleport_pair() -> BenchmarkPair:
    return BenchmarkPair("Teleportation", "q", teleport(), swap_teleport())


# -- three-qubit codes ---------------------------------------------------------------


def _syndrome_corrections(targets, bits, flip: str):
    """Correct with gate ``flip`` per the (Z0Z1, Z0Z2) syndrome table."""
    s = BoolFunc.identity(2)
    s0, s1 = s.output_bit(0), s.output_bit(1)
    return [CondGate(gate(flip, [targets[0]]), bits, s0 & s1, expr=f"{bits[0]}&{bits[1]}"),
            CondGate(gate(flip, [targets[1]]), bits, s0 & ~s1, expr=f"{bits[0]}&!{bits[1]}"),
            CondGate(gate(flip, [targets[2]]), bits, ~s0 & s1, expr=f"!{bits[0]}&{bits[1]}")]


def bitflip_code(err: str | None = None) -> CircuitSpec:
    """Encode, optional X error, syndrome measurement, correction, decode."""
    data = ["q0", "q1", "q2"]
    anc = ["a0", "a1"]
    if err is not None and err not in data:
        raise ValueError(f"bitflip error must be one of {data}")
    parts = [Conventional((gate("CX", ["q0", "q1"]), gate("CX", ["q0", "q2"])))]
    if err:
        parts.append(Conventional((gate("X", [err]),)))
    parts.append(Conventional((gate("CX", ["q0", "a0"]), gate("CX", ["q1", "a0"]),
                               gate("CX", ["q0", "a1"]), gate("CX", ["q2", "a1"]))))
    parts.append(Measure(MeasureStep(("a0", "a1"), ("s0", "s1"))))
    parts.extend(_syndrome_corrections(data, ("s0", "s1"), "X"))
    parts.append(Conventional((gate("CX", ["q0", "q2"]), gate("CX", ["q0", "q1"]))))
    return CircuitSpec(qubits=("q0", "q1", "q2", "a0", "a1"), circuit=seq(*parts),
                       fixed_init={"q1": "0", "q2": "0", "a0": "0", "a1": "0"},
                       inputs=("q0",), outputs=("q0",))


def phaseflip_code(err: str | None = None) -> CircuitSpec:
    """The bit-flip code conjugated by Hadamards, protecting against Z."""
    data = ["q0", "q1", "q2"]
    if err is not None and err not in data:
        raise ValueError(f"phaseflip error must be one of {data}")
    parts = [Conventional((gate("CX", ["q0", "q1"]), gate("CX", ["q0", "q2"]),
                           gate("H", ["q0"]), gate("H", ["q1"]), gate("H", ["q2"])))]
    if err:
        parts.append(Conventional((gate("Z", [err]),)))
    parts.append(Conventional((gate("H", ["q0"]), gate("H", ["q1"]), gate("H", ["q2"]),
                               gate("CX", ["q0", "a0"]), gate("CX", ["q1", "a0"]),
                               gate("CX", ["q0", "a1"]), gate("CX", ["q2", "a1"]))))
    parts.append(Measure(MeasureStep(("a0", "a1"), ("s0", "s1"))))
    parts.extend(_syndrome_corrections(data, ("s0", "s1"), "X"))
    parts.append(Conventional((gate("CX", ["q0", "q2"]), gate("CX", ["q0", "q1"]))))
    return CircuitSpec(qubits=("q0", "q1", "q2", "a0", "a1"), circuit=seq(*parts),
                       fixed_init={"q1": "0", "q2": "0", "a0": "0", "a1": "0"},
                       inputs=("q0",), outputs=("q0",))


def identity_on(q: str = "q0") -> CircuitSpec:
    return CircuitSpec(qubits=(q,), circuit=Conventional(()),
                       fixed_init={}, inputs=(q,), outputs=(q,))


def bitflip_pair(err: str | None = None) -> BenchmarkPair:
    name = "Bitflip" if err is None else f"Bitflip[{err}]"
    return BenchmarkPair(name, "q", bitflip_code(err), identity_on("q0"))


def phaseflip_pair(err: str | None = None) -> BenchmarkPair:
    name = "Phaseflip" if err is None else f"Phaseflip[{err}]"
    return BenchmarkPair(name, "q", phaseflip_code(err), identity_on("q0"))


# -- state injection ------------------------------------------------------------------


def state_inject(g: str = "T") -> CircuitSpec:
    """Gate teleportation of a diagonal phase gate via an ancilla resource.

    The ancilla is prepared in P(theta)|+>; a CX onto it, a measurement and a
    classically controlled P(2 theta) correction leave P(theta) applied to
    the data qubit.
    """
    theta = {"S": math.pi / 2.0, "T": math.pi / 4.0}.get(g.upper())
    if theta is None:
        raise ValueError("state injection supports S and T")
    parts = [Conventional((gate("P", ["a"], [theta]), gate("CX", ["q", "a"]))),
             Measure(MeasureStep(("a",), ("c",))),
             CondGate(gate("P", ["q"], [2.0 * theta]), ("c",),
                      BoolFunc.identity(1), expr="c")]
    return CircuitSpec(qubits=("q", "a"), circuit=seq(*parts),
                       fixed_init={"a": "+"}, inputs=("q",), outputs=("q",))


def bare_gate(g: str = "T") -> CircuitSpec:
    theta = {"S": math.pi / 2.0, "T": math.pi / 4.0}[g.upper()]
    return CircuitSpec(qubits=("q",),
                       circuit=Conventional((gate("P", ["q"], [theta]),)),
                       fixed_init={}, inputs=("q",), outputs=("q",))


def state_inject_pair(g: str = "T") -> BenchmarkPair:
    return BenchmarkPair(f"State_inject_{g.upper()}", "q", state_inject(g), bare_gate(g))


# -- suites -------------------------------------------------------------------------


def qec_suite() -> list[BenchmarkPair]:
    return [bitflip_pair(), phaseflip_pair(), teleport_pair(),
            state_inject_pair("S"), state_inject_pair("T")]


def suite(name: str, max_n: int = 12) -> list[BenchmarkPair]:
    if name in ("qft", "pe", "all") and max_n < 2:   # else it would check no pair
        raise ValueError(f"suite {name!r} needs max_n >= 2, got {max_n}")
    if name == "qft":
        return [qft_pair(n) for n in range(2, max_n + 1)]
    if name == "pe":
        return [pe_pair(n, _default_phi(n)) for n in range(2, min(max_n, 7) + 1)]
    if name == "qec":
        return qec_suite()
    if name == "all":
        return suite("qft", max_n) + suite("pe", max_n) + suite("qec")
    raise ValueError(f"unknown suite {name!r}")


def _default_phi(n: int) -> float:
    """An n-bit-representable phase with mixed digits and a set last bit."""
    k = ((1 << n) // 3) | 1
    return k / (1 << n)


# -- randomised circuits and mutations --------------------------------------------


_ONE_QUBIT = ["H", "X", "Y", "Z", "S", "T"]
_TWO_QUBIT = ["CX", "CZ", "SWAP"]


def random_dqc(rng: random.Random, mode: str, n_qubits: int | None = None,
               n_gates: int | None = None, n_meas: int | None = None) -> CircuitSpec:
    """Random flat dynamic circuit within desk scale (<=4 qubits by default)."""
    n = n_qubits or rng.randint(2, 4)
    qs = [f"q{k}" for k in range(n)]
    gates_budget = n_gates if n_gates is not None else rng.randint(3, 12)
    meas_budget = n_meas if n_meas is not None else rng.randint(1, 3)
    parts = []
    measured: list[str] = []
    bits: list[str] = []
    free = list(qs)
    for _ in range(gates_budget):
        roll = rng.random()
        if roll < 0.25 and bits:
            target = rng.choice([q for q in qs if q not in measured])
            b = rng.choice(bits)
            name = rng.choice(["X", "Z", "S", "H"])
            parts.append(CondGate(gate(name, [target]), (b,),
                                  BoolFunc.identity(1), expr=b))
        elif roll < 0.6 or n < 2:
            q = rng.choice([q for q in qs if q not in measured])
            parts.append(Conventional((gate(rng.choice(_ONE_QUBIT), [q]),)))
        else:
            cands = [q for q in qs if q not in measured]
            if len(cands) < 2:
                continue
            a, b2 = rng.sample(cands, 2)
            parts.append(Conventional((gate(rng.choice(_TWO_QUBIT), [a, b2]),)))
        if len(measured) < meas_budget and rng.random() < 0.25 and len(measured) < n - 1:
            q = rng.choice([q for q in qs if q not in measured])
            bit = f"c{len(bits)}"
            parts.append(Measure(MeasureStep((q,), (bit,))))
            measured.append(q)
            bits.append(bit)
    if mode == "m":
        if not bits:
            q = qs[-1]
            parts.append(Measure(MeasureStep((q,), ("c0",))))
            measured.append(q)
            bits.append("c0")
        init = {q: rng.choice("01+") for q in qs}
        return CircuitSpec(qubits=tuple(qs), circuit=seq(*parts), fixed_init=init,
                           inputs=(), outputs=tuple(measured),
                           output_bits=tuple(bits))
    unmeasured = [q for q in qs if q not in measured]
    n_in = rng.randint(0, len(unmeasured))
    ins = tuple(unmeasured[:n_in])
    init = {q: rng.choice("01+") for q in qs if q not in ins}
    return CircuitSpec(qubits=tuple(qs), circuit=seq(*parts), fixed_init=init,
                       inputs=ins, outputs=tuple(unmeasured))


def rewrite(rng: random.Random, spec: CircuitSpec) -> CircuitSpec:
    """A semantics-preserving cosmetic variant (inserted G;G† pairs)."""
    from .circuits import flatten
    steps = flatten(spec.circuit)
    out = []
    inserted = False
    for st in steps:
        out.append(st)
        if not inserted and isinstance(st, Conventional) and st.gates and rng.random() < 0.7:
            g = st.gates[-1]
            q = g.qubits[0]
            pair = rng.choice([("H", "H"), ("X", "X"), ("S", "SDG"), ("T", "TDG")])
            out.append(Conventional((gate(pair[0], [q]), gate(pair[1], [q]))))
            inserted = True
    return CircuitSpec(qubits=spec.qubits, circuit=seq(*out),
                       fixed_init=dict(spec.fixed_init), inputs=spec.inputs,
                       outputs=spec.outputs, output_bits=spec.output_bits)


_REPLACEMENTS = {"H": ["X", "Y", "Z", "S", "T"], "X": ["H", "Y", "Z", "S"],
                 "Y": ["X", "Z", "H", "T"], "Z": ["X", "H", "S", "Y"],
                 "S": ["Z", "T", "X", "H"], "T": ["S", "Z", "X", "H"],
                 "SDG": ["S", "Z", "X"], "TDG": ["T", "Z", "X"],
                 "CX": ["CZ", "SWAP"], "CZ": ["CX", "SWAP"], "SWAP": ["CX", "CZ"],
                 "P": ["X", "H", "Z", "S", "T", "Y"], "CP": ["CX", "CZ", "SWAP"]}


def mutations(spec: CircuitSpec, rng: random.Random, count: int = 40):
    """Candidate single-step mutations: gate swaps, dropped corrections,
    rewired classical controls.  Yields (description, mutated spec)."""
    from .circuits import flatten
    steps = flatten(spec.circuit)
    if not steps:
        return
    seen = set()
    for _ in range(count * 4):
        k = rng.randrange(len(steps))
        st = steps[k]
        if isinstance(st, Conventional) and st.gates:
            g = st.gates[0]
            repl = rng.choice(_REPLACEMENTS.get(g.name, ["X"]))
            key = ("swap", k, repl)
            if key in seen:
                continue
            seen.add(key)
            new = Conventional((gate(repl, list(g.qubits)[:1]) if repl in _ONE_QUBIT
                                and len(g.qubits) > 1 else gate(repl, list(g.qubits)),))
            yield (f"replace {g.label()} with {repl} at step {k}",
                   _respliced(spec, steps, k, new))
        elif isinstance(st, CondGate):
            choice = rng.random()
            if choice < 0.4:
                key = ("drop", k)
                if key in seen:
                    continue
                seen.add(key)
                yield (f"drop conditional {st.gate.label()} at step {k}",
                       _respliced(spec, steps, k, None))
            elif choice < 0.7:
                key = ("negate", k)
                if key in seen:
                    continue
                seen.add(key)
                yield (f"negate control of {st.gate.label()} at step {k}",
                       _respliced(spec, steps, k,
                                  CondGate(st.gate, st.bits, ~st.func,
                                           expr=f"!({st.expr})")))
            else:
                g = st.gate
                repl = rng.choice(_REPLACEMENTS.get(g.name, ["X"]))
                if repl not in _ONE_QUBIT or len(g.qubits) != 1:
                    continue
                key = ("cswap", k, repl)
                if key in seen:
                    continue
                seen.add(key)
                yield (f"replace conditional {g.label()} with {repl} at step {k}",
                       _respliced(spec, steps, k,
                                  CondGate(gate(repl, list(g.qubits)), st.bits,
                                           st.func, expr=st.expr)))
        elif isinstance(st, Branch):
            i = rng.randrange(len(st.branches))
            body = st.branches[i]
            if not isinstance(body, Conventional) or not body.gates:
                continue
            key = ("branchdrop", k, i)
            if key in seen:
                continue
            seen.add(key)
            new_branches = list(st.branches)
            new_branches[i] = Conventional(body.gates[1:])
            yield (f"drop correction in branch {i} at step {k}",
                   _respliced(spec, steps, k,
                              Branch(st.measure, st.func, tuple(new_branches),
                                     st.exprs)))


def _respliced(spec: CircuitSpec, steps, k, replacement) -> CircuitSpec:
    new_steps = list(steps)
    if replacement is None:
        del new_steps[k]
    else:
        new_steps[k] = replacement
    return CircuitSpec(qubits=spec.qubits, circuit=seq(*new_steps),
                       fixed_init=dict(spec.fixed_init), inputs=spec.inputs,
                       outputs=spec.outputs, output_bits=spec.output_bits)
