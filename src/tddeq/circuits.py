"""Dynamic quantum circuit model.

A dynamic circuit is built inductively from conventional gate segments, a
measurement-dispatched branch construct, and sequential composition.
Composition is associative, so ``Seq`` holds a flat tuple of steps and every
pass over a circuit loops over it, recursing only into branch bodies.  Two
additional step forms, ``Measure`` and ``CondGate``, are the lowered shape of
a branch (measure first, then classically controlled steps); generators and
the text format use them directly.  ``lower_controls`` rewrites every branch
into flat guarded steps, merging the gates that its mutually exclusive
bodies share into one gate under the OR of their guards; a measurement in a
body becomes a ``CondMeasure``, the one step form only lowering makes.

A ``CircuitSpec`` wraps a circuit with its declared qubits, a fixed product
input state on the non-principal inputs, the principal input/output qubits,
and the classical output bits.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .logic import FALSE, TRUE, BoolFunc
from .tdd import DENSE_CACHE, UNITARY_TOL


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary on an ordered qubit tuple, params in radians.

    The gate owns a read-only complex copy of ``matrix`` and its bytes,
    ``data``, on which every check and cache keys; changing the array it
    was built from changes neither."""

    name: str
    params: tuple[float, ...]
    qubits: tuple[str, ...]
    matrix: np.ndarray
    data: bytes = field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.qubits)
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "data", mat.tobytes())
        if mat.shape != (1 << k, 1 << k):
            raise ValueError(f"{self.name}: matrix shape does not match {k} qubits")
        if len(set(self.qubits)) != k:
            raise ValueError(f"{self.name}: repeated qubit")

    def label(self) -> str:
        """The name and parameters as ``print_spec`` writes them; made on
        the first call and kept on the gate."""
        text = getattr(self, "_label", None)
        if text is None:
            text = f"{self.name}({','.join(map(repr, self.params))})" if self.params else self.name
            object.__setattr__(self, "_label", text)
        return text


_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "S": np.diag([1, 1j]),
    "SDG": np.diag([1, -1j]),
    "T": np.diag([1, cmath.exp(0.25j * math.pi)]),
    "TDG": np.diag([1, cmath.exp(-0.25j * math.pi)]),
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": np.diag([1, 1, 1, -1]),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def gate(name: str, qubits: Sequence[str], params: Sequence[float] = ()) -> Gate:
    """Library constructor; knows H X Y Z S SDG T TDG CX CZ SWAP P CP.

    Library gates are interned: each distinct (name, qubits, params) is one
    shared, immutable ``Gate``, checked and built once per process."""
    params = tuple(float(p) for p in params)
    # -0.0 == 0.0, but P(-0.0) prints apart from P(0.0): the signs keep it its label
    return _library_gate(name.upper(), tuple(qubits), params,
                         tuple(math.copysign(1.0, p) for p in params))


@lru_cache(maxsize=DENSE_CACHE)
def _library_gate(name: str, qubits: tuple[str, ...], params: tuple[float, ...],
                  signs: tuple[float, ...]) -> Gate:
    if name in _FIXED:
        if params:
            raise ValueError(f"{name} takes no parameters")
        mat = _FIXED[name]
    elif name in ("P", "CP"):
        if len(params) != 1:
            raise ValueError(f"{name} takes 1 parameter, got {len(params)}")
        if not math.isfinite(params[0]):
            raise ValueError(f"{name}: parameter {params[0]} is not finite")
        mat = np.diag([1.0] * (1 if name == "P" else 3) + [cmath.exp(1j * params[0])])
    else:
        raise ValueError(f"unknown gate {name!r}")
    g = Gate(name, params, qubits, mat)
    _check_unitary(g)
    return g


def _check_unitary(g: Gate):
    err = _unitary_deviation(g.data, g.matrix.shape[0])
    if not err <= UNITARY_TOL:    # also true for nan
        raise ValueError(f"{g.name}: matrix is not unitary (deviation {err:.2e})")


@lru_cache(maxsize=DENSE_CACHE)
def _unitary_deviation(data: bytes, d: int) -> float:
    """Largest entry of |U^H U - I| for the complex d x d matrix in ``data``."""
    u = np.frombuffer(data, dtype=complex).reshape(d, d)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


@dataclass(frozen=True)
class MeasureStep:
    """Computational-basis measurement of ``qubits`` into classical ``bits``."""

    qubits: tuple[str, ...]
    bits: tuple[str, ...]

    def __post_init__(self):
        if len(self.qubits) != len(self.bits):
            raise ValueError("one classical bit per measured qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("measured qubits must be distinct")


@dataclass(frozen=True)
class Conventional:
    gates: tuple[Gate, ...]


@dataclass(frozen=True)
class Measure:
    step: MeasureStep


@dataclass(frozen=True)
class CondGate:
    """Gate applied when ``func`` of the (already measured) bits equals 1."""

    gate: Gate
    bits: tuple[str, ...]
    func: BoolFunc
    expr: str = ""

    def __post_init__(self):
        if self.func.arity != len(self.bits) or self.func.outputs != 1:
            raise ValueError("control function shape mismatch")


@dataclass(frozen=True)
class CondMeasure:
    """Measurement ``step`` taken when ``func`` of the bits equals 1; untaken,
    its bits read 0.  Only ``lower_controls`` makes it, from a body's measure."""

    step: MeasureStep
    bits: tuple[str, ...]
    func: BoolFunc


@dataclass(frozen=True)
class Branch:
    """Measure ``measure.qubits``, dispatch through ``func``, run one branch."""

    measure: MeasureStep
    func: BoolFunc
    branches: tuple["DynCircuit", ...]
    exprs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.func.arity != len(self.measure.qubits):
            raise ValueError("dispatch arity must equal the number of measured qubits")
        if len(self.branches) != 1 << self.func.outputs:
            raise ValueError("need exactly 2^t branches")


@dataclass(frozen=True)
class Seq:
    """Sequential composition as a flat step list; no step is itself a Seq."""

    steps: tuple["DynCircuit", ...]

    def __post_init__(self):
        if any(isinstance(st, Seq) for st in self.steps):
            raise ValueError("a Seq step may not be a Seq; build with seq()")


DynCircuit = Union[Conventional, Measure, CondGate, CondMeasure, Branch, Seq]


def seq(*parts: DynCircuit) -> DynCircuit:
    """Compose in order, splicing Seq parts and dropping empty segments."""
    steps: list[DynCircuit] = []
    for p in parts:
        if isinstance(p, Seq):
            steps.extend(p.steps)
        elif not (isinstance(p, Conventional) and not p.gates):
            steps.append(p)
    if not steps:
        return Conventional(())
    return steps[0] if len(steps) == 1 else Seq(tuple(steps))


def steps_of(c: DynCircuit) -> tuple[DynCircuit, ...]:
    """The steps of ``c`` in order, as built: a ``Conventional`` may hold
    several gates, and a Branch stays one step."""
    return c.steps if isinstance(c, Seq) else (c,)


def flatten(c: DynCircuit) -> list[DynCircuit]:
    """Temporal step list, one gate per Conventional; Branch constructs stay
    as single steps."""
    out: list[DynCircuit] = []
    for st in steps_of(c):
        if isinstance(st, Conventional):
            out.extend(Conventional((g,)) for g in st.gates)
        else:
            out.append(st)
    return out


def qvar(c: DynCircuit) -> frozenset[str]:
    """Qubits the circuit operates on; a branch contributes only its bodies."""
    out: set[str] = set()
    for st in flatten(c):
        if isinstance(st, Conventional):
            out.update(st.gates[0].qubits)
        elif isinstance(st, (Measure, CondMeasure)):
            out.update(st.step.qubits)
        elif isinstance(st, CondGate):
            out.update(st.gate.qubits)
        elif isinstance(st, Branch):
            for b in st.branches:
                out |= qvar(b)
        else:
            raise TypeError(f"not a circuit: {st!r}")
    return frozenset(out)


INIT_STATES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_SQ2, _SQ2], dtype=complex),
}


@dataclass(frozen=True)
class CircuitSpec:
    """(circuit, fixed input state, principal inputs, principal outputs)."""

    qubits: tuple[str, ...]
    circuit: DynCircuit
    fixed_init: dict[str, str] = field(default_factory=dict)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    output_bits: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    """Equivalent, NotEquivalent (with a witness), or Inconclusive."""

    status: str  # "equivalent" | "not-equivalent" | "inconclusive"
    witness: object = None
    reason: str = ""

    @staticmethod
    def equivalent() -> "Verdict":
        return Verdict("equivalent")

    @staticmethod
    def not_equivalent(witness) -> "Verdict":
        return Verdict("not-equivalent", witness=witness)

    @staticmethod
    def inconclusive(reason: str) -> "Verdict":
        return Verdict("inconclusive", reason=reason)

    def __bool__(self):
        return self.status == "equivalent"


# -- validation -------------------------------------------------------------


def _walk(c: DynCircuit, loc: str, gates: list[Gate], measured_qubits: set[str],
          measured: set[str], errors: list[str],
          scope: frozenset[str] = frozenset()) -> tuple[set[str], set[str]]:
    """One pass over ``c`` for ``validate``.

    Appends every gate to ``gates`` and every measured qubit to
    ``measured_qubits``, checks write-once bits into ``errors``, and that
    every bit a control reads is measured on every path to it (``scope``
    holds those measured before ``c``).  Returns ``qvar(c)`` with the bits
    measured on every execution path, ``scope`` included.  Recurses only
    into branch bodies.
    """
    qs: set[str] = set()
    guaranteed: set[str] = set(scope)

    def mark(bits):
        for b in bits:
            if b in measured:
                errors.append(f"{loc}: bit {b} measured twice")
            measured.add(b)
            guaranteed.add(b)

    for st in steps_of(c):
        if isinstance(st, Conventional):
            gates.extend(st.gates)
            for g in st.gates:
                qs.update(g.qubits)
        elif isinstance(st, Measure):
            qs.update(st.step.qubits)
            measured_qubits.update(st.step.qubits)
            mark(st.step.bits)
        elif isinstance(st, CondGate):
            gates.append(st.gate)
            qs.update(st.gate.qubits)
            for b in st.bits:
                if b not in guaranteed:
                    errors.append(f"{loc}: control bit {b} " + (
                        "is not measured on every path" if b in measured
                        else "used before measurement"))
        elif isinstance(st, Branch):
            measured_qubits.update(st.measure.qubits)
            mark(st.measure.bits)
            sub_guaranteed = None
            for i, body in enumerate(st.branches):
                at = len(errors)
                body_qs, g = _walk(body, f"{loc}/branch{i}", gates, measured_qubits,
                                   measured, errors, frozenset(guaranteed))
                overlap = frozenset(st.measure.qubits) & body_qs
                if overlap:
                    errors.insert(at, f"{loc}: branch {i} acts on measured qubits "
                                      f"{sorted(overlap)}")
                qs |= body_qs
                sub_guaranteed = g if sub_guaranteed is None else (sub_guaranteed & g)
            if sub_guaranteed:
                guaranteed |= sub_guaranteed
        else:
            errors.append(f"{loc}: unknown construct {type(st).__name__}")
    return qs, guaranteed


def validate(spec: CircuitSpec) -> list[str]:
    """All structural invariants; returns an error list, empty when valid."""
    errors: list[str] = []
    declared = set(spec.qubits)
    if len(declared) != len(spec.qubits):
        errors.append("duplicate qubit declaration")
    gates: list[Gate] = []
    measured_qubits: set[str] = set()
    measured: set[str] = set()
    bit_errors: list[str] = []
    qs, guaranteed = _walk(spec.circuit, "circuit", gates, measured_qubits,
                           measured, bit_errors)
    for q in qs | measured_qubits:
        if q not in declared:
            errors.append(f"undeclared qubit {q}")
    for q in spec.inputs:
        if q not in declared:
            errors.append(f"principal input {q} not declared")
    for q in spec.outputs:
        if q not in declared:
            errors.append(f"principal output {q} not declared")
    for what, names in (("principal input", spec.inputs), ("principal output", spec.outputs),
                        ("output bit", spec.output_bits)):
        twice = sorted(n for n, c in Counter(names).items() if c > 1)
        if twice:
            errors.append(f"duplicate {what} {twice}")
    expected_init = declared - set(spec.inputs)
    if set(spec.fixed_init) != expected_init:
        missing = expected_init - set(spec.fixed_init)
        extra = set(spec.fixed_init) - expected_init
        if missing:
            errors.append(f"missing fixed init for {sorted(missing)}")
        if extra:
            errors.append(f"fixed init on principal inputs {sorted(extra)}")
    for q, s in spec.fixed_init.items():
        if s not in INIT_STATES:
            errors.append(f"unknown init state {s!r} for {q}")
    for g in gates:
        try:
            _check_unitary(g)
        except ValueError as exc:
            errors.append(str(exc))
        for q in g.qubits:
            if q not in declared:
                errors.append(f"gate {g.name} on undeclared qubit {q}")
    errors.extend(bit_errors)
    for b in spec.output_bits:
        if b not in measured:
            errors.append(f"output bit {b} is never measured")
        elif b not in guaranteed:
            errors.append(f"output bit {b} is not measured on every path")
    if spec.output_bits and spec.inputs:
        errors.append("m-mode spec (with output bits) requires empty principal inputs")
    return errors


# -- lowering -----------------------------------------------------------------


def lower_controls(c: DynCircuit) -> DynCircuit:
    """Rewrite every branch into its measure and flat guarded steps; a
    circuit that holds no branch is returned as it is.

    Each body is lowered first and read through ``flatten``, so a branch
    lowers the same whether its bodies were built as one segment or parsed
    line by line.  Body i's gate or measurement is guarded by ``f == i``,
    its ``ifc g`` or guarded step by ``f == i & g``, so nested dispatches
    AND their guards; a guarded measurement is a ``CondMeasure``.  At most
    one body runs, so steps of different bodies commute, and a gate that
    bodies share becomes one gate under the OR of their guards, on only the
    bits that guard reads (teleportation's {I, X, Z, XZ} become X and Z,
    each under one bit).
    """
    steps = steps_of(c)
    if not any(isinstance(st, Branch) for st in steps):
        return c
    out: list[DynCircuit] = []
    for st in steps:
        if isinstance(st, Branch):
            out.append(Measure(st.measure))
            out.extend(_lower_branch(st))
        else:
            out.append(st)
    return seq(*out)


def _lower_branch(c: Branch) -> list[DynCircuit]:
    bodies = [flatten(lower_controls(b)) for b in c.branches]
    bits = c.measure.bits
    for st in (s for body in bodies for s in body if isinstance(s, (CondGate, CondMeasure))):
        bits += tuple(b for b in st.bits if b not in bits)
    merged: list[tuple[Gate | MeasureStep, BoolFunc]] = []
    for i, body in enumerate(bodies):
        sel = BoolFunc(len(bits), c.func.selector(i).roots)
        merged = _merge(merged, [
            (st.gates[0] if isinstance(st, Conventional) else
             st.gate if isinstance(st, CondGate) else st.step,
             sel if isinstance(st, (Conventional, Measure)) else
             sel & st.func.relabel([bits.index(b) for b in st.bits], len(bits)))
            for st in body])
    out: list[DynCircuit] = []
    for op, f in merged:
        meas = isinstance(op, MeasureStep)
        if f.roots[0] is TRUE:
            out.append(Measure(op) if meas else Conventional((op,)))
        elif f.roots[0] is not FALSE:
            # each step reads only the bits its guard depends on
            used = f.support()
            f = f.relabel([used.index(p) if p in used else 0
                           for p in range(f.arity)], len(used))
            out.append((CondMeasure if meas else CondGate)(op, tuple(bits[p] for p in used), f))
    return out


def _merge(a: list, b: list) -> list:
    """Two (gate or measurement, guard) lists aligned by a longest common
    subsequence of keys: an aligned pair ORs its guards, unaligned entries
    keep their order, ``a``'s first.  A measurement keys as itself, and
    bits are written once, so it aligns with nothing."""
    ka, kb = ([op if isinstance(op, MeasureStep) else (op.name, op.params, op.qubits)
               for op, _ in x] for x in (a, b))
    n, m = len(a), len(b)
    lcs = [[0] * (m + 1) for _ in range(n + 1)]   # LCS lengths of a[i:], b[j:]
    for i in reversed(range(n)):
        for j in reversed(range(m)):
            lcs[i][j] = (lcs[i + 1][j + 1] + 1 if ka[i] == kb[j]
                         else max(lcs[i + 1][j], lcs[i][j + 1]))
    out, i, j = [], 0, 0
    while i < n and j < m:
        if ka[i] == kb[j]:
            out.append((a[i][0], a[i][1] | b[j][1]))
            i, j = i + 1, j + 1
        elif lcs[i + 1][j] >= lcs[i][j + 1]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out + a[i:] + b[j:]
