"""Dense reference semantics for dynamic circuits.

The functionality of a dynamic circuit is an ensemble of linear operators,
one per resolved measurement record: a conventional segment contributes its
unitary, a measurement splits every member by outcome projectors, a
classically controlled gate reads the member's record, and a dispatch runs
the selected branch on each member's own record.  Branches run as written,
not lowered, so the oracle checks ``lower_controls`` too.  Wrapping a
circuit with a fixed input state, principal inputs and principal outputs
turns the ensemble into a superoperator (sum over members, partial trace
over non-output qubits), represented here by its Choi matrix.

Everything is dense and intentionally exponential; it exists as ground truth
for the diagram-based checker at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import (Branch, CircuitSpec, CondGate, Conventional, DynCircuit,
                       INIT_STATES, Measure, Seq, validate)
from .tdd import ORACLE_ATOL, ORACLE_LIVE

MAX_ORACLE_QUBITS = 12
MAX_ENSEMBLE = 1 << 20


class OracleScaleError(Exception):
    pass


@dataclass(frozen=True)
class EnsembleMember:
    record: tuple[tuple[str, int], ...]  # (bit, value) in execution order
    op: np.ndarray


def _apply(mat: np.ndarray, positions: list[int], op: np.ndarray) -> np.ndarray:
    """A k-qubit matrix on the qubits at ``positions`` (MSB first) applied to
    ``op``, a 2^n x m matrix: contracted into op's qubit axes, so the
    2^n x 2^n embedding of ``mat`` is never built."""
    k, n = len(positions), op.shape[0].bit_length() - 1
    axes = list(range(n + 1))            # op's qubit axes, then its column axis
    fresh = list(range(n + 1, n + 1 + k))    # the gate's output axes
    out = axes.copy()
    for p, f in zip(positions, fresh):
        out[p] = f
    return np.einsum(mat.reshape((2,) * (2 * k)), fresh + list(positions),
                     op.reshape((2,) * n + (-1,)), axes, out).reshape(op.shape)


def _proj(value: int) -> np.ndarray:
    p = np.zeros((2, 2))
    p[value, value] = 1.0
    return p


def semantics(circuit: DynCircuit, qubits: tuple[str, ...]) -> list[EnsembleMember]:
    """Ensemble of operators on the full register ``qubits``."""
    n = len(qubits)
    if n > MAX_ORACLE_QUBITS:
        raise OracleScaleError(f"{n} qubits exceed the oracle limit")
    pos = {q: k for k, q in enumerate(qubits)}
    members = [EnsembleMember((), np.eye(1 << n, dtype=complex))]

    def bits_env(record):
        return dict(record)

    def project(op, qubits, values):
        for q, v in zip(qubits, values):
            op = _apply(_proj(v), [pos[q]], op)
        return op

    def run(c: DynCircuit, members):
        if isinstance(c, Conventional):
            gates = [(g.matrix, [pos[q] for q in g.qubits]) for g in c.gates]
            out = []
            for m in members:
                op = m.op
                for mat, at in gates:
                    op = _apply(mat, at, op)
                out.append(EnsembleMember(m.record, op))
            return out
        if isinstance(c, Measure):
            out = []
            for m in members:
                for values in itertools.product((0, 1), repeat=len(c.step.qubits)):
                    rec = m.record + tuple(zip(c.step.bits, values))
                    out.append(EnsembleMember(rec, project(m.op, c.step.qubits, values)))
            _guard(out)
            return out
        if isinstance(c, CondGate):
            at = [pos[q] for q in c.gate.qubits]
            out = []
            for m in members:
                env = bits_env(m.record)
                fired = c.func([env[b] for b in c.bits])
                out.append(EnsembleMember(
                    m.record, _apply(c.gate.matrix, at, m.op) if fired else m.op))
            return out
        if isinstance(c, Branch):
            # the selected body runs on each member's own record, so an
            # ifc inside it can read the bits measured before it
            out = []
            for m in members:
                for values in itertools.product((0, 1), repeat=len(c.measure.qubits)):
                    rec = m.record + tuple(zip(c.measure.bits, values))
                    out += run(c.branches[c.func(values)],
                               [EnsembleMember(rec, project(m.op, c.measure.qubits, values))])
            _guard(out)
            return out
        if isinstance(c, Seq):
            for st in c.steps:
                members = run(st, members)
            return members
        raise TypeError(f"not a circuit: {c!r}")

    def _guard(ms):
        if len(ms) > MAX_ENSEMBLE:
            raise OracleScaleError("ensemble size limit exceeded")

    return run(circuit, members)


def _injection(spec: CircuitSpec) -> np.ndarray:
    """Matrix H_inputs -> H_all mapping rho to |psi><psi| (x) rho embedding."""
    n = len(spec.qubits)
    ins = list(spec.inputs)
    k = len(ins)
    cols = []
    for x in range(1 << k):
        vec = np.ones(1, dtype=complex)
        for q in spec.qubits:
            if q in ins:
                b = (x >> (k - 1 - ins.index(q))) & 1
                amp = np.zeros(2, dtype=complex)
                amp[b] = 1.0
            else:
                amp = INIT_STATES[spec.fixed_init[q]]
            vec = np.outer(vec, amp).ravel()
        cols.append(vec)
    return np.stack(cols, axis=1)


def branch_choi(spec: CircuitSpec) -> dict[tuple, np.ndarray]:
    """Choi matrix of each outcome record's branch map (inputs -> outputs)."""
    errors = validate(spec)
    if errors:
        raise ValueError("; ".join(errors))
    n = len(spec.qubits)
    members = semantics(spec.circuit, spec.qubits)
    inj = _injection(spec)
    k = len(spec.inputs)
    keep = sorted(spec.qubits.index(q) for q in spec.outputs)
    kout = len(keep)
    # kept axes come out in register order; permute them to spec.outputs order
    perm_out = [keep.index(spec.qubits.index(q)) for q in spec.outputs]
    out: dict[tuple, np.ndarray] = {}
    for m in members:
        v = m.op @ inj  # 2^n x 2^k
        # vectorise: sum_x (V|x>) (x) |x>  on  H_all (x) H_in
        vec = v.reshape(-1)
        dm = np.outer(vec, vec.conj()).reshape((1 << n, 1 << k, 1 << n, 1 << k))
        dm = dm.transpose(0, 2, 1, 3)
        # dm[a, a', x, x']; trace the non-output qubits out of the a registers
        t = dm.reshape((2,) * (2 * n) + ((1 << k) ** 2,))
        drop = [a for a in range(n) if a not in keep]
        for a in sorted(drop, reverse=True):
            t = np.trace(t, axis1=a, axis2=a + (t.ndim - 1) // 2)
        t = t.transpose(perm_out + [p + kout for p in perm_out] + [2 * kout])
        choi = t.reshape(1 << kout, 1 << kout, 1 << k, 1 << k)
        choi = choi.transpose(0, 2, 1, 3).reshape((1 << kout) * (1 << k),
                                                  (1 << kout) * (1 << k))
        key = m.record
        out[key] = out.get(key, 0) + choi
    return out


def superoperator(spec: CircuitSpec) -> np.ndarray:
    """Choi matrix of the wrapped circuit's superoperator.

    Basis convention: Choi = sum_{x,x'} E(|x><x'|) (x) |x><x'|; the trace of
    a trace-preserving map's Choi equals 2^(number of principal inputs).
    """
    total = None
    for choi in branch_choi(spec).values():
        total = choi if total is None else total + choi
    if total is None:
        k = len(spec.inputs)
        total = np.zeros(((1 << k) ** 2, (1 << k) ** 2), dtype=complex)
    return total


def identity_choi(k: int) -> np.ndarray:
    """Choi matrix of the k-qubit identity channel."""
    omega = np.zeros((1 << k) ** 2, dtype=complex)
    for x in range(1 << k):
        omega[x * (1 << k) + x] = 1.0
    return np.outer(omega, omega.conj())


def outcome_distribution(spec: CircuitSpec) -> dict[str, float]:
    """Probability of each output-bit string for an m-mode spec."""
    errors = validate(spec)
    if errors:
        raise ValueError("; ".join(errors))
    if spec.inputs:
        raise ValueError("outcome_distribution requires an m-mode spec (no principal inputs)")
    if not spec.output_bits:
        raise ValueError("spec declares no output bits")
    members = semantics(spec.circuit, spec.qubits)
    psi = _injection(spec)[:, 0]
    dist: dict[str, float] = {}
    for m in members:
        env = dict(m.record)
        key = "".join(str(env[b]) for b in spec.output_bits)
        dist[key] = dist.get(key, 0.0) + float(np.linalg.norm(m.op @ psi) ** 2)
    return dist


def _povm_by_outputs(spec: CircuitSpec) -> dict[str, np.ndarray]:
    """POVM elements on the principal inputs, grouped by output-bit record."""
    members = semantics(spec.circuit, spec.qubits)
    inj = _injection(spec)
    out: dict[str, np.ndarray] = {}
    for m in members:
        env = dict(m.record)
        key = "".join(str(env[b]) for b in spec.output_bits)
        v = m.op @ inj
        e = v.conj().T @ v
        out[key] = out.get(key, 0) + e
    return out


def oracle_m_eq(a: CircuitSpec, b: CircuitSpec, atol: float = ORACLE_ATOL) -> bool:
    """Output distributions equal; with open inputs, the output POVMs equal."""
    if len(a.output_bits) != len(b.output_bits):
        raise ValueError("output bit counts differ")
    if len(a.inputs) != len(b.inputs):
        raise ValueError("principal input counts differ")
    ea, eb = _povm_by_outputs(a), _povm_by_outputs(b)
    k = len(a.inputs)
    zero = np.zeros((1 << k, 1 << k))
    for key in set(ea) | set(eb):
        if np.max(np.abs(ea.get(key, zero) - eb.get(key, zero))) > atol:
            return False
    return True


def _proportional_family(chois: dict, atol: float):
    """Common normalised Choi if all nonzero branches are proportional."""
    live = {k: c for k, c in chois.items() if float(np.abs(c).max()) > ORACLE_LIVE}
    if not live:
        return None, []
    ref_key = max(live, key=lambda k: float(np.trace(live[k]).real))
    ref = live[ref_key]
    tref = float(np.trace(ref).real)
    for key, c in live.items():
        lam = float(np.trace(c).real) / tref
        if np.max(np.abs(c - lam * ref)) > atol:
            return None, [key, ref_key]
        if lam < -atol:
            return None, [key, ref_key]
    return ref / tref, []


def oracle_q_eq(a: CircuitSpec, b: CircuitSpec, atol: float = ORACLE_ATOL):
    """Outcome-independence of both circuits plus equality of the common map.

    Branch maps are compared through their Choi matrices: within one circuit
    every reachable branch must be proportional to a common map; across the
    circuits the trace-normalised common maps must agree entrywise.
    """
    ca, cb = branch_choi(a), branch_choi(b)
    na, bad_a = _proportional_family(ca, atol)
    if na is None and bad_a:
        return False
    nb, bad_b = _proportional_family(cb, atol)
    if nb is None and bad_b:
        return False
    if na is None or nb is None:
        return na is None and nb is None
    return bool(np.max(np.abs(na - nb)) <= atol)


def oracle_full_eq(a: CircuitSpec, b: CircuitSpec, atol: float = ORACLE_ATOL) -> bool:
    """Equality of the summed superoperators (Choi matrices entrywise)."""
    return bool(np.max(np.abs(superoperator(a) - superoperator(b))) <= atol)
