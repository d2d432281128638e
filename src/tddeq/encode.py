"""Compile a circuit spec into a tensor decision diagram.

Every gate and guarded gate or measurement becomes a small tensor over
wire-segment and outcome indices; the diagram of the circuit is the
contraction of all of them.  An unguarded measurement costs no tensor: its
COPY is diagonal in the qubit's wire, so the wire is renamed to the
outcome.  The netlist is built in four steps.  A walk carries each
fixed-input qubit as a dense 2-vector until a step entangles it.  A 1-qubit
gate updates the vector; a gate, guarded or not, that passes through a
qubit in a basis state |b> is sliced at b, and the qubit keeps its vector
(a CP on |0> vanishes, on |1> it is a P on its other qubit; a phase an
all-basis slice leaves goes into a vector, or onto the guard bits).  Any
other step takes the vector into its own tensor, and a measurement or the
finish emits it as a rank-1 entry.  Past that, the walk gives a qubit a
fresh wire segment at every step that does not pass it through.  A gate
passes through each qubit its matrix is block-diagonal on (every entry
with out_j != in_j is exactly 0: CP, P, T, S, Z, CZ, the control of CX): it
holds that qubit's current wire once, and its tensor keeps the (out_j,
in_j) diagonal as one axis.  So a wire is held by its producer, any number
of passing gates and its consumer, and ``contract_all`` multiplies it
pointwise until its last holder sums it.  An unguarded measurement of q
into c renames q's current wire to c in every entry that holds it, and c
is q's wire until a step opens a fresh segment; a guarded one keeps its
guarded tensor.  An open index keeps its name: a measurement of an open
input wire, or of an outcome, joins it to c through an identity, the
rank-2 COPY.  The finish renames each qubit's last wire onto its principal
or discard leg the same way (a discarded qubit whose last wire is an
outcome needs none).  The resolve then gives every entry the new names of
its wires; an entry left holding a name twice keeps the diagonal of those
axes (``measure q -> c; ifc c apply X q`` is one rank-2 reset).  Last, each
rank-1 entry (a state, a 1-qubit diagonal on a wire, a guarded phase
sliced down to its bit) multiplies into another entry that holds its
index, and the index is summed out there when it is not open and no third
entry holds it.  Classical controls attach to outcome indices pointwise,
so one bit may drive several gates.

Classical logic is compiled only as guarded steps: ``lower_controls`` turns
every dispatch into a measurement followed by flat steps under guards, so
no branch reaches the builder.  Every guarded tensor comes from one
builder, ``_guard``.  A gate under a guard f is ind(f)*U + ind(!f)*I; a
measurement under f is ind(f)*COPY3(c, x, y) + ind(!f)*delta(x, y)*delta(c, 0),
so an untaken measurement leaves its qubit alone and its bit at 0.  A guard
on one bit with a tensor of at most ``RECIPE_LEGS`` legs in all is one
dense tensor; any other enters through one lift, ``_guarded``: the 0/1
indicator [f(x) = 1] of its BDD over its outcome indices.  Such a payload
names its own legs, so a guard bit that is also an axis (the wire of a
qubit measured into it) is held once and multiplied pointwise.

Every contraction, of a whole netlist or of the part a discard leaves,
runs through one loop, ``contract_all``.  Before it, ``_fold`` multiplies
each run of neighbouring dense entries that share an index into one dense
product while it keeps at most ``RECIPE_LEGS`` legs, so a run of small
gates costs one diagram build and one contraction; a guarded lift, an entry
that shares no index with the run, or one that would make it too wide
closes the run.  The loop folds the factors into blocks of at most
``BLOCK_LEGS`` open legs, so the running circuit diagram is rebuilt, and
its peak counted, once per block, not once per gate.  An index is summed
out once no tensor left holds it, inside a product or in the loop.  Every
factor's tensor is built on its own, so the loop is never re-entered.

Index ranking is one sort key, (owner, key).  The owner is the owning
qubit's position; within it a qubit's wire segments come first, in segment
order, then its output bits, internal outcomes (by measurement order),
discard leg and principal output, so each qubit's input wire sits next to
its own output leg.  That is the "interleaved" order, the per-qubit layout
of conventional-circuit TDDs, and it reproduces their node counts.  The
"grouped" order, used for checking, lifts every outcome-kind index (output
bits, internal outcomes by (measuring qubit, measurement order), then
discards) above all qubits, where the deciders need them.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .circuits import (CircuitSpec, CondGate, CondMeasure, Conventional,
                       INIT_STATES, Measure, lower_controls, steps_of)
from .logic import BoolFunc, func_to_tensor
from .tdd import (DENSE_CACHE, KIND_OUTCOME, KIND_PRINCIPAL, KIND_WIRE, NORM_TOL,
                  RECIPE_LEGS, IndexId, Tdd, TddManager)


class CompileError(Exception):
    pass


class CompileScaleError(CompileError):
    pass


BLOCK_LEGS = 8    # most open legs a block keeps before it joins the running diagram

COPY3 = np.zeros((2, 2, 2))
COPY3[0, 0, 0] = COPY3[1, 1, 1] = 1.0
COPY3.setflags(write=False)
UNTAKEN = np.stack([np.eye(2), np.zeros((2, 2))])   # delta(c, 0)*delta(x, y) over (c, x, y)
UNTAKEN.setflags(write=False)


@lru_cache(maxsize=DENSE_CACHE)
def _diagonal_data(data: bytes, k: int):
    """Qubit j of a k-qubit matrix passes through when every entry with
    out_j != in_j is exactly 0.  Both tensors keep one axis for the
    (out_j, in_j) diagonal of a passing qubit: the k out axes, then the in
    axes of the other qubits, as ``_Builder._step`` names the legs."""
    u = np.frombuffer(data, dtype=complex).reshape((2,) * (2 * k))
    mask = tuple(not np.moveaxis(u, (j, k + j), (0, 1))[[0, 1], [1, 0]].any()
                 for j in range(k))
    ins = [j if p else k + j for j, p in enumerate(mask)]
    axes = [*range(k), *ins], [*range(k), *(i for i in ins if i >= k)]
    tensors = [np.einsum(m, *axes) for m in (u, np.eye(1 << k).reshape(u.shape))]
    for t in tensors:
        t.setflags(write=False)
    return (mask, *tensors)


@lru_cache(maxsize=DENSE_CACHE)
def _sliced(data: bytes, k: int, pattern: tuple) -> bytes | None:
    """A k-qubit matrix with qubit j held at |b> wherever ``pattern[j]`` is
    a basis value b (the matrix passes through it): the matrix left on the
    qubits whose pattern is None, as bytes; None when that is the identity."""
    at = tuple(slice(None) if b is None else b for b in pattern)
    d = 1 << pattern.count(None)
    m = np.frombuffer(data, dtype=complex).reshape((2,) * (2 * k))[at + at].reshape(d, d)
    return None if np.array_equal(m, np.eye(d)) else m.tobytes()


def _basis(v) -> int | None:
    """b when the state ``v`` is a multiple of |b>; None for any other state or none."""
    return None if v is None or (v[0] and v[1]) else int(v[0] == 0)


def _guard(f: BoolFunc, legs, on: np.ndarray, off: np.ndarray):
    """Payload of ind(f)*on + ind(!f)*off over ``legs`` (f's bits, then the
    axes of ``on`` and ``off``): one dense tensor for one guard bit and at
    most ``RECIPE_LEGS`` legs, else (f, legs, on, off) for ``_guarded``."""
    if f.arity == 1 and len(legs) <= RECIPE_LEGS:
        return np.stack([on if f((v,)) else off for v in (0, 1)])
    return f, legs, on, off


# -- netlist ------------------------------------------------------------------


@dataclass(eq=False)
class _Entry:
    kind: str            # init | gate | cond | cmeasure | ident | fused
    indices: tuple[str, ...]
    partition: str           # the qubit the discard pass groups the entry under
    payload: object = None   # the dense tensor over ``indices``, or (f, legs, on, off) of ``_guard``


@dataclass
class _IndexDecl:
    name: str
    kind: str
    qpos: int            # owning qubit position
    key: tuple           # rank within the owner; see ``_order_indices``


@dataclass
class _Netlist:
    spec: CircuitSpec = None
    mode: str = "m"
    entries: list[_Entry] = field(default_factory=list)
    decls: dict[str, _IndexDecl] = field(default_factory=dict)
    open_names: set[str] = field(default_factory=set)
    m_set: list[str] = field(default_factory=list)
    peel_set: set[str] = field(default_factory=set)
    in_names: list[str] = field(default_factory=list)
    qubit_pos: dict[str, int] = field(default_factory=dict)


def _diagonal(t: np.ndarray, names: tuple) -> tuple[tuple, np.ndarray]:
    """``t`` over ``names`` with each repeated name's axes cut to their
    diagonal: the distinct names, in first-seen order, and that tensor."""
    uniq = tuple(dict.fromkeys(names))
    if len(uniq) == len(names):
        return names, t
    return uniq, np.einsum(t, [uniq.index(n) for n in names], list(range(len(uniq))))


def _product(a: np.ndarray, anames: tuple, b: np.ndarray, bnames: tuple,
             summed) -> tuple[tuple, np.ndarray]:
    """Dense ``a`` over ``anames`` times ``b`` over ``bnames``, matched
    pointwise on the names both hold and summed over ``summed``: the names
    left, in first-seen order, and their tensor."""
    every = anames + tuple([n for n in bnames if n not in anames])
    names = tuple([n for n in every if n not in summed])
    ax = every.index
    return names, np.einsum(a, [*map(ax, anames)], b, [*map(ax, bnames)], [*map(ax, names)])


class _Builder:
    """Emit the netlist of a lowered circuit in the four steps the module
    docstring describes: the walk (``_emit``, ``_gate``, ``_carry``, with
    ``_relabel`` for every rename), the finish, the resolve and the merge.
    """

    def __init__(self, spec: CircuitSpec, mode: str, open_inputs: bool):
        self.spec = spec
        self.mode = mode
        self.open_inputs = open_inputs
        self.net = _Netlist(spec=spec, mode=mode)
        self.net.qubit_pos = {q: k for k, q in enumerate(spec.qubits)}
        self.seg: dict[str, int] = {}
        self.cur: dict[str, str] = {}         # qubit -> its current wire
        self.alias: dict[str, str] = {}       # renamed wire -> its new name
        self.bit_outcome: dict[str, str] = {}
        self.bit_source: dict[str, str] = {}
        self.meas_seq: dict[str, int] = {}    # bit -> measurement counter
        self.state: dict[str, np.ndarray] = {}  # carried qubit -> its 2-vector
        for q in spec.qubits:
            self._segment(q, 0)

    # index declarations

    def _decl(self, name, kind, q, key):
        if name not in self.net.decls:
            self.net.decls[name] = _IndexDecl(name, kind, self.net.qubit_pos[q], key)
        return name

    def _segment(self, q: str, k: int):
        """Make segment ``k`` the current wire of ``q``."""
        self.seg[q] = k
        self.cur[q] = self._decl(f"w:{q}.{k}", KIND_WIRE, q, (0, k))

    def outcome_index(self, bit: str, q: str) -> str:
        if bit in self.spec.output_bits:
            pos = self.spec.output_bits.index(bit)
            return self._decl(f"outbit:{pos}", KIND_OUTCOME, q, (1, pos))
        # ranked by who measured it and when, never by the bit's name
        return self._decl(f"bit:{bit}", KIND_OUTCOME, q,
                          (2, 0, self.net.qubit_pos[q], self.meas_seq[bit]))

    def discard_index(self, q: str) -> str:
        # a discarded qubit's leg is peeled like an outcome, so it has its kind
        name = self._decl(f"disc:{q}", KIND_OUTCOME, q, (2, 1, q))
        self.net.peel_set.add(name)
        return name

    def principal_out(self, q: str) -> str:
        return self._decl(f"out:{q}", KIND_PRINCIPAL, q,
                          (3, self.spec.outputs.index(q)))

    def build(self) -> _Netlist:
        spec, net = self.spec, self.net
        for q in spec.qubits:
            if q in spec.inputs or self.open_inputs:
                net.in_names.append(self.cur[q])
                net.open_names.add(self.cur[q])
            else:
                self.state[q] = INIT_STATES[spec.fixed_init.get(q, "0")]
        for st in steps_of(lower_controls(spec.circuit)):
            self._emit(st)
        for q in spec.qubits:
            self._drop(q)
            self._finish(q)
        self._resolve()
        self._merge()
        used = {n for e in net.entries for n in e.indices} | net.open_names
        net.decls = {n: d for n, d in net.decls.items() if n in used}
        net.m_set = [f"outbit:{k}" for k in range(len(spec.output_bits))]
        return net

    # walk

    def _step(self, qubits, passing) -> tuple[str, ...]:
        """Legs of a step on ``qubits``: their out wires, then the in wires
        of the qubits that do not pass through.  Each of those gets a fresh
        segment; a passing qubit keeps its wire, held once."""
        ins = tuple(self.cur[q] for q, p in zip(qubits, passing) if not p)
        for q, p in zip(qubits, passing):
            if not p:
                self._segment(q, self.seg[q] + 1)
        return tuple(self.cur[q] for q in qubits) + ins

    def _owner(self, qubits) -> str:
        return min(qubits, key=lambda q: self.net.qubit_pos[q])

    def _emit(self, st):
        if isinstance(st, Conventional):
            for g in st.gates:
                self._gate(g.qubits, g.data)
        elif isinstance(st, CondGate):
            self._gate(st.gate.qubits, st.gate.data, st)
        elif isinstance(st, (Measure, CondMeasure)):
            guard = () if isinstance(st, Measure) else st.bits
            bits = tuple(self.bit_outcome[b] for b in guard)
            for q, bit in zip(st.step.qubits, st.step.bits):
                self.meas_seq.setdefault(bit, len(self.meas_seq))
                c = self.bit_outcome[bit] = self.outcome_index(bit, q)
                self.bit_source[bit] = q
                self.net.open_names.add(c)
                if self.mode == "q":
                    self.net.peel_set.add(c)
                self._drop(q)
                if not guard:
                    self._relabel(q, c)
                    continue
                # untaken, a guarded measurement must keep its wire
                y, x = self._step((q,), (False,))
                legs = bits + (c, x, y)
                self.net.entries.append(_Entry("cmeasure", legs, self._owner(
                    (q,) + tuple(self.bit_source[b] for b in guard)),
                    _guard(st.func, legs, COPY3, UNTAKEN)))
        else:
            raise TypeError(st)

    def _gate(self, qubits, data: bytes, cond: CondGate | None = None):
        """Emit the gate on ``qubits`` with matrix bytes ``data``, under
        ``cond``'s guard if given, folded first by ``_carry``.  A state it
        still reaches scales a passing qubit's held axis, else is summed
        into its in axis, and the qubit is carried no more."""
        taken = {}
        if self.state and any(q in self.state for q in qubits):
            folded = self._carry(qubits, data, cond)
            if folded is None:
                return
            qubits, data, taken = folded
        k = len(qubits)
        mask, on, off = _diagonal_data(data, k)
        legs = self._step(qubits, mask)
        for j in sorted(taken, reverse=True):   # later in axes first: earlier ones stay put
            v = taken[j]
            if mask[j]:
                on, off = (t * v.reshape((2,) + (1,) * (t.ndim - j - 1)) for t in (on, off))
            else:
                ax = k + mask[:j].count(False)
                on, off = (np.tensordot(t, v, ([ax], [0])) for t in (on, off))
                legs = legs[:ax] + legs[ax + 1:]
        if cond is None:
            self.net.entries.append(_Entry("gate", legs, self._owner(qubits), on))
            return
        legs = tuple(self.bit_outcome[b] for b in cond.bits) + legs
        part = self._owner(qubits + tuple(self.bit_source[b] for b in cond.bits))
        self.net.entries.append(_Entry("cond", legs, part, _guard(cond.func, legs, on, off)))

    def _carry(self, qubits, data: bytes, cond):
        """Fold a gate into the carried states as far as it can: slice it at
        b on each carried qubit in a basis state |b> that it passes through,
        put a phase an all-basis slice leaves into the first such state, and
        apply an unguarded remainder on one carried qubit to its state.
        None when nothing is left to emit, else the remainder's qubits and
        matrix bytes, and the states it takes in, by position."""
        state, k = self.state, len(qubits)
        mask = _diagonal_data(data, k)[0]
        pattern = tuple(_basis(state.get(q)) if p else None for q, p in zip(qubits, mask))
        if pattern.count(None) < k:
            data = _sliced(data, k, pattern)
            if data is None:
                return None
            if None not in pattern and cond is None:     # a phase is left
                state[qubits[0]] = state[qubits[0]] * np.frombuffer(data, dtype=complex)[0]
                return None
            qubits = tuple(q for q, b in zip(qubits, pattern) if b is None)
        if cond is None and len(qubits) == 1 and qubits[0] in state:
            q, = qubits
            state[q] = np.frombuffer(data, dtype=complex).reshape(2, 2) @ state[q]
            return None
        return qubits, data, {j: state.pop(q) for j, q in enumerate(qubits) if q in state}

    def _drop(self, q: str):
        """Emit the state ``q`` carries, if any, as a rank-1 entry on its wire."""
        v = self.state.pop(q, None)
        if v is not None:
            self.net.entries.append(_Entry("init", (self.cur[q],), q, v))

    def _relabel(self, q: str, name: str):
        """Make ``name`` the wire of ``q``: rename its current wire to it,
        or, when that wire is open and so keeps its name, join the two
        through an identity."""
        x = self.cur[q]
        if x in self.net.open_names:
            self.net.entries.append(_Entry("ident", (x, name), q, np.eye(2)))
        else:
            self.alias[x] = name
        self.cur[q] = name

    # finish

    def _finish(self, q: str):
        y = self.cur[q]
        principal = q in self.spec.outputs
        if principal and self.mode == "q":
            end = self.principal_out(q)
        elif self.net.decls[y].kind == KIND_OUTCOME:
            return                      # the outcome holds the qubit's last value
        elif self.mode == "q":
            end = self.discard_index(q)
        elif principal and not self.spec.output_bits:
            end = self.principal_out(q)
        else:
            self.net.open_names.add(y)
            return
        self.net.open_names.add(end)
        self._relabel(q, end)

    # resolve and merge

    def _resolve(self):
        """Give every entry the new names of its wires, and the diagonal
        of the axes of a name it holds twice."""
        alias = self.alias
        for e in self.net.entries:
            if isinstance(e.payload, tuple):
                f, legs, on, off = e.payload
                bits, axes = legs[:f.arity], tuple(alias.get(n, n) for n in legs[f.arity:])
                if len(set(axes)) < len(axes):
                    (axes, on), (_, off) = _diagonal(on, axes), _diagonal(off, axes)
                e.payload = (f, bits + axes, on, off)
                e.indices = tuple(dict.fromkeys(bits + axes))
            else:
                e.indices, e.payload = _diagonal(
                    e.payload, tuple(alias.get(n, n) for n in e.indices))

    def _merge(self):
        """Multiply each rank-1 entry into a dense entry that holds its
        index, the first of rank 2 or more, else the first of rank 1; the
        index is summed out there when it is not open and no other entry
        holds it."""
        entries, open_names = self.net.entries, self.net.open_names
        holders: dict[str, list[_Entry]] = {}
        for e in entries:
            for n in e.indices:
                holders.setdefault(n, []).append(e)
        merged = set()
        todo = [e for e in entries if len(e.indices) == 1]    # popped last first
        while todo:
            e = todo.pop()
            if len(e.indices) != 1:       # summed down to a scalar as a host
                continue
            n, = e.indices
            hs = holders[n]
            dense = [h for h in hs if h is not e and isinstance(h.payload, np.ndarray)]
            if not dense:
                continue
            host = next((h for h in dense if len(h.indices) > 1), dense[0])
            hs.remove(e)
            merged.add(e)
            summed = (n,) if len(hs) == 1 and n not in open_names else ()
            host.indices, host.payload = _product(host.payload, host.indices,
                                                  e.payload, e.indices, summed)
            if summed and len(host.indices) == 1:
                todo.append(host)
        self.net.entries = [e for e in entries if e not in merged]


# -- index ordering -------------------------------------------------------------


def _order_indices(decls: dict[str, _IndexDecl], policy: str) -> list[tuple[str, str]]:
    """Root-first (name, kind) list for the manager, sorted by (owner, key).

    The owner is the owning qubit's position; the grouped policy lifts every
    outcome-kind index (outcomes and discards) above all qubits, owner -1.
    """
    if policy not in ("grouped", "interleaved"):
        raise CompileError(f"unknown order policy {policy!r}")
    lift = policy == "grouped"
    items = sorted(decls.values(), key=lambda d: (
        -1 if lift and d.kind == KIND_OUTCOME else d.qpos, d.key))
    return [(d.name, d.kind) for d in items]


# -- evaluation --------------------------------------------------------------------


@dataclass
class CompileStats:
    final_nodes: int = 0  # nodes of the latest contract_all result
    max_nodes: int = 0    # largest running diagram, counted after each block
    tdd_time: float = 0.0
    wide: bool = False    # outcome indices took a diagram past max_open


@dataclass
class CompileResult:
    tdd: Tdd
    mgr: TddManager
    m_set: tuple[IndexId, ...]
    peel_set: frozenset[IndexId]
    stats: CompileStats
    net: _Netlist


def _infer_mode(spec: CircuitSpec) -> str:
    return "m" if spec.output_bits else "q"


def prepare(specs: Sequence[CircuitSpec], *, mode: str | None = None,
            order: str = "grouped", open_inputs: bool = False):
    """Build netlists for all specs and one shared manager; ``mode`` None
    takes each spec's own mode, and one not "m" or "q" raises ValueError."""
    if mode not in (None, "m", "q"):
        raise ValueError(f"unknown mode {mode!r}")
    nets = [
        _Builder(spec, mode or _infer_mode(spec), open_inputs).build()
        for spec in specs
    ]
    decls: dict[str, _IndexDecl] = {}
    for net in nets:
        for name, d in net.decls.items():
            old = decls.get(name)
            if old is not None and old.kind != d.kind:
                raise CompileError(f"index {name} declared inconsistently")
            decls.setdefault(name, d)
    mgr = TddManager(_order_indices(decls, order))
    return mgr, nets


def _count_uses(entries) -> Counter:
    return Counter(n for e in entries for n in e.indices)


def _entry_tensor(mgr: TddManager, e: _Entry) -> Tdd:
    if isinstance(e.payload, tuple):
        f, legs, on, off = e.payload
        return _guarded(mgr, f, [mgr.index(n) for n in legs], on, off)
    return mgr.from_dense(e.payload, [mgr.index(n) for n in e.indices])


def _guarded(mgr: TddManager, f: BoolFunc, legs, on: np.ndarray, off: np.ndarray) -> Tdd:
    """ind(f)*on + ind(!f)*off through the indicator of f's BDD: ``legs``
    are f's bits, then the axes of the dense tensors ``on`` and ``off``; a
    bit that is also an axis is matched pointwise."""
    cin, axes = legs[:f.arity], legs[f.arity:]
    fired = mgr.contract(func_to_tensor(mgr, f, cin), mgr.from_dense(on, axes), set())
    idle = mgr.contract(func_to_tensor(mgr, ~f, cin), mgr.from_dense(off, axes), set())
    return mgr.add(fired, idle)


def _dead(a: Tdd, b: Tdd, uses: Counter, open_names, held=()) -> set[IndexId]:
    return {i for i in set(a.indices).intersection(b.indices)
            if uses[i.name] == 0 and i.name not in open_names and i not in held}


def contract_all(mgr: TddManager, factors, uses: Counter, open_names,
                 stats: CompileStats, max_open: int) -> Tdd:
    """Contract ``(tensor, names)`` factors left to right, in blocks.

    This is the one contraction loop of the compiler.  ``uses`` holds the
    remaining-use count of every index name; each factor decrements the
    ``names`` it accounts for.  Factors join a pending block while it keeps
    at most ``BLOCK_LEGS`` open legs; then the block is flushed into the
    running diagram (the first block becomes it).  A shared index is summed
    out at count zero unless open or held by a third tensor: the running
    diagram in a block, the next block's first factor at a flush.  Each
    flush bounds the open rank by ``max_open`` (outcome-kind indices do not
    count; past it they set ``wide``) and counts the running diagram into
    ``stats``: ``final_nodes`` is the result's count (1 for the scalar of an
    empty list), ``max_nodes`` the peak.
    """
    def flush(out, block, held=()) -> Tdd:
        if out is not None:
            block = mgr.contract(out, block, _dead(out, block, uses, open_names, held))
        if len(block.indices) > max_open:
            rank = sum(i.kind != KIND_OUTCOME for i in block.indices)
            if rank > max_open:
                raise CompileScaleError(f"open rank {rank} exceeds the limit {max_open}")
            stats.wide = True
        stats.final_nodes = mgr.node_count(block)
        stats.max_nodes = max(stats.max_nodes, stats.final_nodes)
        return block

    out = block = None
    for g, names in factors:
        for n in names:
            uses[n] -= 1
        if block is not None:
            dead = _dead(block, g, uses, open_names, () if out is None else out.indices)
            if len(set(block.indices + g.indices)) - len(dead) <= BLOCK_LEGS:
                block = mgr.contract(block, g, dead)
                continue
            out = flush(out, block, g.indices)
        block = g
    if block is None:
        stats.final_nodes = 1
        return mgr.scalar(1.0)
    return flush(out, block)


def _fold(mgr: TddManager, entries, net: _Netlist, stats, max_open, uses) -> Tdd:
    """Contract ``entries`` by ``contract_all``, each run of neighbouring
    dense entries that share an index first multiplied into one dense
    product while it keeps at most ``RECIPE_LEGS`` legs.  Inside a product
    an index no entry outside it holds, and not open, is summed, and any
    other shared index is matched pointwise, as ``_dead`` rules; a
    product's names list every member's indices, so the use counts stay
    exact."""
    runs: list[list] = []    # [entry or product, its names, their counts]
    for e in entries:
        if runs and isinstance(e.payload, np.ndarray) \
                and isinstance(runs[-1][0].payload, np.ndarray):
            p, names, held = runs[-1]
            shared = set(p.indices).intersection(e.indices)
            summed = {n for n in shared
                      if n not in net.open_names and held[n] + 1 == uses[n]}
            if shared and len(set(p.indices + e.indices)) - len(summed) <= RECIPE_LEGS:
                legs, t = _product(p.payload, p.indices, e.payload, e.indices, summed)
                runs[-1][0] = _Entry("fused", legs, p.partition, t)
                names += e.indices
                held.update(e.indices)
                continue
        runs.append([e, list(e.indices), Counter(e.indices)])
    factors = ((_entry_tensor(mgr, p), names) for p, names, _ in runs)
    return contract_all(mgr, factors, uses, net.open_names, stats, max_open)


def evaluate(mgr: TddManager, net: _Netlist, skip=frozenset(),
             max_open: int = 26) -> CompileResult:
    """Contract a netlist's entries in circuit order into one diagram.

    Entries whose partition is in ``skip`` are left out; the caller skips
    only whole components that share no index with the rest.
    """
    stats = CompileStats()
    t0 = time.perf_counter()
    entries = [e for e in net.entries if e.partition not in skip]
    t = _fold(mgr, entries, net, stats, max_open, _count_uses(entries))
    if stats.wide:
        # a circuit is an isometry, of squared norm 2^k over its k open
        # inputs; after n fair outcomes amplitudes are about 2^(-n/2), and
        # from n of about 60 they round to zero on the grid
        want = 2.0 ** sum(i.name in net.in_names for i in t.indices)
        got = mgr.norm_edge(t.root, t.indices)
        if not abs(got - want) <= NORM_TOL * want:
            raise CompileScaleError(f"norm drift: squared norm {got:.6g}, not {want:g}")
    stats.tdd_time = time.perf_counter() - t0
    stats.max_nodes = max(stats.max_nodes, stats.final_nodes)
    return CompileResult(
        tdd=t, mgr=mgr,
        m_set=tuple(mgr.index(n) for n in net.m_set),
        peel_set=frozenset(mgr.index(n) for n in net.peel_set),
        stats=stats, net=net)


def compile_spec(spec: CircuitSpec, *, mode: str | None = None,
                 order: str = "grouped", open_inputs: bool = False,
                 max_open: int = 26) -> CompileResult:
    mgr, nets = prepare([spec], mode=mode, order=order, open_inputs=open_inputs)
    return evaluate(mgr, nets[0], max_open=max_open)
