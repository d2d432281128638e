"""Compile a circuit spec into a tensor decision diagram.

Every gate, fixed input state, measurement and classically controlled gate
becomes a small tensor over wire-segment indices; the diagram of the circuit
is the contraction of all of them.  Measurements follow the COPY-tensor
encoding: a measurement whose qubit continues is a rank-3 COPY with a
separate outcome leg.  A measurement that ends its qubit is the rank-2 COPY,
the identity, so it costs no tensor: the qubit's previous gate or ``init``
names its output leg after the classical outcome index.  The rank-2 COPY
stays an entry only where that leg cannot be renamed, on an open input wire
or when the outcome index is already a leg of the same tensor.  Classical
controls attach to outcome indices pointwise, so one bit may drive several
gates.

Classical logic is compiled only as classically controlled gates:
``lower_controls`` turns every dispatch into a measurement followed by
gates under controls, and keeps a branch only when a body measures, which
has no tensor here.  A control enters through one lift, ``func_to_tensor``:
the 0/1 indicator [f(x) = 1] of its BDD over its outcome indices.  A gate
under a control f is ind(f)*U + ind(!f)*I; a control on one bit keeps its
rank-3 controlled-gate tensor.  No control tensor is built densely.

Every contraction, of a whole netlist, of a per-qubit partition or of
partition diagrams, runs through one loop, ``contract_all``: it folds runs
of entries into blocks of at most ``BLOCK_LEGS`` open legs, so the running
circuit diagram is rebuilt, and its peak counted, once per block, not once
per gate.  An index is summed out once no tensor left holds it.  Every
entry's tensor is built on its own, so the loop is never re-entered.

Index ranking ("grouped", the default used for checking): classical outcome
indices of output bits on top, then internal outcomes by (measuring qubit,
measurement order), then discarded-qubit legs, then principal output legs,
then wire segments by (qubit, segment).
The alternative "interleaved" ranking keeps each qubit's wires and outcome
adjacent; it reproduces the construction node counts reported for
conventional-circuit checking and is used for statistics.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuits import (Branch, CircuitSpec, CondGate, Conventional, INIT_STATES,
                       Measure, flatten, lower_controls)
from .logic import func_to_tensor
from .tdd import (KIND_OUTCOME, KIND_PRINCIPAL, KIND_WIRE, NORM_TOL, IndexId,
                  Tdd, TddManager)


class CompileError(Exception):
    pass


class CompileScaleError(CompileError):
    pass


BLOCK_LEGS = 8    # most open legs a block keeps before it joins the running diagram

COPY3 = np.zeros((2, 2, 2))
COPY3[0, 0, 0] = COPY3[1, 1, 1] = 1.0
COPY3.setflags(write=False)


def measurement_tensor(mgr: TddManager, x: IndexId, y: IndexId,
                       c: IndexId | None = None) -> Tdd:
    """Measurement as a COPY tensor.

    With a control leg ``c`` this is the rank-3 COPY whose c-slices are the
    projectors |0><0| and |1><1|; without one it degenerates to the rank-2
    identity (the measurement only relabels the wire).
    """
    if c is None:
        return mgr.from_dense(np.eye(2), [x, y])
    return mgr.from_dense(COPY3, [c, x, y])


def controlled_gate_tensor(mgr: TddManager, u: np.ndarray, c: IndexId,
                           x: IndexId, y: IndexId, fire: int = 1) -> Tdd:
    """Classically controlled single-qubit gate: U at c=fire, else identity."""
    u = np.asarray(u, dtype=complex)
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[1 - fire] = np.eye(2)
    arr[fire] = u.T  # entry at (c=fire, x, y) is U[y, x]
    return mgr.from_dense(arr, [c, x, y])


# -- netlist ------------------------------------------------------------------


@dataclass
class _Entry:
    kind: str            # init | gate | cond | measure3 | ident, or measure2
                         # for an end leg that cannot take the outcome's name
    indices: tuple[str, ...]
    payload: object = None
    partition: str = ""


@dataclass
class _IndexDecl:
    name: str
    kind: str
    zone: int            # 1 output bits, 2 internal outcomes/discards, 3 principal, 4 wires
    sort_key: tuple
    qpos: int | None = None      # owning qubit position, for interleaved ranking
    seg: tuple = ()              # wire segment key, for interleaved ranking


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
    out_names: list[str] = field(default_factory=list)
    qubit_pos: dict[str, int] = field(default_factory=dict)


def _wire_name(q: str, key: tuple) -> str:
    return f"w:{q}." + ".".join(str(k) for k in key)


class _Builder:
    """Pass 1: walk the lowered circuit and emit netlist entries."""

    def __init__(self, spec: CircuitSpec, mode: str, open_inputs: bool):
        self.spec = spec
        self.mode = mode
        self.open_inputs = open_inputs
        self.net = _Netlist(spec=spec, mode=mode)
        self.net.qubit_pos = {q: k for k, q in enumerate(spec.qubits)}
        self.seg: dict[str, tuple] = {q: (0,) for q in spec.qubits}
        self.touches_left: dict[str, int] = {q: 0 for q in spec.qubits}
        self.bit_outcome: dict[str, str] = {}
        self.bit_source: dict[str, str] = {}
        self.ended: dict[str, str] = {}
        self.meas_seq: dict[str, int] = {}    # bit -> measurement counter
        self.final_bit: dict[str, str] = {}   # qubit -> bit of the measurement ending it

    # index declarations

    def _decl(self, name, kind, zone, sort_key, qpos=None, seg=()):
        if name not in self.net.decls:
            self.net.decls[name] = _IndexDecl(name, kind, zone, sort_key, qpos, seg)
        return name

    def wire(self, q: str, key: tuple) -> str:
        qpos = self.net.qubit_pos[q]
        return self._decl(_wire_name(q, key), KIND_WIRE, 4, (qpos, key),
                          qpos=qpos, seg=key)

    def outcome_index(self, bit: str, q: str) -> str:
        qpos = self.net.qubit_pos[q]
        if bit in self.spec.output_bits:
            pos = self.spec.output_bits.index(bit)
            return self._decl(f"outbit:{pos}", KIND_OUTCOME, 1, (pos,), qpos=qpos)
        # ranked by who measured it and when, never by the bit's name
        return self._decl(f"bit:{bit}", KIND_OUTCOME, 2,
                          (0, qpos, self.meas_seq[bit]), qpos=qpos)

    def discard_index(self, q: str) -> str:
        # a discarded qubit's leg is peeled like an outcome, so it lives in
        # the classical zone
        name = self._decl(f"disc:{q}", KIND_OUTCOME, 2, (1, q),
                          qpos=self.net.qubit_pos[q])
        self.net.peel_set.add(name)
        return name

    def principal_out(self, q: str) -> str:
        return self._decl(f"out:{q}", KIND_PRINCIPAL, 3,
                          (self.spec.outputs.index(q),),
                          qpos=self.net.qubit_pos[q])

    # walking

    def build(self) -> _Netlist:
        steps = flatten(lower_controls(self.spec.circuit))
        last = {}
        for st in steps:
            for q in self._touched(st):
                self.touches_left[q] += 1
                last[q] = st
            if isinstance(st, Measure):
                for b in st.step.bits:
                    self.meas_seq.setdefault(b, len(self.meas_seq))
        for q, st in last.items():
            if isinstance(st, Measure) and not self._keeps_leg(q):
                self.final_bit[q] = st.step.bits[st.step.qubits.index(q)]
        for q in self.spec.qubits:
            if q in self.spec.inputs or self.open_inputs:
                self.net.open_names.add(self.wire(q, (0,)))
            else:
                state = self.spec.fixed_init.get(q, "0")
                if not self.touches_left[q]:
                    idx = self._final_leg(q, fresh=False)
                elif self.touches_left[q] == 1 and q in self.final_bit:
                    # measured and nothing else: the init is on the outcome
                    idx = self.ended[q] = self.outcome_index(self.final_bit[q], q)
                else:
                    idx = self.wire(q, (0,))
                self.net.entries.append(_Entry("init", (idx,), (q, state),
                                               partition=q))
        for st in steps:
            self._emit(st)
        self._finish_qubits()
        self.net.in_names = [_wire_name(q, (0,)) for q in self.spec.qubits
                             if q in self.spec.inputs or self.open_inputs]
        self.net.out_names = [f"out:{q}" for q in self.spec.outputs
                              if f"out:{q}" in self.net.decls]
        self.net.m_set = [f"outbit:{k}" for k in range(len(self.spec.output_bits))]
        return self.net

    def _touched(self, st) -> tuple[str, ...]:
        if isinstance(st, Conventional):
            return tuple(q for g in st.gates for q in g.qubits)
        if isinstance(st, Measure):
            return st.step.qubits
        if isinstance(st, CondGate):
            return st.gate.qubits
        if isinstance(st, Branch):
            # lower_controls keeps a branch only when a body measures; the
            # COPY/controlled-gate tensor repertoire has nothing for that
            raise CompileError("measurements nested inside branch bodies "
                               "have no tensor encoding; flatten the circuit")
        raise TypeError(st)

    def _keeps_leg(self, q: str) -> bool:
        """Whether a final measurement of ``q`` keeps a principal leg."""
        return q in self.spec.outputs and self.mode == "q"

    def _final_leg(self, q: str, fresh: bool = True) -> str:
        """Name of the qubit's terminal leg and its open/peel registration.

        ``fresh`` allocates the next wire segment (the output leg of the
        qubit's last gate); inits on untouched qubits land on segment 0.
        Not called for qubits ending in a merged measurement.
        """
        if q in self.spec.outputs and (self.mode == "q" or not self.spec.output_bits):
            name = self.principal_out(q)
        elif self.mode == "q":
            name = self.discard_index(q)
        else:
            name = self.wire(q, self._next_key(q) if fresh else self.seg[q])
        self.net.open_names.add(name)
        self.ended[q] = name
        return name

    def _next_key(self, q: str) -> tuple:
        key = self.seg[q][:-1] + (self.seg[q][-1] + 1,)
        self.seg[q] = key
        return key

    def _advance(self, q: str, legs) -> tuple[str, str]:
        """Consume the current segment of ``q``; return (in, out) names.

        Before a measurement that ends ``q``, the output leg is named after
        its outcome index, so that measurement emits no tensor; not when
        the name is among ``legs``, those the tensor already has.
        """
        cur = self.wire(q, self.seg[q])
        self.touches_left[q] -= 1
        if self.touches_left[q] == 0:
            return cur, self._final_leg(q)
        if self.touches_left[q] == 1 and q in self.final_bit:
            c = self.outcome_index(self.final_bit[q], q)
            if c not in legs:
                self.ended[q] = c
                return cur, c
        return cur, self.wire(q, self._next_key(q))

    def _emit(self, st):
        if isinstance(st, (Conventional, CondGate)):
            self.net.entries += self._gate_entries(st)
        elif isinstance(st, Measure):
            for q, b in zip(st.step.qubits, st.step.bits):
                self._emit_measure(q, b)
        else:
            raise TypeError(st)

    def _gate_entries(self, st: Conventional | CondGate) -> list[_Entry]:
        """Entries of a gate segment or a classically controlled gate."""
        cond = isinstance(st, CondGate)
        bits = tuple(self.bit_outcome[b] for b in st.bits) if cond else ()
        sources = [self.bit_source[b] for b in st.bits] if cond else []
        entries = []
        for g in ((st.gate,) if cond else st.gates):
            ins, legs = [], list(bits)
            for q in g.qubits:
                cur, out = self._advance(q, legs)
                ins.append(cur)
                legs.append(out)
            ins, outs = tuple(ins), tuple(legs[len(bits):])
            part = self._owner(g.qubits, extra=sources)
            if cond:
                entries.append(_Entry("cond", bits + outs + ins,
                                      (st, bits, outs, ins), part))
            else:
                entries.append(_Entry("gate", outs + ins, (g, outs, ins), part))
        return entries

    def _owner(self, qubits, extra=()) -> str:
        cands = list(qubits) + list(extra)
        return min(cands, key=lambda q: self.net.qubit_pos[q])

    def _emit_measure(self, q: str, bit: str):
        c = self.outcome_index(bit, q)
        self.bit_outcome[bit] = c
        self.bit_source[bit] = q
        self.net.open_names.add(c)
        if bit not in self.spec.output_bits and self.mode == "q":
            self.net.peel_set.add(c)
        self.touches_left[q] -= 1
        if q in self.ended:
            return      # the qubit's last tensor already ends on c
        cur = self.wire(q, self.seg[q])
        continues = self.touches_left[q] > 0
        if continues or self._keeps_leg(q):
            if continues:
                y = self.wire(q, self._next_key(q))
            else:
                y = self.principal_out(q)
                self.net.open_names.add(y)
                self.ended[q] = y
            self.net.entries.append(_Entry("measure3", (c, cur, y), (c, cur, y),
                                           partition=q))
        else:
            # an open input wire, or c was taken: the rank-2 COPY renames
            self.net.entries.append(_Entry("measure2", (cur, c), (cur, c),
                                           partition=q))
            self.ended[q] = c

    def _finish_qubits(self):
        for q in self.spec.qubits:
            if self.touches_left[q] != 0:
                raise CompileError(f"internal: touches left on {q}")
            if q in self.ended:
                continue
            # untouched qubit, or an open-input qubit with no gates
            if q in self.spec.inputs or self.open_inputs:
                final = self.wire(q, self.seg[q])
                if q in self.spec.outputs and (self.mode == "q" or not self.spec.output_bits):
                    out = self.principal_out(q)
                    self.net.entries.append(_Entry("ident", (final, out),
                                                   (final, out), partition=q))
                    self.net.open_names.add(out)
                elif self.mode == "q" and q not in self.spec.outputs:
                    disc = self.discard_index(q)
                    self.net.entries.append(_Entry("ident", (final, disc),
                                                   (final, disc), partition=q))
                    self.net.open_names.add(disc)
                else:
                    self.net.open_names.add(final)
                self.ended[q] = q
            # untouched fixed-init qubits already had their init emitted
            # directly on the final leg by _final_leg


# -- index ordering -------------------------------------------------------------


def _order_indices(decls: dict[str, _IndexDecl], policy: str) -> list[tuple[str, str]]:
    """Root-first (name, kind) list for the manager."""
    items = list(decls.values())
    if policy == "grouped":
        items.sort(key=lambda d: (d.zone, d.sort_key))
    elif policy == "interleaved":
        # each qubit's wire segments followed by its outcome/principal legs;
        # indices with no owning qubit sink to the bottom
        def key(d):
            if d.qpos is None:
                return (10 ** 6, d.zone, 0, d.sort_key)
            if d.zone == 4:
                return (d.qpos, 0, 0, tuple(d.seg))
            return (d.qpos, 1, d.zone, d.sort_key)
        items.sort(key=key)
    else:
        raise CompileError(f"unknown order policy {policy!r}")
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
    inputs: tuple[IndexId, ...]
    outputs: tuple[IndexId, ...]
    stats: CompileStats
    net: _Netlist


def _infer_mode(spec: CircuitSpec) -> str:
    return "m" if spec.output_bits else "q"


def prepare(specs: Sequence[CircuitSpec], *, mode: str | None = None,
            order: str = "grouped", open_inputs: bool = False):
    """Build netlists for all specs and one shared manager."""
    nets = [
        _Builder(spec, mode or _infer_mode(spec), open_inputs).build()
        for spec in specs
    ]
    decls: dict[str, _IndexDecl] = {}
    for net in nets:
        for name, d in net.decls.items():
            old = decls.get(name)
            if old is not None and (old.kind, old.zone) != (d.kind, d.zone):
                raise CompileError(f"index {name} declared inconsistently")
            decls.setdefault(name, d)
    mgr = TddManager(_order_indices(decls, order))
    return mgr, nets


def _count_uses(entries) -> Counter:
    return Counter(n for e in entries for n in e.indices)


def _entry_tensor(mgr: TddManager, e: _Entry) -> Tdd:
    if e.kind == "init":
        _, state = e.payload
        return mgr.from_dense(INIT_STATES[state], [mgr.index(e.indices[0])])
    if e.kind == "gate":
        g, outs, ins = e.payload
        arr = g.matrix.reshape((2,) * (2 * len(g.qubits)))
        return mgr.from_dense(arr, [mgr.index(n) for n in outs + ins])
    if e.kind == "measure2":
        x, c = e.payload
        return measurement_tensor(mgr, mgr.index(x), mgr.index(c))
    if e.kind == "measure3":
        c, x, y = e.payload
        return measurement_tensor(mgr, mgr.index(x), mgr.index(y), mgr.index(c))
    if e.kind == "ident":
        a, b = e.payload
        return mgr.from_dense(np.eye(2), [mgr.index(a), mgr.index(b)])
    if e.kind == "cond":
        st, bits, outs, ins = e.payload
        return _cond_tensor(mgr, st, bits, outs, ins)
    raise CompileError(f"unknown entry kind {e.kind}")


def _cond_tensor(mgr: TddManager, st: CondGate, bits, outs, ins) -> Tdd:
    f, u, k = st.func, st.gate.matrix, len(st.gate.qubits)
    cin = [mgr.index(n) for n in bits]
    if k == 1 and f.arity == 1 and f((0,)) != f((1,)):
        # c or !c: the rank-3 controlled gate, its slices swapped for !c
        return controlled_gate_tensor(mgr, u, cin[0], mgr.index(ins[0]),
                                      mgr.index(outs[0]), fire=f((1,)))
    legs = [mgr.index(n) for n in outs + ins]
    shape = (2,) * (2 * k)
    fired = mgr.contract(func_to_tensor(mgr, f, cin),
                         mgr.from_dense(u.reshape(shape), legs), set())
    idle = mgr.contract(func_to_tensor(mgr, ~f, cin),
                        mgr.from_dense(np.eye(1 << k).reshape(shape), legs), set())
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
    factors = ((_entry_tensor(mgr, e), e.indices) for e in entries)
    return contract_all(mgr, factors, uses, net.open_names, stats, max_open)


def contract_pieces(mgr: TddManager, pieces: Sequence[Tdd], net: _Netlist,
                    stats: CompileStats, max_open: int = 26) -> Tdd:
    """Contract partition diagrams; each accounts for its open indices."""
    uses = Counter(i.name for p in pieces for i in p.indices)
    factors = ((p, [i.name for i in p.indices]) for p in pieces)
    return contract_all(mgr, factors, uses, net.open_names, stats, max_open)


def evaluate(mgr: TddManager, net: _Netlist, max_open: int = 26) -> CompileResult:
    """Contract a netlist's entries in circuit order into one diagram."""
    stats = CompileStats()
    t0 = time.perf_counter()
    t = _fold(mgr, net.entries, net, stats, max_open, _count_uses(net.entries))
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
        inputs=tuple(mgr.index(n) for n in net.in_names),
        outputs=tuple(mgr.index(n) for n in net.out_names),
        stats=stats, net=net)


def evaluate_pieces(mgr: TddManager, net: _Netlist, stats: CompileStats,
                    max_open: int = 26) -> dict[str, Tdd]:
    """Per-qubit partition diagrams; cross-partition cut indices stay open."""
    spec = net.spec
    order_pos = {q: k for k, q in enumerate(spec.qubits)}
    groups: dict[str, list[_Entry]] = {}
    for e in net.entries:
        groups.setdefault(e.partition or spec.qubits[0], []).append(e)
    uses = _count_uses(net.entries)
    pieces: dict[str, Tdd] = {}
    for q in sorted(groups, key=lambda q: order_pos.get(q, 10 ** 6)):
        pieces[q] = _fold(mgr, groups[q], net, stats, max_open, uses.copy())
    return pieces


def compile_spec(spec: CircuitSpec, *, mode: str | None = None,
                 order: str = "grouped", open_inputs: bool = False,
                 max_open: int = 26) -> CompileResult:
    mgr, nets = prepare([spec], mode=mode, order=order, open_inputs=open_inputs)
    return evaluate(mgr, nets[0], max_open)


def compile_pair(spec_a: CircuitSpec, spec_b: CircuitSpec, *,
                 mode: str | None = None):
    """Compile two specs in one manager with shared open indices."""
    mgr, nets = prepare([spec_a, spec_b], mode=mode)
    return evaluate(mgr, nets[0]), evaluate(mgr, nets[1])
