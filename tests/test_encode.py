import itertools
import random
from collections import Counter

import numpy as np
import pytest

from dense_ref import dense_contract
from tddeq import benchmarks as B
from tddeq.circuits import (CircuitSpec, Conventional, Measure, MeasureStep,
                            gate, seq, validate)
from tddeq.encode import (BLOCK_LEGS, COPY3, UNTAKEN, CompileScaleError,
                          CompileStats, _count_uses, _entry_tensor, _guarded,
                          compile_spec, contract_all, evaluate,
                          evaluate_pieces, measurement_tensor, prepare)
from tddeq.equivalence import check
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.tdd import KIND_OUTCOME, KIND_WIRE, TddManager
from tddeq.textfmt import parse


def compile_by_pieces(spec, **kw):
    """Per-qubit partition diagrams contracted by the one loop."""
    mgr, (net,) = prepare([spec], **kw)
    stats = CompileStats()
    pieces = evaluate_pieces(mgr, net, stats, spec.qubits)
    # each piece accounts for its own open indices
    factors = [(p, [i.name for i in p.indices]) for p in pieces.values()]
    uses = Counter(n for _, names in factors for n in names)
    t = contract_all(mgr, factors, uses, net.open_names, stats, 26)
    stats.final_nodes = mgr.node_count(t)
    stats.max_nodes = max(stats.max_nodes, stats.final_nodes)
    return mgr, t, stats, pieces


def small_mgr():
    return TddManager([("c", KIND_OUTCOME), ("x", KIND_WIRE), ("y", KIND_WIRE)])


def controlled_gate(m, u, c, x, y):
    """U on input x, output y when c = 1, else the identity."""
    return _guarded(m, BoolFunc.identity(1), [c, y, x], np.asarray(u), np.eye(2))


def test_measurement_tensor_rank2_identity():
    m = small_mgr()
    t = measurement_tensor(m, m.index("x"), m.index("y"))
    assert np.allclose(m.to_dense(t), np.eye(2))


def test_measurement_tensor_slices_are_projectors():
    m = small_mgr()
    t = measurement_tensor(m, m.index("x"), m.index("y"), m.index("c"))
    p0 = m.to_dense(m.slice(t, m.index("c"), 0))
    p1 = m.to_dense(m.slice(t, m.index("c"), 1))
    assert np.allclose(p0, np.diag([1.0, 0.0]))
    assert np.allclose(p1, np.diag([0.0, 1.0]))
    # completeness: the slices sum to the identity
    assert np.allclose(p0 + p1, np.eye(2))


def test_controlled_gate_tensor_slices():
    m = small_mgr()
    t = controlled_gate(m, gate("SDG", ["q"]).matrix,
                        m.index("c"), m.index("x"), m.index("y"))
    at0 = m.to_dense(m.slice(t, m.index("c"), 0))
    at1 = m.to_dense(m.slice(t, m.index("c"), 1))
    assert np.allclose(at0, np.eye(2))       # axes (x, y): identity
    assert np.allclose(at1.T, np.diag([1, -1j]))


def test_copy_control_fusion_gives_cnot():
    # contracting the measurement COPY with the controlled-X tensor over the
    # classical leg yields the dense CNOT
    m = TddManager([("c", KIND_OUTCOME), ("x", KIND_WIRE), ("y", KIND_WIRE),
                    ("u", KIND_WIRE), ("v", KIND_WIRE)])
    meas = measurement_tensor(m, m.index("x"), m.index("y"), m.index("c"))
    ctrl = controlled_gate(m, gate("X", ["q"]).matrix,
                           m.index("c"), m.index("u"), m.index("v"))
    fused = m.contract(meas, ctrl, {m.index("c")})
    got = m.to_dense(fused)  # axes (x, y, u, v)
    ref = np.zeros((2, 2, 2, 2), dtype=complex)
    x_mat = gate("X", ["q"]).matrix
    for c in (0, 1):
        proj = np.diag([1.0 - c, float(c)])
        u_mat = x_mat if c else np.eye(2)
        for x, y, u, v in itertools.product((0, 1), repeat=4):
            ref[x, y, u, v] += proj[y, x] * u_mat[v, u]
    assert np.max(np.abs(got - ref)) < 1e-12
    # as a matrix on (x u) -> (y v) this is exactly CNOT
    mat = got.transpose(1, 3, 0, 2).reshape(4, 4)
    assert np.allclose(mat, gate("CX", ["a", "b"]).matrix)


def test_controlled_identity_reduces_away():
    m = small_mgr()
    t = controlled_gate(m, np.eye(2), m.index("c"), m.index("x"), m.index("y"))
    # c ranks first, so a diagram that depended on it would have it at the root
    assert t.root.node.index is not m.index("c")


def test_controlled_sdg_dense_form():
    m = small_mgr()
    t = controlled_gate(m, gate("SDG", ["q"]).matrix,
                        m.index("c"), m.index("x"), m.index("y"))
    got = m.to_dense(t)  # axes (c, x, y)
    mat = np.zeros((4, 4), dtype=complex)
    for c, x, y in itertools.product((0, 1), repeat=3):
        mat[2 * y + c, 2 * x + c] += got[c, x, y]
    ref = np.zeros((4, 4), dtype=complex)
    ref[:2, :2] = np.eye(2)
    ref[2:, 2:] = np.diag([1, -1j])
    # |0><0| (x) I + |1><1| (x) S+ with the classical leg as the high qubit
    perm = [0, 2, 1, 3]
    assert np.allclose(mat[np.ix_(perm, perm)], ref)


@pytest.mark.parametrize("arity", [1, 2])
def test_guarded_measurement_slices(arity):
    # one guard bit takes the dense tensor, two go through func_to_tensor
    names = [f"g{k}" for k in range(arity)]
    m = TddManager([(n, KIND_OUTCOME) for n in names] + [
        ("c", KIND_OUTCOME), ("x", KIND_WIRE), ("y", KIND_WIRE)])
    f = BoolFunc.identity(arity).output_bit(0)
    if arity == 2:
        f = f & BoolFunc.identity(2).output_bit(1)
    legs = [m.index(n) for n in names + ["c", "x", "y"]]
    got = m.to_dense(_guarded(m, f, legs, COPY3, UNTAKEN))
    for g in itertools.product((0, 1), repeat=arity):
        want = COPY3 if f(g) else UNTAKEN
        assert np.allclose(got[g], want), g
    # taken: the projectors on c; untaken: the identity, with c = 0
    assert np.allclose(got[(1,) * arity][1], np.diag([0.0, 1.0]))
    assert np.allclose(got[(0,) * arity][0], np.eye(2))
    assert np.allclose(got[(0,) * arity][1], 0.0)


def test_compile_pe_pair_identical():
    pair = B.pe_pair(2, 0.25)
    mgr, nets = prepare([pair.spec_a, pair.spec_b])
    ra, rb = (evaluate(mgr, net) for net in nets)
    assert ra.mgr.identical(ra.tdd, rb.tdd)


def test_compile_empty_circuit_identity():
    spec = CircuitSpec(qubits=("q",), circuit=Conventional(()),
                       fixed_init={}, inputs=("q",), outputs=("q",))
    r = compile_spec(spec)
    arr = r.mgr.to_dense(r.tdd)
    assert np.allclose(arr, np.eye(2))


def test_compile_qft4_operator_nodes():
    r = compile_spec(B.qft(4), order="interleaved", open_inputs=True)
    assert r.stats.final_nodes == 31


def test_compile_node_count_matches_reachable():
    r = compile_spec(B.qft(4), order="interleaved", open_inputs=True)
    assert r.mgr.node_count(r.tdd) == r.stats.final_nodes


def test_plans_agree_on_single_qubit():
    spec = CircuitSpec(qubits=("q",),
                       circuit=Conventional((gate("H", ["q"]), gate("T", ["q"]))),
                       fixed_init={}, inputs=("q",), outputs=("q",))
    r1 = compile_spec(spec)
    mgr, t, _, pieces = compile_by_pieces(spec)
    assert r1.mgr.to_dense(r1.tdd).shape == mgr.to_dense(t).shape
    assert np.allclose(r1.mgr.to_dense(r1.tdd), mgr.to_dense(t))
    assert len(pieces) == 1


def test_teleport_partition_assignment():
    # open inputs carry no state, so every gate keeps an entry of its own
    _, (net,) = prepare([B.teleport()], open_inputs=True)
    parts = {}
    for e in net.entries:
        parts.setdefault(e.partition, []).append(e)
    assert set(parts) == {"q", "q1", "q2"}
    # CX(q, q1) is owned by q, as is q's outcome index: the measurement
    # that ends q names the output leg of q's last gate
    gates = {q: [e.indices for e in es if e.kind == "gate"] for q, es in parts.items()}
    assert ("w:q.0", "bit:c1", "w:q1.1") in gates["q"]
    assert any("bit:c0" in e.indices for e in parts["q"])
    assert ("w:q2.1", "w:q2.0") in gates["q2"]       # H q2
    # every tensor lands in exactly one partition
    assert sum(map(len, parts.values())) == len(net.entries)


def test_qft8_per_qubit_vs_sequential():
    spec = B.qft(8)
    r1 = compile_spec(spec, order="interleaved", open_inputs=True)
    mgr, _, stats, _ = compile_by_pieces(spec, order="interleaved",
                                         open_inputs=True)
    assert r1.mgr is not mgr
    assert r1.stats.final_nodes == stats.final_nodes == 511
    assert stats.max_nodes <= r1.stats.max_nodes


def test_measurement_as_identity():
    # unused trailing measurements do not change the compiled diagram
    import tddeq.circuits as C
    base = B.qft(3)
    stripped = CircuitSpec(
        qubits=base.qubits,
        circuit=C.seq(*[st for st in C.flatten(base.circuit)
                        if not isinstance(st, C.Measure)]),
        fixed_init=dict(base.fixed_init), inputs=(), outputs=base.outputs,
        output_bits=())
    ra = compile_spec(base, mode="m")
    rb = compile_spec(stripped, mode="m")
    da = ra.mgr.to_dense(ra.tdd)
    db = rb.mgr.to_dense(rb.tdd)
    # the measured version's outcome legs replace the final wires one-for-one
    assert da.shape == db.shape
    assert np.max(np.abs(da - db)) < 1e-9


def test_compile_dense_form_independent_of_plan():
    import random
    rng = random.Random(21)
    for _ in range(6):
        spec = B.random_dqc(rng, "m", n_qubits=3)
        r1 = compile_spec(spec)
        mgr, t, _, _ = compile_by_pieces(spec)
        d1 = r1.mgr.to_dense(r1.tdd)
        d2 = mgr.to_dense(t)
        n1 = {i.name: k for k, i in enumerate(r1.tdd.indices)}
        perm = [n1[i.name] for i in t.indices]
        assert np.max(np.abs(np.transpose(d1, perm) - d2)) < 1e-9


def test_compile_stats_deterministic():
    for pair_fn in (lambda: B.qft_pair(4), lambda: B.pe_pair(3, 0.375),
                    B.teleport_pair):
        pair = pair_fn()
        r1 = compile_spec(pair.spec_a)
        r2 = compile_spec(pair.spec_a)
        assert r1.stats.final_nodes == r2.stats.final_nodes
        assert r1.stats.max_nodes == r2.stats.max_nodes


def test_max_open_guard():
    with pytest.raises(CompileScaleError):
        compile_spec(B.qft(14), order="interleaved", open_inputs=True, max_open=10)


# -- a final measurement names the qubit's last leg ------------------------------


def _kinds(spec, **kw):
    _, (net,) = prepare([spec], **kw)
    return [e.kind for e in net.entries], net


def _agrees_with_oracle(a, b, mode):
    """Both plans give the dense oracle's verdict; returns that verdict."""
    want = oracle_m_eq(a, b) if mode == "m" else oracle_q_eq(a, b)
    for plan in ("basic", "partitioned"):
        v, _ = check(a, b, mode, plan=plan)
        assert v.status == ("equivalent" if want else "not-equivalent"), plan
    return want


def _dense_by_name(mgr, t, names):
    d = mgr.to_dense(t)
    have = [i.name for i in t.indices]
    return np.transpose(d, [have.index(n) for n in names])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_qft_measurements_cost_no_tensor(n):
    # open inputs, so that the gates are not folded into carried states
    kinds, net = _kinds(B.qft(n), open_inputs=True)
    assert not any(k.startswith("measure") for k in kinds)
    # every outcome index is the output leg of its qubit's last gate: H
    # has (out, in) legs, a CP holds both of its wires
    h = gate("H", ["q"]).matrix
    legs = {x for e in net.entries if e.kind == "gate"
            for x in (e.indices[:1] if np.array_equal(e.payload, h) else e.indices)}
    assert {f"outbit:{k}" for k in range(n)} <= legs


@pytest.mark.parametrize("mode", ["m", "q"])
def test_init_then_measure_puts_the_init_on_the_outcome(mode):
    # q-mode compares outcome-independent maps: Z on t = |0> does nothing
    if mode == "m":
        head, tail = "qubits a t\noutbits r\n", "ifc c apply X t\nmeasure t -> r\n"
        other = "init a=1\nmeasure a -> c\n"
    else:
        head, tail = "qubits a t\noutputs t\n", "ifc c apply Z t\n"
        other = "init a=+\ngate X t\nmeasure a -> c\n"
    head += "init t=0\n"
    a = parse(head + "init a=+\nmeasure a -> c\n" + tail)
    kinds, net = _kinds(a)
    assert not any(k.startswith("measure") for k in kinds)
    # m-mode: the state multiplies into the guarded X, the only other entry
    # that holds c; q-mode: Z on |0> vanishes, and the state stays rank 1
    (e,) = [e for e in net.entries if "bit:c" in e.indices]
    assert e.kind == ("cond" if mode == "m" else "init")
    r = compile_spec(a)
    if mode == "m":     # c copied onto r: |+> read twice
        want, names = np.eye(2) / np.sqrt(2), ["bit:c", "outbit:0"]
    else:               # t stays |0> on every record
        want, names = np.array([[1, 0], [1, 0]]) / np.sqrt(2), ["bit:c", "out:t"]
    assert np.max(np.abs(_dense_by_name(r.mgr, r.tdd, names) - want)) < 1e-12
    verdicts = {_agrees_with_oracle(a, parse(head + body + tail), mode)
                for body in ("init a=0\ngate H a\nmeasure a -> c\n", other)}
    assert verdicts == {True, False}


def test_back_to_back_final_measurements_share_one_copy():
    # the first measurement renames a's wire, held by the CX, to its
    # outcome; the second reads that outcome, which keeps its name, so one
    # identity, the rank-2 COPY, joins the two outcomes
    head = "qubits a b\noutbits c d e\ninit a=+\ninit b=0\ngate CX a b\nmeasure a -> c\n"
    tail = "measure a -> d\nmeasure b -> e\n"
    a = parse(head + tail)
    kinds, net = _kinds(a)
    assert not any(k.startswith("measure") for k in kinds)
    assert [(e.kind, e.indices) for e in net.entries] == [
        ("gate", ("outbit:0", "outbit:2")), ("ident", ("outbit:0", "outbit:1"))]
    r = compile_spec(a)
    want = np.zeros((2, 2, 2))          # (c, d, e): |+> copied three times
    want[0, 0, 0] = want[1, 1, 1] = 2 ** -0.5
    names = ["outbit:0", "outbit:1", "outbit:2"]
    assert np.max(np.abs(_dense_by_name(r.mgr, r.tdd, names) - want)) < 1e-12
    # X between the measurements flips d; Z leaves every outcome alone
    assert {_agrees_with_oracle(a, parse(head + f"gate {g} a\n" + tail), "m")
            for g in ("X", "Z")} == {False, True}


def test_open_input_measured_without_gate_keeps_rank2_copy():
    head = "qubits a t\ninputs a\noutputs t\ninit t=0\n"
    tail = "measure a -> c\nifc c apply Z t\n"
    a = parse(head + tail)
    kinds, net = _kinds(a)
    # the open input wire stays a distinct index from the outcome
    assert [e.indices for e in net.entries if e.kind == "ident"] == \
        [("w:a.0", "bit:c")]
    # the branch maps read the input, so no such circuit is q-equivalent
    for g in ("Z", "X"):
        assert not _agrees_with_oracle(a, parse(head + f"gate {g} a\n" + tail), "q")
    want = np.zeros((2, 2, 2))          # (c, a in, t out): delta(c, a) |0>
    want[0, 0, 0] = want[1, 1, 0] = 1.0
    names = ["bit:c", "w:a.0", "out:t"]
    r = compile_spec(a)
    mgr, t, _, _ = compile_by_pieces(a)
    for m, d in ((r.mgr, r.tdd), (mgr, t)):
        assert np.max(np.abs(_dense_by_name(m, d, names) - want)) < 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_open_input_operator_build_with_an_ungated_measurement(n):
    base = B.qft(n)
    r0 = compile_spec(base, order="interleaved", open_inputs=True)
    assert r0.stats.final_nodes == 2 ** (n + 1) - 1
    assert "ident" not in [e.kind for e in r0.net.entries]
    # qubit x is measured with no gate: its open wire w:x.0 and outcome
    # outbit:n stay apart through one rank-2 COPY, the identity
    spec = CircuitSpec(
        qubits=base.qubits + ("x",),
        circuit=seq(base.circuit, Measure(MeasureStep(("x",), ("cx",)))),
        fixed_init={**base.fixed_init, "x": "0"}, outputs=base.outputs,
        output_bits=base.output_bits + ("cx",))
    names = [i.name for i in r0.tdd.indices]
    want = np.multiply.outer(_dense_by_name(r0.mgr, r0.tdd, names), np.eye(2))
    names += ["w:x.0", f"outbit:{n}"]
    r = compile_spec(spec, order="interleaved", open_inputs=True)
    assert [e.indices for e in r.net.entries if e.kind == "ident"] == \
        [("w:x.0", f"outbit:{n}")]
    mgr, t, _, _ = compile_by_pieces(spec, order="interleaved", open_inputs=True)
    for m, d in ((r.mgr, r.tdd), (mgr, t)):
        assert np.max(np.abs(_dense_by_name(m, d, names) - want)) < 1e-9


def test_shared_outcome_after_a_shared_gate_keeps_the_diagonal():
    # two qubits read into one bit: validate refuses a bit written twice,
    # so there is no oracle verdict; the compiled tensor still matches the
    # pointwise COPY semantics, <c c|CX|+0>, in both plans
    spec = CircuitSpec(
        qubits=("a", "b"),
        circuit=seq(Conventional((gate("CX", ["a", "b"]),)),
                    Measure(MeasureStep(("a", "b"), ("c", "c")))),
        fixed_init={"a": "+", "b": "0"}, output_bits=("c",))
    assert any("measured twice" in err for err in validate(spec))
    kinds, net = _kinds(spec)
    # the CX control passes through and takes in a's state, b's state is
    # summed into its in leg: both of its wires are renamed to the one
    # outcome, and the CX keeps the diagonal of those two axes
    assert [(e.kind, e.indices) for e in net.entries] == [("gate", ("outbit:0",))]
    psi = gate("CX", ["a", "b"]).matrix @ np.kron([1, 1], [1, 0]) / np.sqrt(2)
    want = np.array([psi[0], psi[3]])
    r = compile_spec(spec)
    mgr, t, _, _ = compile_by_pieces(spec)
    for m, d in ((r.mgr, r.tdd), (mgr, t)):
        assert np.max(np.abs(m.to_dense(d) - want)) < 1e-9


def test_q_mode_discarded_qubit_ends_on_its_peeled_outcome():
    # a is not an output: its last step, a measurement, names the output
    # leg of its last gate, and that outcome is peeled in q-mode; the
    # outcome holds a's last value, so a needs no discard leg
    # CX from a = |+> flips t on c = 1 and the ifc flips it back: the map
    # is the identity on every branch, up to the phase a's T leaves
    head = "qubits a t\ninputs t\noutputs t\ninit a=+\ngate CX a t\n"
    tail = "measure a -> c\nifc c apply X t\n"
    a = parse(head + "gate T a\n" + tail)
    kinds, net = _kinds(a)
    assert not any(k.startswith("measure") for k in kinds)
    assert "bit:c" in net.peel_set and "disc:a" not in net.decls
    # T a, rank 1 on c, multiplies into the CX, the first entry holding c
    assert [(e.kind, e.indices) for e in net.entries] == [
        ("gate", ("bit:c", "w:t.1", "w:t.0")), ("cond", ("bit:c", "out:t", "w:t.1"))]
    want = np.zeros((2, 2, 2), dtype=complex)     # (c, t out, t in)
    want[0] = np.eye(2) / np.sqrt(2)
    want[1] = np.exp(0.25j * np.pi) * np.eye(2) / np.sqrt(2)
    r = compile_spec(a)
    assert np.max(np.abs(_dense_by_name(r.mgr, r.tdd, ["bit:c", "out:t", "w:t.0"]) - want)) < 1e-12
    assert {_agrees_with_oracle(a, parse(head + f"gate {g} a\n" + tail), "q")
            for g in ("S", "H")} == {True, False}


# -- blocked contraction against the gate-by-gate fold ------------------------------


def gate_by_gate(mgr, factors, uses, open_names):
    """Each factor straight into the running diagram; (result, peak nodes)."""
    out, peak = mgr.scalar(1.0), 1
    for g, names in factors:
        for n in names:
            uses[n] -= 1
        dead = {i for i in set(out.indices) & set(g.indices)
                if uses[i.name] == 0 and i.name not in open_names}
        out = mgr.contract(out, g, dead)
        peak = max(peak, mgr.node_count(out))
    return out, peak


def _entry_factors(mgr, entries):
    return [(_entry_tensor(mgr, e), e.indices) for e in entries]


def _random_specs(count=40):
    rng = random.Random(1105)
    specs = []
    while len(specs) < count:
        mode = rng.choice("mq")
        spec = B.random_dqc(rng, mode, n_qubits=rng.randint(2, 4))
        specs.append((spec, mode, rng.random() < 0.5))
    return specs


@pytest.mark.parametrize("spec,mode,open_inputs", _random_specs())
def test_blocked_fold_matches_gate_by_gate(spec, mode, open_inputs):
    kw = dict(mode=mode, open_inputs=open_inputs)
    r = compile_spec(spec, **kw)
    entries = r.net.entries
    # an identity survives only where no rename can drop it: on an open
    # input wire or on an outcome, indices that keep their names
    for e in entries:
        if e.kind == "ident":
            x = e.indices[0]
            assert x in r.net.in_names or r.net.decls[x].kind == KIND_OUTCOME, e
    ref, peak = gate_by_gate(r.mgr, _entry_factors(r.mgr, entries),
                             _count_uses(entries), r.net.open_names)
    assert r.mgr.identical(r.tdd, ref)
    assert r.stats.max_nodes <= peak
    # per-qubit pieces, then the pieces, through the same loop
    mgr, t, stats, pieces = compile_by_pieces(spec, **kw)
    net = prepare([spec], **kw)[1][0]
    uses, peak, refs = _count_uses(net.entries), 0, []
    for q, piece in pieces.items():
        group = [e for e in net.entries if e.partition == q]
        p, k = gate_by_gate(mgr, _entry_factors(mgr, group), uses.copy(),
                            net.open_names)
        assert mgr.identical(piece, p)
        refs.append(p)
        peak = max(peak, k)
    piece_uses = Counter(i.name for p in refs for i in p.indices)
    ref, k = gate_by_gate(mgr, [(p, [i.name for i in p.indices]) for p in refs],
                          piece_uses, net.open_names)
    assert mgr.identical(t, ref)
    assert stats.max_nodes <= max(peak, k)


def _dense_fold(factors, open_names):
    """Dense reference of ``contract_all``: (array, names) after summing
    each non-open index once no factor left holds it."""
    uses = Counter(n for _, names in factors for n in names)
    arr, names = np.ones(()), []
    for b, bnames in factors:
        uses.subtract(bnames)
        shared = [n for n in names if n in bnames and uses[n] == 0
                  and n not in open_names]
        arr, names = dense_contract(arr, names, b, bnames, shared)
    return arr, names


def _check_against_dense(mgr, dense_factors, open_names):
    factors = [(mgr.from_dense(a, [mgr.index(n) for n in names]), names)
               for a, names in dense_factors]
    uses = Counter(n for _, names in dense_factors for n in names)
    t = contract_all(mgr, factors, uses, open_names, CompileStats(), 26)
    want, names = _dense_fold(dense_factors, open_names)
    assert sorted(names) == sorted(i.name for i in t.indices)
    assert np.max(np.abs(_dense_by_name(mgr, t, names) - want)) < 1e-9
    return t


def _rand(rng, k):
    return rng.normal(size=(2,) * k) + 1j * rng.normal(size=(2,) * k)


def test_index_held_by_the_running_diagram_is_summed_at_the_flush():
    # w0 is held by the running diagram and by both factors of the next
    # block: it stays open inside the block and is summed at the flush
    rng = np.random.default_rng(3)
    wide = [f"a{k}" for k in range(BLOCK_LEGS)] + ["w0"]
    mgr = TddManager([(n, KIND_WIRE) for n in wide + ["b", "c"]])
    factors = [(_rand(rng, len(wide)), wide), (_rand(rng, 2), ["w0", "b"]),
               (_rand(rng, 2), ["c", "w0"])]
    t = _check_against_dense(mgr, factors, set(wide[:-1]) | {"b", "c"})
    assert mgr.index("w0") not in t.indices


def test_index_held_by_the_next_block_is_summed_after_it():
    # w0 is held by the running diagram, the block and the wide factor that
    # starts the next block: the flush keeps it, the last flush sums it
    rng = np.random.default_rng(5)
    wide = ["w0"] + [f"x{k}" for k in range(BLOCK_LEGS)]
    mgr = TddManager([(n, KIND_WIRE) for n in wide + ["c"]])
    factors = [(_rand(rng, len(wide)), wide), (_rand(rng, 2), ["c", "w0"]),
               (_rand(rng, len(wide)), wide[::-1])]
    t = _check_against_dense(mgr, factors, {"c"})
    assert [i.name for i in t.indices] == ["c"]


def test_factor_wider_than_a_block_contracts():
    rng = np.random.default_rng(4)
    names = [f"x{k}" for k in range(BLOCK_LEGS + 2)]
    mgr = TddManager([(n, KIND_WIRE) for n in names + ["y", "z"]])
    factors = [(_rand(rng, 2), ["x0", "y"]), (_rand(rng, len(names)), names),
               (_rand(rng, 3), ["x1", "x2", "z"])]
    _check_against_dense(mgr, factors, set(names[3:]) | {"y", "z"})


def test_partition_piece_wider_than_a_block_contracts():
    # a diagonal gate holds its control's wire once, so a qft(n) piece has
    # at most n + 1 legs: qft(8) is the smallest with one wider than a block
    spec = B.qft(8)
    mgr, t, _, pieces = compile_by_pieces(spec, order="interleaved",
                                          open_inputs=True)
    assert max(len(p.indices) for p in pieces.values()) > BLOCK_LEGS
    net = prepare([spec], order="interleaved", open_inputs=True)[1][0]
    dense = [(mgr.to_dense(p), [i.name for i in p.indices])
             for p in pieces.values()]
    want, names = _dense_fold(dense, net.open_names)
    assert np.max(np.abs(_dense_by_name(mgr, t, names) - want)) < 1e-9


def test_no_factors_is_the_scalar_one():
    mgr = small_mgr()
    stats = CompileStats()
    t = contract_all(mgr, [], Counter(), set(), stats, 26)
    assert t.indices == () and mgr.identical(t, mgr.scalar(1.0))
    assert stats.max_nodes == 0


# -- index order -------------------------------------------------------------------


def _ranked(spec, order, **kw):
    return [(i.name, i.kind) for i in prepare([spec], order=order, **kw)[0].indices]


@pytest.mark.parametrize("spec,mode,open_inputs", _random_specs(12))
def test_grouped_order_is_interleaved_with_outcomes_lifted(spec, mode, open_inputs):
    kw = dict(mode=mode, open_inputs=open_inputs)
    grouped, inter = _ranked(spec, "grouped", **kw), _ranked(spec, "interleaved", **kw)
    lifted = sum(kind == KIND_OUTCOME for _, kind in grouped)
    assert all(kind == KIND_OUTCOME for _, kind in grouped[:lifted])
    assert grouped[lifted:] == [d for d in inter if d[1] != KIND_OUTCOME]


def _hh_pair(n, drop=False):
    qs = " ".join(f"q{k}" for k in range(n))
    head = f"qubits {qs}\ninputs {qs}\noutputs {qs}\n"
    body = "".join(f"gate H q{k}\ngate H q{k}\n" for k in range(n))
    if drop:
        body = body.split("\n", 1)[1]
    return parse(head + body), parse(head)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("plan", ["basic", "partitioned"])
def test_q_mode_pair_on_every_qubit_stays_per_qubit(n, plan):
    # each qubit's input wire ranks next to its own output leg, so H.H on
    # n qubits against the empty circuit never couples two qubits
    v, rep = check(*_hh_pair(n), "q", plan=plan)
    assert v.status == "equivalent" and rep.max_nodes <= 4 * n
    assert check(*_hh_pair(n, drop=True), "q", plan=plan)[0].status == "not-equivalent"


def test_q_mode_pair_on_every_qubit_agrees_with_oracle():
    for drop in (False, True):
        a, b = _hh_pair(3, drop)
        assert (check(a, b, "q")[0].status == "equivalent") == oracle_q_eq(a, b)
