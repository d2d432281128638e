import functools
import json
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq import oracle
from tddeq.circuits import (Branch, CircuitSpec, CondGate, Conventional,
                            Measure, MeasureStep, flatten, gate, seq, validate)
from tddeq.encode import evaluate, prepare
from tddeq.equivalence import IndexOrderError, check, get_nodes, m_eq, q_eq
from tddeq.logic import BoolFunc
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.tdd import KIND_OUTCOME, KIND_WIRE, Tdd, TddEdge, TddError, TddManager
from tddeq.textfmt import expr_from_func, parse, parse_expr, print_spec

from dense_ref import record_masses


def meas_mgr(n_meas=1, n_wire=2):
    order = [(f"c{k}", KIND_OUTCOME) for k in range(n_meas)] + \
            [(f"x{k}", KIND_WIRE) for k in range(n_wire)]
    return TddManager(order)


def state_tdd(m, amps, names):
    arr = np.asarray(amps, dtype=complex).reshape((2,) * len(names))
    return m.from_dense(arr, [m.index(n) for n in names])


def test_m_eq_identical_is_true():
    m = meas_mgr()
    t = state_tdd(m, [0.5, 0.5, 0.5, 0.5], ["c0", "x0"])
    assert m_eq(m, t, t, {m.index("c0")})


def test_m_eq_compiled_pe_pair():
    pair = B.pe_pair(2, 0.25)
    mgr, nets = prepare([pair.spec_a, pair.spec_b])
    ra, rb = (evaluate(mgr, net) for net in nets)
    assert m_eq(ra.mgr, ra.tdd, rb.tdd, set(ra.m_set))


def test_m_eq_global_scale_is_detected():
    # t vs 2t: branch masses differ by a factor 4
    m = meas_mgr()
    amps = np.array([0.5, 0.5, 0.5, -0.5])
    t1 = state_tdd(m, amps, ["c0", "x0"])
    t2 = state_tdd(m, 2 * amps, ["c0", "x0"])
    witness = []
    assert not m_eq(m, t1, t2, {m.index("c0")}, witness=witness)
    w = witness[0]
    assert abs(w["mass_b"] - 4 * w["mass_a"]) < 1e-9
    assert w["tv"] == pytest.approx(1.5)      # 1/2 (|0.5 - 2| + |0.5 - 2|)


@pytest.mark.parametrize("theta,want", [
    (4e-5, "not-equivalent"),         # TV = sin^2(theta / 2) = 4e-10
    (2.5e-5, "not-equivalent"),       # 1.56e-10: between eps and GRID
    (1e-5, "equivalent")])            # 2.5e-11: below eps
def test_total_variation_resolves_below_the_weight_grid(theta, want):
    a = parse("qubits q\ninit q=0\noutbits c\nmeasure q -> c\n")
    b = parse("qubits q\ninit q=0\noutbits c\ngate H q\n"
              f"gate P({theta}) q\ngate H q\nmeasure q -> c\n")
    for plan in ("basic", "partitioned"):
        v, report = check(a, b, "m", plan=plan)
        assert v.status == want, (plan, report.tv)
        assert abs(report.tv - math.sin(theta / 2) ** 2) <= 1e-12, plan


def test_m_eq_phase_only_difference_is_equivalent():
    m = meas_mgr()
    amps = np.array([0.5, 0.5, 0.5, -0.5])
    t1 = state_tdd(m, amps, ["c0", "x0"])
    t2 = state_tdd(m, np.exp(0.7j) * amps, ["c0", "x0"])
    assert m_eq(m, t1, t2, {m.index("c0")})


def test_m_eq_scaling_property():
    # for a normalised t, m_eq(t, c*t) iff the distance 1/2 | |c|^2 - 1 | <= eps
    m = meas_mgr()
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    t = state_tdd(m, amps, ["c0", "x0"])
    for c, expected in ((1.0, True), (np.exp(1.2j), True), (1.0000001, False),
                        (0.5, False), (-1.0, True)):
        t2 = Tdd(TddEdge(t.root.weight * c, t.root.node), t.indices)
        assert m_eq(m, t, t2, {m.index("c0")}) == expected, c


def test_m_eq_reflexive_symmetric():
    rng = np.random.default_rng(5)
    m = meas_mgr(2, 2)
    names = ["c0", "c1", "x0", "x1"]
    for _ in range(10):
        a = state_tdd(m, rng.standard_normal(16), names)
        b = state_tdd(m, rng.standard_normal(16), names)
        ms = {m.index("c0"), m.index("c1")}
        assert m_eq(m, a, a, ms)
        assert m_eq(m, a, b, ms) == m_eq(m, b, a, ms)


def test_m_eq_index_order_violation_raises():
    # a measurement index below a wire index violates the precondition
    m = TddManager([("x0", KIND_WIRE), ("c0", KIND_OUTCOME)])
    t1 = state_tdd(m, [1.0, 0.0, 0.0, 1.0], ["x0", "c0"])
    t2 = state_tdd(m, [0.0, 1.0, 1.0, 0.0], ["x0", "c0"])
    with pytest.raises(IndexOrderError):
        m_eq(m, t1, t2, {m.index("c0")})


def test_get_nodes_non_measurement_root():
    m = meas_mgr()
    t = state_tdd(m, [1.0, 2.0], ["x0"])
    nodes = get_nodes(m, t, {m.index("c0")})
    assert nodes == {t.root.node}


def test_get_nodes_identical_children_singleton():
    m = meas_mgr()
    # tensor independent of c0: the node is reduced away entirely
    t = state_tdd(m, [1.0, 2.0, 1.0, 2.0], ["c0", "x0"])
    assert len(get_nodes(m, t, {m.index("c0")})) == 1


def test_get_nodes_skips_zero_branches():
    m = meas_mgr()
    t = state_tdd(m, [1.0, 2.0, 0.0, 0.0], ["c0", "x0"])
    nodes = get_nodes(m, t, {m.index("c0")})
    assert len(nodes) == 1


def test_get_nodes_teleport_singleton():
    pair = B.teleport_pair()
    mgr, nets = prepare([pair.spec_a, pair.spec_b])
    ra, rb = (evaluate(mgr, net) for net in nets)
    peel = set(ra.peel_set) | set(rb.peel_set)
    na = get_nodes(ra.mgr, ra.tdd, peel)
    nb = get_nodes(rb.mgr, rb.tdd, peel)
    assert len(na) == 1 and na == nb


def test_peel_walk_is_iterative_and_linear():
    # 1500 outcome indices, both branches of each on the next node: 2^1500
    # peel paths over 1500 nodes, deeper than the recursion limit
    n = 1500
    m = meas_mgr(n, 0)
    node = m.terminal
    for k in reversed(range(n)):
        node = m.mk_edge(m.index(f"c{k}"), TddEdge(1.0, node),
                         TddEdge(1j, node)).node
    t = m.tdd(TddEdge(1.0, node), [m.index(f"c{k}") for k in range(n)])
    ms = set(t.indices)
    assert get_nodes(m, t, ms) == {m.terminal}
    assert q_eq(m, t, t, ms, strict=True)
    assert m.node_count(t) == n + 1


def wide_cx_spec(with_cond: bool) -> CircuitSpec:
    """17 measured bits whose AND controls a CX; every qubit starts in 1."""
    bits = tuple(f"c{k}" for k in range(17))
    qs = tuple(f"q{k}" for k in range(19))
    x = BoolFunc.identity(17)
    steps = [Measure(MeasureStep(qs[:17], bits))]
    if with_cond:
        f = functools.reduce(operator.and_, (x.output_bit(k) for k in range(17)))
        steps.append(CondGate(gate("CX", ["q17", "q18"]), bits, f))
    steps.append(Measure(MeasureStep(("q18",), ("t",))))
    return CircuitSpec(qubits=qs, circuit=seq(*steps),
                       fixed_init={q: "1" for q in qs}, output_bits=bits + ("t",))


def test_engine_error_is_inconclusive(monkeypatch):
    def broken(self, a, b, shared):
        raise TddError("engine fault")

    monkeypatch.setattr(TddManager, "contract", broken)
    spec = wide_cx_spec(True)
    v, _ = check(spec, spec, "m")
    assert v.status == "inconclusive"
    assert v.reason == "engine fault"


def test_wide_control_is_decided():
    # the 17-bit control fires on the all-ones record, so the CX flips q18
    # to 0 and t reads 0; without the conditional t reads 1
    spec = wide_cx_spec(True)
    assert check(spec, spec, "m")[0].status == "equivalent"
    for plan in ("basic", "partitioned"):
        v, _ = check(spec, wide_cx_spec(False), "m", plan=plan)
        assert v.status == "not-equivalent", plan


WIDE_BITS = 64


def wide_text(op: str, init: str, tail: str) -> str:
    """64 bits read from 8 qubits measured 8 times each, then ``tail``.

    Zero-padded names keep each qubit's bits adjacent in the index order.
    """
    qs = [f"q{k}" for k in range(8)]
    lines = ["qubits " + " ".join(qs) + " t", "outbits r"]
    lines += [f"init {q}={init}" for q in qs] + ["init t=0"]
    lines += [f"measure q{k // 8} -> c{k:02d}" for k in range(WIDE_BITS)]
    expr = op.join(f"c{k:02d}" for k in range(WIDE_BITS))
    lines += [tail.replace("@", expr), "measure t -> r"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("op,init,fires", [
    ("&", "1", True), ("|", "1", True), ("^", "1", False),
    ("^", "+", False),              # each qubit gives 8 equal bits
    ("&", "+", None), ("|", "+", None)])   # fires with probability 2^-8, 1 - 2^-8
def test_wide_controls_known_answers(op, init, fires):
    a = parse(wide_text(op, init, "ifc @ apply X t"))
    assert validate(a) == []
    again = parse(print_spec(a))
    assert print_spec(again) == print_spec(a)
    conds = [[(s.bits, s.func) for s in flatten(x.circuit) if isinstance(s, CondGate)]
             for x in (a, again)]
    assert conds[0] == conds[1] and len(conds[0]) == 1
    for gate_line, applied in (("", False), ("gate X t", True)):
        b = parse(wide_text(op, init, gate_line))
        v, _ = check(a, b, "m")
        assert v.status == ("equivalent" if fires is applied else "not-equivalent")


def test_bit_names_do_not_rank_outcomes():
    # 12 internal bits read unevenly from 4 |+> qubits; the renaming
    # c_k -> c_(11-k) reverses the bits' sort order, and the outcome indices
    # keep their ranks, by measuring qubit and then measurement order
    src = [0, 1, 2, 0, 0, 0, 0, 1, 2, 3, 3, 1]

    def text(name, op, tail):
        lines = ["qubits q0 q1 q2 q3 t", "outbits r", "init t=0"]
        lines += [f"init q{k}=+" for k in range(4)]
        lines += [f"measure q{q} -> {name(k)}" for k, q in enumerate(src)]
        lines += [tail.replace("@", op.join(map(name, range(len(src))))),
                  "measure t -> r"]
        return "\n".join(lines) + "\n"

    for op in "&^":
        got = set()
        for name in (lambda k: f"c{k:02d}", lambda k: f"c{11 - k:02d}"):
            v, report = check(parse(text(name, op, "ifc @ apply X t")),
                              parse(text(name, op, "")), "m")
            got.add((v.status, report.max_nodes))
        assert len(got) == 1, (op, got)


def reread_text(n: int, skip_h: int | None = None, outbits: bool = True,
                flip: bool = False) -> str:
    """``n`` fair bits read from one qubit, ``measure q -> c; gate H q`` each.

    ``skip_h = k`` drops the H before measurement k, so bit k repeats bit
    k - 1.  With ``outbits`` off the bits stay internal and q is read twice
    more, into the output bits r and s; ``flip`` negates q between the two.
    An idle qubit p keeps its fixed state on its open final wire.
    """
    bits = [f"c{k:02d}" for k in range(n)]
    lines = ["qubits q p", "init q=+", "init p=1",
             "outbits " + (" ".join(bits) if outbits else "r s")]
    for k, c in enumerate(bits):
        if k == skip_h:
            lines.pop()
        lines += [f"measure q -> {c}", "gate H q"]
    if not outbits:
        lines += ["measure q -> r"] + ["gate X q"] * flip + ["measure q -> s"]
    return "\n".join(lines) + "\n"


def test_m_eq_sums_each_side_over_its_own_indices():
    # the H after the last measurement leaves q's final wire open in A only;
    # both circuits give every outcome record mass 2^-n
    for n in (2, 3):
        a = parse(reread_text(n))
        b = parse(reread_text(n).rsplit("gate H q\n", 1)[0])
        assert oracle_m_eq(a, b)
        for plan in ("basic", "partitioned"):
            assert check(a, b, "m", plan=plan)[0].status == "equivalent", (n, plan)
        assert not oracle_m_eq(a, parse(reread_text(n, skip_h=n - 1)))


def test_m_eq_compares_each_pair_of_sub_diagrams_once(monkeypatch):
    # the 2^16 records share sub-diagrams: each side's residual masses come
    # from one pass of ``norms``
    calls = []
    norms = TddManager.norms
    monkeypatch.setattr(TddManager, "norms",
                        lambda *a: calls.append(a) or norms(*a))
    n = 16
    a = parse(reread_text(n))
    assert check(a, parse(reread_text(n).rsplit("gate H q\n", 1)[0]),
                 "m")[0].status == "equivalent"
    assert len(calls) == 2
    wide = reread_text(26)
    assert check(parse(wide), parse(wide.rsplit("gate H q\n", 1)[0]),
                 "m")[0].status == "equivalent"
    # every record differs by 2^-16, so the tie goes to the all-low record
    v, report = check(a, parse(reread_text(n, skip_h=8)), "m")
    assert v.status == "not-equivalent"
    (w,) = v.witness
    assert (w["kind"], w["path"]) == \
        ("outcome-mass", [(f"outbit:{k}", 0) for k in range(n)])
    assert (w["mass_a"], w["mass_b"]) == pytest.approx((2.0 ** -16, 2.0 ** -15))
    assert w["tv"] == report.tv == pytest.approx(0.5)


def test_engine_errors_are_inconclusive(monkeypatch):
    def deep(*a, **k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(TddManager, "contract", deep)
    pair = B.teleport_pair()
    for plan in ("basic", "partitioned"):
        v, _ = check(pair.spec_a, pair.spec_b, "q", plan=plan)
        assert v.status == "inconclusive" and v.reason.startswith("engine error")


@pytest.mark.parametrize("n,outbits,want", [
    (64, False, "norm drift"),        # every amplitude rounds to zero
    (64, True, "norm drift"),
    (40, True, "not-equivalent")])    # records of mass 2^-40 < eps
def test_wide_outcome_register_is_not_vacuous(n, outbits, want):
    # the pairs differ: bit n-1 repeats bit n-2 in B, or s = r in A and
    # s = !r in B
    a = parse(reread_text(n, outbits=outbits))
    b = parse(reread_text(n, skip_h=n - 1) if outbits else
              reread_text(n, outbits=False, flip=True))
    for plan in ("basic", "partitioned"):
        v, report = check(a, b, "m", plan=plan)
        if want == "not-equivalent":
            assert v.status == want and report.tv == pytest.approx(0.5), (plan, v)
        else:
            assert v.status == "inconclusive" and want in v.reason, (plan, v)


@pytest.mark.parametrize("n", [40, 60])
def test_wide_uniform_register_decides_on_total_variation(n):
    # B repeats bit n-1 from bit n-2: half of A's 2^n records cannot occur,
    # the other half are twice as likely, at any width; dropping only the
    # trailing H leaves every record's mass alone
    a = parse(reread_text(n))
    b = parse(reread_text(n, skip_h=n - 1))
    c = parse(reread_text(n).rsplit("gate H q\n", 1)[0])
    for plan in ("basic", "partitioned"):
        v, report = check(a, b, "m", plan=plan)
        assert v.status == "not-equivalent", (plan, v)
        assert abs(report.tv - 0.5) <= 1e-9 and v.witness[0]["tv"] == report.tv
        v, report = check(a, c, "m", plan=plan)
        assert v.status == "equivalent" and report.tv <= 1e-10, (plan, v)


def test_wide_registers_are_decided():
    # 40 internal fair bits, or 26 output bits and q's wire, take the
    # diagram past 26 open indices; the norm holds
    a = parse(reread_text(40, outbits=False))
    flipped = parse(reread_text(40, outbits=False, flip=True))
    c, d = parse(reread_text(26)), parse(reread_text(26, skip_h=25))
    for plan in ("basic", "partitioned"):
        assert check(a, a, "m", plan=plan)[0].status == "equivalent"
        assert check(a, flipped, "m", plan=plan)[0].status == "not-equivalent"
        assert check(c, d, "m", plan=plan)[0].status == "not-equivalent"


def test_q_eq_teleport_vs_swap():
    pair = B.teleport_pair()
    mgr, nets = prepare([pair.spec_a, pair.spec_b])
    ra, rb = (evaluate(mgr, net) for net in nets)
    peel = set(ra.peel_set) | set(rb.peel_set)
    assert q_eq(ra.mgr, ra.tdd, rb.tdd, peel)
    assert q_eq(ra.mgr, ra.tdd, rb.tdd, peel, strict=True)


def test_q_eq_no_measurement_indices():
    m = meas_mgr()
    t = state_tdd(m, [1.0, 2.0, 3.0, 4.0], ["x0", "x1"])
    assert q_eq(m, t, t, set())


def test_q_eq_dropped_correction_detected():
    broken = Branch(MeasureStep(("q", "q1"), ("c0", "c1")), BoolFunc.identity(2),
                    (Conventional(()), Conventional((gate("X", ["q2"]),)),
                     Conventional(()),
                     Conventional((gate("X", ["q2"]),))))
    prep = Conventional((gate("H", ["q2"]), gate("CX", ["q2", "q1"]),
                         gate("CX", ["q", "q1"]), gate("H", ["q"])))
    spec = CircuitSpec(qubits=("q", "q1", "q2"), circuit=seq(prep, broken),
                       fixed_init={"q1": "0", "q2": "0"},
                       inputs=("q",), outputs=("q2",))
    v, _ = check(spec, B.swap_teleport(), "q")
    assert v.status == "not-equivalent"
    assert not oracle_q_eq(spec, B.swap_teleport())


def test_check_qft_pairs_small():
    for n in (2, 3, 4):
        v, _ = check(B.qft(n), B.dyn_qft(n), "m")
        assert v.status == "equivalent"
        assert oracle_m_eq(B.qft(n), B.dyn_qft(n))


def test_check_bitflip_and_identity():
    for err in (None, "q0", "q1", "q2"):
        pair = B.bitflip_pair(err)
        v, _ = check(pair.spec_a, pair.spec_b, "q")
        assert v.status == "equivalent", err


def test_check_mutated_pe_not_equivalent():
    spec = B.dyn_pe(2, 0.25)
    import tddeq.circuits as C
    steps = C.flatten(spec.circuit)
    # replace the S-dagger correction angle: changes the distribution
    mutated = []
    for st in steps:
        if isinstance(st, C.CondGate):
            st = C.CondGate(gate("P", list(st.gate.qubits), [math.pi / 8]),
                            st.bits, st.func, expr=st.expr)
        mutated.append(st)
    bad = CircuitSpec(qubits=spec.qubits, circuit=C.seq(*mutated),
                      fixed_init=dict(spec.fixed_init), inputs=(),
                      outputs=spec.outputs, output_bits=spec.output_bits)
    v, rep = check(B.pe(2, 0.25), bad, "m")
    assert v.status == "not-equivalent"
    assert v.witness
    assert not oracle_m_eq(B.pe(2, 0.25), bad)


def test_check_plans_agree():
    cases = [(B.qft(3), B.dyn_qft(3), "m"),
             (B.pe(3, 0.625), B.dyn_pe(3, 0.625), "m"),
             (B.teleport(), B.swap_teleport(), "q"),
             (B.bitflip_code("q2"), B.identity_on("q0"), "q"),
             (B.state_inject("S"), B.bare_gate("S"), "q")]
    for a, b, mode in cases:
        v1, _ = check(a, b, mode, plan="basic")
        v2, _ = check(a, b, mode, plan="partitioned")
        assert v1.status == v2.status == "equivalent"


def test_partitioned_equivalent_implies_basic_equivalent():
    rng = random.Random(31)
    for _ in range(20):
        mode = rng.choice(["m", "q"])
        a = B.random_dqc(rng, mode, n_qubits=3)
        b = B.rewrite(rng, a) if rng.random() < 0.5 else \
            next(B.mutations(a, rng))[1]
        vp, _ = check(a, b, mode, plan="partitioned")
        if vp.status == "equivalent":
            vb, _ = check(a, b, mode, plan="basic")
            assert vb.status == "equivalent"


def test_partitioned_keeps_pieces_joined_by_a_cut_wire():
    # the q1 pieces are identical, but A's q0 piece reads q1's input wire
    # through the CZ, so the q1 piece may not be discarded on its own
    head = "qubits q0 q1\noutbits c0\ninit q0=+\ninit q1=1\n"
    a = parse(head + "gate CZ q0 q1\ngate H q0\nmeasure q0 -> c0\n")
    b = parse(head + "gate CZ q0 q1\ngate Z q0\ngate H q0\nmeasure q0 -> c0\n")
    assert not oracle_m_eq(a, b)
    for plan in ("basic", "partitioned"):
        v, _ = check(a, b, "m", plan=plan)
        assert v.status == "not-equivalent", plan


@pytest.mark.parametrize("head", [
    "qubits q a\noutputs q\noutbits c\ninit a=0\ninit q=0\n",
    "qubits q a b\noutputs q\noutbits c\ninit a=0\ninit q=0\ninit b=+\n"
    "measure b -> d\n"], ids=["output-bit", "output-and-internal-bit"])
def test_q_mode_peels_output_bits(head):
    # q-mode peels every measured bit, an output bit too: a phase on the
    # qubit that c measures changes no post-measurement state of q
    a = parse(head + "gate H a\ngate P(0.3) a\nmeasure a -> c\n")
    b = parse(head + "gate H a\nmeasure a -> c\n")
    flipped = parse(head + "gate H a\ngate X q\nmeasure a -> c\n")
    assert oracle_q_eq(a, b) and not oracle_q_eq(a, flipped)
    for plan in ("basic", "partitioned"):
        assert check(a, a, "q", plan=plan)[0].status == "equivalent", plan
        assert check(a, b, "q", plan=plan)[0].status == "equivalent", plan
        assert check(a, flipped, "q", plan=plan)[0].status == "not-equivalent", plan


def injection_chain_text(rounds: int, drop: int | None = None) -> str:
    """``rounds`` T-state injections into q through the resource qubit a,
    each corrected by P(pi/2) under its bit and reset by X; round ``drop``
    loses its correction."""
    lines = ["qubits q a", "inputs q", "outputs q", "init a=0"]
    for k in range(rounds):
        lines += ["gate H a", f"gate P({math.pi / 4!r}) a", "gate CX q a",
                  f"measure a -> c{k}"]
        if k != drop:
            lines.append(f"ifc c{k} apply P({math.pi / 2!r}) q")
        lines.append(f"ifc c{k} apply X a")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("drop", [None, 5], ids=["whole", "one-correction-dropped"])
def test_both_plans_decide_a_long_injection_chain(drop):
    # q's per-qubit piece would keep a's wires open at all 14 CX gates, 30
    # open legs against the limit of 26; the circuit-order fold stays narrow
    a = parse(injection_chain_text(14, drop))
    bare = parse(f"qubits q\ninputs q\noutputs q\ngate P({14 * math.pi / 4!r}) q\n")
    want = "equivalent" if oracle_q_eq(a, bare) else "not-equivalent"
    assert want == ("equivalent" if drop is None else "not-equivalent")
    reports = {}
    for plan in ("basic", "partitioned"):
        v, reports[plan] = check(a, bare, "q", plan=plan)
        assert v.status == want, (plan, v)
    # every qubit meets a peel index, so the discard pass builds no piece
    assert reports["partitioned"].max_nodes == reports["basic"].max_nodes
    assert reports["partitioned"].tv is None


@pytest.mark.parametrize("plan,strict_q", [
    pytest.param(plan, strict, id=plan + ("-strict" if strict else ""))
    for strict in (False, True) for plan in ("basic", "partitioned")])
def test_verdict_agreement_with_oracle_random(plan, strict_q):
    rng = random.Random(37)
    for k in range(40):
        mode = "m" if k % 2 == 0 else "q"
        a = B.random_dqc(rng, mode)
        b = B.rewrite(rng, a) if k % 4 < 2 else next(B.mutations(a, rng))[1]
        v, _ = check(a, b, mode, plan=plan, strict_q=strict_q)
        assert v.status in ("equivalent", "not-equivalent")
        oracle = oracle_m_eq(a, b) if mode == "m" else oracle_q_eq(a, b)
        assert (v.status == "equivalent") == oracle, (k, mode)


@pytest.mark.parametrize("plan", ["basic", "partitioned"])
def test_outcome_mass_witness_replays_against_the_oracle(plan):
    # the witness is a full output record; its masses are the two circuits'
    # probabilities of that record, and tv their total-variation distance
    rng = random.Random(43)
    replayed = 0
    for _ in range(60):
        a = B.random_dqc(rng, "m", n_qubits=rng.randint(2, 5))
        b = next(B.mutations(a, rng), (None, None))[1]
        if b is None:
            continue
        v, report = check(a, b, "m", plan=plan)
        if v.status != "not-equivalent":
            continue
        (w,) = v.witness
        assert [name for name, _ in w["path"]] == \
            [f"outbit:{k}" for k in range(len(a.output_bits))]
        record = "".join(str(bit) for _, bit in w["path"])
        pa, pb = oracle.outcome_distribution(a), oracle.outcome_distribution(b)
        assert abs(pa.get(record, 0.0) - w["mass_a"]) <= 1e-9
        assert abs(pb.get(record, 0.0) - w["mass_b"]) <= 1e-9
        tv = 0.5 * sum(abs(pa.get(c, 0.0) - pb.get(c, 0.0)) for c in {*pa, *pb})
        assert w["tv"] == report.tv and abs(tv - report.tv) <= 1e-9
        replayed += 1
    assert replayed >= 10


def _random_expr(rng, bits, depth=2) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(bits)
    op = rng.choice("!&|^")
    if op == "!":
        return f"!({_random_expr(rng, bits, depth - 1)})"
    a, b = _random_expr(rng, bits, depth - 1), _random_expr(rng, bits, depth - 1)
    return f"({a}{op}{b})"


def _random_target_gate(rng) -> str:
    if rng.random() < 0.25:
        return rng.choice(["CX t0 t1", "CZ t0 t1", "CX t1 t0"])
    return f"{rng.choice(['X', 'Z', 'H', 'S', 'T'])} {rng.choice(['t0', 't1'])}"


def _control_pair(rng, mode):
    """A .dqc pair whose controls are random expressions over 2-4 bits.

    Lines are (template, expressions); ``%s`` slots take the expressions.
    After the measurements comes a dispatch with random, mostly
    non-factorable bodies or a run of ``ifc`` lines.  B re-renders A with
    every expression printed back from its BDD and every ``== k`` folded
    into it (same functions), with one expression redrawn, or with one
    controlled gate redrawn.
    """
    k = rng.randint(2, 4)
    anc = [f"a{i}" for i in range(k)]
    bits = [f"c{i}" for i in range(k)]
    lines = [("qubits " + " ".join(anc) + " t0 t1", [])]
    if mode == "m":
        outbits = ["r0", "r1"] + (bits if rng.random() < 0.5 else [])
        lines.append(("outbits " + " ".join(outbits), []))
        free = anc + ["t0", "t1"]
    else:
        ins = ["t0"] if rng.random() < 0.5 else []
        if ins:
            lines.append(("inputs t0", []))
        lines.append(("outputs t0 t1", []))
        free = [q for q in anc + ["t0", "t1"] if q not in ins]
    lines += [(f"init {q}={rng.choice('01+')}", []) for q in free]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            lines.append((f"gate CX {rng.choice(anc)} {rng.choice(['t0', 't1'])}", []))
        else:
            q = rng.choice(anc + ["t0", "t1"])
            lines.append((f"gate {rng.choice(['H', 'X', 'S', 'T'])} {q}", []))
    lines += [(f"measure {a} -> {c}", []) for a, c in zip(anc, bits)]
    subs = []
    if rng.random() < 0.5:
        t = rng.randint(1, 2)
        names = [f"s{i}" for i in range(1 << t)]
        table = " ".join(f"{i}: {n}" for i, n in enumerate(names))
        lines.append(("dispatch " + ", ".join(["%s"] * t) + f" {{ {table} }}",
                      [_random_expr(rng, bits) for _ in range(t)]))
        for n in names:
            subs.append((f"subcircuit {n} {{", []))
            subs += [(f"  gate {_random_target_gate(rng)}", [])
                     for _ in range(rng.randint(0, 3))]
            subs.append(("}", []))
    for _ in range(rng.randint(0 if subs else 1, 3)):
        cmp = rng.choice(["", " == 0", " == 1"])
        lines.append((f"ifc %s{cmp} apply {_random_target_gate(rng)}",
                       [_random_expr(rng, bits)]))
    if mode == "m":
        lines += [("measure t0 -> r0", []), ("measure t1 -> r1", [])]
    lines += subs

    def render(ls):
        return "\n".join(tpl % tuple(ex) for tpl, ex in ls) + "\n"

    roll = rng.random()
    slots = [i for i, (_, ex) in enumerate(lines) if ex]
    other = list(lines)
    if roll < 0.4:
        for i in slots:
            tpl, ex = other[i]
            printed = []
            for e in ex:
                used, f, _ = parse_expr(e)
                text = expr_from_func(used, f)
                printed.append(text if any(b in text for b in used) else f"!(!({e}))")
            if " == 0 " in tpl:     # the comparison becomes a negation
                tpl, printed = tpl.replace(" == 0", ""), [f"!({printed[0]})"]
            other[i] = (tpl.replace(" == 1", ""), printed)
    elif roll < 0.7:
        i = rng.choice(slots)
        tpl, ex = other[i]
        ex = list(ex)
        ex[rng.randrange(len(ex))] = _random_expr(rng, bits)
        other[i] = (tpl, ex)
    else:
        ifcs = [i for i in slots if other[i][0].startswith("ifc")]
        if ifcs:
            i = rng.choice(ifcs)
            tpl, ex = other[i]
            other[i] = (tpl.split(" apply ")[0] + f" apply {_random_target_gate(rng)}", ex)
    return render(lines), render(other)


@pytest.mark.parametrize("plan,strict_q", [
    pytest.param(plan, strict, id=plan + ("-strict" if strict else ""))
    for strict in (False, True) for plan in ("basic", "partitioned")])
def test_multi_bit_controls_agree_with_oracle(plan, strict_q):
    rng = random.Random(41)
    verdicts = set()
    for k in range(40):
        mode = "m" if k % 2 == 0 else "q"
        ta, tb = _control_pair(rng, mode)
        a, b = parse(ta), parse(tb)
        assert validate(a) == [] and validate(b) == [], ta
        v, _ = check(a, b, mode, plan=plan, strict_q=strict_q)
        oracle = oracle_m_eq(a, b) if mode == "m" else oracle_q_eq(a, b)
        assert v.status == ("equivalent" if oracle else "not-equivalent"), (k, ta, tb)
        verdicts.add((mode, v.status))
    assert len(verdicts) == 4      # both verdicts occur in both modes


def _body_ifc_pair(rng, mode):
    """A .dqc pair whose dispatch bodies mix ``gate`` and ``ifc`` lines.

    Bit ``e`` is measured before the dispatch and the body ``ifc`` lines
    read it along with the dispatch bits.  B writes the dispatch out by
    hand as top-level ``ifc`` lines (body i's gate under ``sel_i``, its
    ``ifc g`` under ``sel_i&(g)``), or is A with one body expression
    redrawn, one body gate redrawn or one body line dropped.
    """
    k = rng.randint(1, 3)
    anc = [f"a{i}" for i in range(k)]
    bits = [f"c{i}" for i in range(k)]
    head = ["qubits p " + " ".join(anc) + " t0 t1"]
    if mode == "m":
        head.append("outbits r0 r1" + (" e" if rng.random() < 0.5 else ""))
        free = ["p"] + anc + ["t0", "t1"]
    else:
        ins = ["t0"] if rng.random() < 0.5 else []
        if ins:
            head.append("inputs t0")
        head.append("outputs t0 t1")
        free = [q for q in ["p"] + anc + ["t0", "t1"] if q not in ins]
    # in m mode the measured qubits start in |+>, so every body can run
    head += [f"init {q}={'+' if mode == 'm' and q[0] in 'pa' else rng.choice('01+')}"
             for q in free]
    head.append("measure p -> e")
    for _ in range(rng.randint(1, 3)):     # the first gate ends e's measure run
        if rng.random() < 0.4:
            head.append(f"gate CX {rng.choice(['p'] + anc)} {rng.choice(['t0', 't1'])}")
        else:
            q = rng.choice(anc + ["t0", "t1"])
            head.append(f"gate {rng.choice(['H', 'X', 'S', 'T'])} {q}")
    head += [f"measure {a} -> {c}" for a, c in zip(anc, bits)]
    t = rng.randint(1, 2)
    exprs = [_random_expr(rng, bits) for _ in range(t)]
    # body lines are (expression or None, gate)
    bodies = [[(_random_expr(rng, bits + ["e"]) if rng.random() < 0.5 else None,
                _random_target_gate(rng)) for _ in range(rng.randint(0, 3))]
              for _ in range(1 << t)]
    # H before the readout lets a phase gate change the distribution
    tail = ["gate H t0", "gate H t1", "measure t0 -> r0", "measure t1 -> r1"] \
        if mode == "m" else []

    def dispatch(bodies):
        table = " ".join(f"{i}: s{i}" for i in range(1 << t))
        lines = [f"dispatch {', '.join(exprs)} {{ {table} }}"] + tail
        for i, body in enumerate(bodies):
            lines.append(f"subcircuit s{i} {{")
            lines += [f"  ifc {g} apply {u}" if g else f"  gate {u}" for g, u in body]
            lines.append("}")
        return lines

    def by_hand(bodies):
        lines = []
        for i, body in enumerate(bodies):
            sel = "&".join(f"({e})" if (i >> (t - 1 - b)) & 1 else f"!({e})"
                           for b, e in enumerate(exprs))
            lines += [f"ifc {sel}&({g}) apply {u}" if g else f"ifc {sel} apply {u}"
                      for g, u in body]
        return lines + tail

    def render(lines):
        return "\n".join(head + lines) + "\n"

    other = [list(body) for body in bodies]
    spots = [(i, j) for i, body in enumerate(bodies) for j in range(len(body))]
    roll = rng.random()
    if roll < 0.4 or not spots:
        return render(dispatch(bodies)), render(by_hand(bodies))
    i, j = rng.choice(spots)
    g, u = other[i][j]
    if roll < 0.6 and g:
        other[i][j] = (_random_expr(rng, bits + ["e"]), u)
    elif roll < 0.8:
        other[i][j] = (g, _random_target_gate(rng))
    else:
        del other[i][j]
    return render(dispatch(bodies)), render(dispatch(other))


@pytest.mark.parametrize("plan,strict_q", [
    pytest.param(plan, strict, id=plan + ("-strict" if strict else ""))
    for strict in (False, True) for plan in ("basic", "partitioned")])
def test_body_controls_agree_with_oracle(plan, strict_q):
    rng = random.Random(43)
    verdicts = set()
    for k in range(40):
        mode = "m" if k % 2 == 0 else "q"
        ta, tb = _body_ifc_pair(rng, mode)
        a, b = parse(ta), parse(tb)
        assert validate(a) == [] and validate(b) == [], ta
        v, _ = check(a, b, mode, plan=plan, strict_q=strict_q)
        oracle = oracle_m_eq(a, b) if mode == "m" else oracle_q_eq(a, b)
        assert v.status == ("equivalent" if oracle else "not-equivalent"), (k, ta, tb)
        verdicts.add((mode, v.status))
    assert len(verdicts) == 4      # both verdicts occur in both modes


def test_check_rejects_eps_outside_unit_interval():
    a = parse("qubits q\noutbits c0\ninit q=0\nmeasure q -> c0\n")
    b = parse("qubits q\noutbits c0\ninit q=0\ngate X q\nmeasure q -> c0\n")
    for plan in ("basic", "partitioned"):
        assert check(a, b, "m", plan=plan)[0].status == "not-equivalent"
    for eps in (math.inf, math.nan, -1.0, 1.0):
        with pytest.raises(ValueError):
            check(a, b, "m", eps=eps)


def test_check_incompatible_interfaces_inconclusive():
    v, _ = check(B.teleport(), B.identity_on("q0"), "q")
    assert v.status == "inconclusive"


def test_m_eq_uniform_split_on_absent_index():
    m = meas_mgr(2, 1)
    legs = [m.index("c0"), m.index("c1"), m.index("x0")]
    # tensor ignores c1: its mass splits evenly
    amps = np.zeros((2, 2, 2))
    amps[0, :, 0] = 1.0
    amps[1, :, 1] = 1.0
    t = m.from_dense(amps / np.sqrt(4.0), legs)
    masses = record_masses(m, t, {m.index("c0"), m.index("c1")})
    assert all(abs(v - 0.25) < 1e-9 for v in masses.values())
    # the same split made explicit: c1 steers x0, every record keeps 1/4
    split = np.zeros((2, 2, 2))
    split[:, 0, 0] = split[:, 1, 1] = 0.5
    u = m.from_dense(split, legs)
    assert not m.identical(t, u)
    assert m_eq(m, t, u, legs[:2])
    lopsided = np.zeros((2, 2, 2))
    lopsided[:, 0, 0] = np.sqrt(0.5)
    assert not m_eq(m, t, m.from_dense(lopsided, legs), legs[:2])


_ROOTS = """
import json
from tddeq import benchmarks
from tddeq.encode import evaluate, prepare
from tddeq.equivalence import check
out = []
for n, bits in %r:
    a, b = benchmarks.qft(n, bits), benchmarks.dyn_qft(n, bits)
    mgr, nets = prepare([a, b], mode="m")
    weights = [evaluate(mgr, net).tdd.root.weight for net in nets]
    out.append([[w.real.hex(), w.imag.hex()] for w in weights]
               + [check(a, b, "m")[1].tv.hex()])
print(json.dumps(out))
"""


def test_root_weights_do_not_depend_on_the_hash_seed():
    # operand pairs are ordered by node creation, not by address, so the
    # float bits of every compiled root weight repeat from run to run
    cases = [(8, "11++0100"), (9, "0001++101"), (10, "0+0+101101"),
             (11, "10+11+01110"), (12, "11+0+0011000")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _ROOTS % (cases,)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1] == runs[2]
