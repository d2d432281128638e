"""Every check runs the identical-component discard pass.

The components whose entries are identical in both circuits, and free of
peel indices, are left out of the compile, and a ``not-equivalent`` found
after a discard is re-checked with nothing discarded.  These tests hold
that path to the dense oracle, to the undiscarded compile of the same
netlists, to the contracted product of the entries it drops, and to the
per-qubit piece rule it replaced.
"""

import random

from tddeq import benchmarks as B
from tddeq.circuits import CircuitSpec, Conventional, steps_of, validate
from tddeq.encode import (CompileStats, _count_uses, _entry_tensor, _fold,
                          contract_all, evaluate, prepare)
from tddeq.equivalence import CheckReport, _decide, _discards, check
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.tdd import DEFAULT_EPS
from tddeq.textfmt import parse

N_PAIRS = 600


def _pairs(seed: int, count: int):
    """(mode, a, b): criterion 3's mix of random circuits, each against a
    rewrite or a mutation of itself, m and q mode in turn."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        mode = "m" if made % 2 == 0 else "q"
        base = B.random_dqc(rng, mode)
        if made % 4 < 2:
            other = B.rewrite(rng, base)
        else:
            other = next(B.mutations(base, rng), (None, None))[1]
        if other is None or validate(other):
            continue
        made += 1
        yield mode, base, other


def _undiscarded(a, b, mode) -> bool:
    """The verdict of the compile with nothing skipped."""
    mgr, nets = prepare([a, b], mode=mode)
    ta, tb = (evaluate(mgr, net).tdd for net in nets)
    return _decide(mgr, nets, ta, tb, mode, DEFAULT_EPS, [], CheckReport(mode=mode))


def _dropped_products(a, b, mode):
    """The qubits the pass drops, and the product of their entries in A
    and in B, each contracted by the one loop on its own side."""
    mgr, nets = prepare([a, b], mode=mode)
    dropped = _discards(mgr, nets, CheckReport(mode=mode))
    products = []
    for net in nets:
        entries = [e for e in net.entries if e.partition in dropped]
        factors = [(_entry_tensor(mgr, e), e.indices) for e in entries]
        products.append(contract_all(mgr, factors, _count_uses(entries),
                                     net.open_names, CompileStats(), 26))
    return mgr, dropped, products


def _components(nets) -> list[set[str]]:
    """Groups of qubits joined by the indices their entries hold, in A or B."""
    links = {e.partition: {e.partition} for net in nets for e in net.entries}
    for net in nets:
        holders: dict[str, set[str]] = {}
        for e in net.entries:
            for n in e.indices:
                holders.setdefault(n, set()).add(e.partition)
        for qubits in holders.values():
            for q in qubits:
                links[q] |= qubits
    comps, seen = [], set()
    for q in links:
        if q in seen:
            continue
        comp, todo = set(), [q]
        while todo:
            x = todo.pop()
            if x not in comp:
                comp.add(x)
                todo += links[x]
        seen |= comp
        comps.append(comp)
    return comps


def _piece_rule(mgr, nets) -> set[str]:
    """The qubits the per-qubit piece rule drops: every qubit of each
    component free of peel indices whose per-qubit pieces are identical in
    both circuits.  A piece folds a qubit's entries and keeps open its cut
    indices, the ones another qubit's entries also hold."""
    pieces = []
    for net in nets:
        uses = _count_uses(net.entries)
        groups: dict[str, list] = {}
        for e in net.entries:
            groups.setdefault(e.partition, []).append(e)
        pieces.append({q: _fold(mgr, g, net, CompileStats(), 26, uses.copy())
                       for q, g in groups.items()})
    peel = nets[0].peel_set | nets[1].peel_set
    peeled = {e.partition for net in nets for e in net.entries if peel & set(e.indices)}
    pa, pb = pieces
    return {q for comp in _components(nets) if not comp & peeled
            and all(x in pa and x in pb and mgr.identical(pa[x], pb[x]) for x in comp)
            for q in comp}


def test_one_path_agrees_with_oracle_and_reference():
    discarded = fallbacks = 0
    for k, (mode, a, b) in enumerate(_pairs(2911, N_PAIRS)):
        v, rep = check(a, b, mode)
        same = oracle_m_eq(a, b) if mode == "m" else oracle_q_eq(a, b)
        assert v.status == ("equivalent" if same else "not-equivalent"), (k, mode)
        assert _undiscarded(a, b, mode) == same, (k, mode)
        if rep.discarded:
            # what the pass drops contracts to one diagram on both sides
            mgr, dropped, (ta, tb) = _dropped_products(a, b, mode)
            assert len(dropped) == rep.discarded and mgr.identical(ta, tb), (k, mode)
            discarded += 1
        fallbacks += rep.fallback
    # the mix exercises both the discard and its fallback
    assert discarded >= N_PAIRS // 10 and fallbacks > 0, (discarded, fallbacks)


def _open_qft(n: int, drop: int | None = None) -> CircuitSpec:
    """QFT on n open inputs, without its measurements, as a q-mode channel;
    ``drop`` leaves out that gate."""
    gates = steps_of(B.qft(n).circuit)[0].gates
    if drop is not None:
        assert gates[drop].name == "CP"
        gates = gates[:drop] + gates[drop + 1:]
    qs = tuple(f"q{k}" for k in range(n))
    return CircuitSpec(qubits=qs, circuit=Conventional(gates), inputs=qs, outputs=qs)


def test_open_input_qft_self_check_is_decided_from_pieces():
    n = 12
    a = _open_qft(n)
    v, rep = check(a, a, "q")
    assert v.status == "equivalent" and rep.discarded == n, v
    # every qubit is dropped from its entries, so nothing is contracted
    assert rep.max_nodes == 1, rep.max_nodes
    v, rep = check(a, _open_qft(n, drop=5), "q")
    assert v.status == "not-equivalent", v


def test_qft_pairs_skip_no_identical_component():
    # the QFT against its semiclassical form on random {0,1,+} inputs: the
    # pass drops exactly the qubits the per-qubit piece rule drops
    rng = random.Random(1411)
    discarded = 0
    for _ in range(40):
        n = rng.randint(3, 9)
        pair = B.qft_pair(n, "".join(rng.choice("01+") for _ in range(n)))
        mgr, nets = prepare([pair.spec_a, pair.spec_b], mode="m")
        dropped = _discards(mgr, nets, CheckReport(mode="m"))
        assert dropped == _piece_rule(mgr, nets), pair.name
        v, rep = check(pair.spec_a, pair.spec_b, "m")
        assert v.status == "equivalent", (pair.name, v)
        discarded += rep.discarded
    assert discarded >= 40, discarded


def test_entries_are_matched_whatever_qubit_owns_them():
    # the qubit order differs, so an entry's owning qubit differs between
    # the circuits; each component's entries are still one multiset
    body = ("outbits ca cb cc\ninit a=+\ninit b=0\ninit c=+\n"
            "gate CX a b\ngate T b\ngate CZ c b\n"
            "measure a -> ca\nmeasure b -> cb\nmeasure c -> cc\n")
    a, b = parse("qubits a b c\n" + body), parse("qubits c b a\n" + body)
    assert oracle_m_eq(a, b)
    v, rep = check(a, b, "m")
    assert v.status == "equivalent", v
    assert (rep.discarded, rep.max_nodes, rep.fallback) == (3, 1, False)
