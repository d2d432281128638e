"""Every check runs the identical-component discard pass.

The components of per-qubit pieces that are identical in both circuits, and
free of peel indices, are left out of the compile, and a ``not-equivalent``
found after a discard is re-checked with nothing discarded.  These tests
hold that path to the dense oracle and to the undiscarded compile of the
same netlists, and hold the cut-index precondition, which decides which
pieces are built, to the pieces it skips.
"""

import random

from tddeq import benchmarks as B
from tddeq.circuits import CircuitSpec, Conventional, steps_of, validate
from tddeq.encode import CompileScaleError, CompileStats, evaluate, evaluate_pieces, prepare
from tddeq.equivalence import CheckReport, _components, _decide, check
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.tdd import DEFAULT_EPS

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


def _skipped_pieces_differ(a, b, mode) -> bool:
    """No component free of peel indices that ``_components`` leaves out
    has identical pieces in both circuits.  The components are found here
    by joining the qubits whose entries hold a common index."""
    mgr, nets = prepare([a, b], mode=mode)
    links = {e.partition: {e.partition} for net in nets for e in net.entries}
    for net in nets:
        holders: dict[str, set[str]] = {}
        for e in net.entries:
            for n in e.indices:
                holders.setdefault(n, set()).add(e.partition)
        for qubits in holders.values():
            for q in qubits:
                links[q] |= qubits
    peel = nets[0].peel_set | nets[1].peel_set
    peeled = {e.partition for net in nets for e in net.entries if peel & set(e.indices)}
    kept = {frozenset(c) for c in _components(nets)}
    skipped, seen = [], set()
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
        if not comp & peeled and frozenset(comp) not in kept:
            skipped.append(comp)
    if not skipped:
        return True
    stats = CompileStats()
    try:
        pa, pb = (evaluate_pieces(mgr, net, stats, set().union(*skipped)) for net in nets)
    except CompileScaleError:     # too wide to discard whatever the netlists say
        return True
    return stats.wide or not any(
        all(q in pa and q in pb and mgr.identical(pa[q], pb[q]) for q in comp)
        for comp in skipped)


def test_one_path_agrees_with_oracle_and_reference():
    discarded = fallbacks = 0
    for k, (mode, a, b) in enumerate(_pairs(2911, N_PAIRS)):
        v, rep = check(a, b, mode)
        same = oracle_m_eq(a, b) if mode == "m" else oracle_q_eq(a, b)
        assert v.status == ("equivalent" if same else "not-equivalent"), (k, mode)
        assert _undiscarded(a, b, mode) == same, (k, mode)
        assert _skipped_pieces_differ(a, b, mode), (k, mode)
        discarded += rep.discarded > 0
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
    assert rep.max_nodes <= 2 * n, rep.max_nodes
    v, rep = check(a, _open_qft(n, drop=5), "q")
    assert v.status == "not-equivalent", v


def test_qft_pairs_skip_no_identical_component():
    # the QFT against its semiclassical form on random {0,1,+} inputs: the
    # precondition leaves out no component whose pieces agree
    rng = random.Random(1411)
    discarded = 0
    for _ in range(40):
        n = rng.randint(3, 9)
        pair = B.qft_pair(n, "".join(rng.choice("01+") for _ in range(n)))
        assert _skipped_pieces_differ(pair.spec_a, pair.spec_b, "m"), pair.name
        v, rep = check(pair.spec_a, pair.spec_b, "m")
        assert v.status == "equivalent", (pair.name, v)
        discarded += rep.discarded
    assert discarded >= 40, discarded
