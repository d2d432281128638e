"""Diagram-based equivalence decision procedures.

Both deciders rest on one walk, ``_peel``: it branches on the measurement
indices from the root down, visits each measurement node once and yields the
residual sub-diagrams below them; a residual that outranks a measurement
index raises ``IndexOrderError``.

``m_eq`` weighs each record c of the measurement indices with its mass
P(c) = sum_x |t(c, x)|^2 and walks the two diagrams jointly, pair of nodes
by pair of nodes, in plain floats: the diagrams are m-equivalent when the
total-variation distance 1/2 sum_c |P_a(c) - P_b(c)| is at most ``eps``,
whatever the width of the register.  ``q_eq`` succeeds when every
residual of both diagrams is one and the same canonical node,
i.e. the post-measurement state does not depend on the outcomes and agrees
across the circuits; ``get_nodes`` exposes the residual set.

``check`` drives the whole pipeline for a pair of circuit specs: a discard
pass, then one compile of both in circuit order, then decide.  The pass
groups the qubits into components that share no index in either circuit,
and leaves out of that one compile every component free of peel indices
whose entries are the same canonical tensors in both circuits; it
contracts nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import frexp, inf, ldexp

from .circuits import CircuitSpec, Verdict, validate
from .encode import CompileError, CompileScaleError, _entry_tensor, evaluate, prepare
from .tdd import DEFAULT_EPS, Tdd, TddEdge, TddError, TddManager, wkey


class IndexOrderError(Exception):
    """Measurement indices are not on top of the compared diagrams."""


def _peel(mgr: TddManager, t: Tdd, m_set):
    """One walk over the measurement nodes of ``t``.

    Returns a map of every sub-diagram root reached by branching on
    ``m_set`` indices to its first path in low-before-high order, a list of
    ``(index name, bit)``.  Zero-weight edges (impossible outcomes) are
    skipped.  An explicit stack visits each measurement node once, so the
    cost is linear in the diagram, not in the number of paths.  A residual
    outranking ``m_set`` raises ``IndexOrderError``.
    """
    floor = min((i.rank for i in m_set), default=inf)
    residuals: dict = {}
    seen = set()                     # measurement nodes visited
    stack = [(t.root, ())] if t.root is not mgr.zero else []
    while stack:
        edge, path = stack.pop()
        node = edge.node
        if node is mgr.terminal or node.index not in m_set:
            if node.rank > floor:
                raise IndexOrderError(
                    f"index {node.index!r} outranks measurement index set")
            residuals.setdefault(node, list(path))
        elif node not in seen:
            seen.add(node)
            name = node.index.name
            for bit, child in ((1, node.high), (0, node.low)):
                if child is not mgr.zero:
                    stack.append((child, path + ((name, bit),)))
    return residuals


def _distance(mgr: TddManager, t1: Tdd, t2: Tdd, m_set, witness: list | None) -> float:
    """Total-variation distance of the outcome distributions of two diagrams.

    A record c of ``m_set`` has mass P(c) = sum_x |t(c, x)|^2 over the
    diagram's own other indices.  A walk down finds the pairs of nodes of
    the two diagrams, each with the weights x, y of its masses; a fold back
    up sums |x P_a - y P_b| in plain floats (an index both nodes skip
    doubles it), so the distance resolves far below ``GRID``.  Pairs whose
    ratios x/y agree to 46 bits share one value, which moves the sum by at
    most 2^-46 of the masses per index.  Unless the roots are one node of
    one magnitude, ``witness`` receives an ``outcome-mass`` record: ``tv``,
    the ``path`` of largest mass difference over every ``m_set`` index in
    rank order (ties go low) and both masses.
    """
    if t1.root.node is t2.root.node and abs(t1.root.weight) == abs(t2.root.weight):
        return 0.0
    order = sorted(m_set, key=lambda i: i.rank)
    level = {i: k for k, i in enumerate(order, 1)}
    mass_a, mass_b = (mgr.norms(_peel(mgr, t, m_set), [i for i in t.indices if i not in m_set])
                      for t in (t1, t2))

    def children(na, nb, x, y):
        """The pair's level and the two pairs below it, low first."""
        k = max(level.get(na.index, 0), level.get(nb.index, 0))
        if k == 0:
            return 0, []
        ends = [[(1.0, n)] * 2 if level.get(n.index, 0) < k else
                [(abs(e.weight) ** 2, e.node) for e in (n.low, n.high)] for n in (na, nb)]
        return k, [(ca, cb, x * wa, y * wb) for (wa, ca), (wb, cb) in zip(*ends)]

    def key(pair):
        """Memo key of a pair and its larger weight; None when both are zero."""
        na, nb, x, y = pair
        s = max(x, y)
        if s == 0.0:
            return None, s
        m, e = frexp(min(x, y) / s)
        return (na, nb, x < y, e, round(m * 0x400000000000)), s

    root = (t1.root.node, t2.root.node, abs(t1.root.weight) ** 2, abs(t2.root.weight) ** 2)
    rk, rs = key(root)
    value = {None: (0.0, 0.0, 0)}     # key -> sum, peak and level of |x P_a - y P_b|
    below = {None: (0, [])}           # key -> level and the keys of the pairs below
    todo = [(rk, root, rs)]
    for k, (na, nb, x, y), s in todo:   # walk down: each key once, in units of s
        if k in below:
            continue
        lvl, kids = children(na, nb, x / s, y / s)
        below[k] = (lvl, [key(c) for c in kids])
        todo += [(ck, c, cs) for (ck, cs), c in zip(below[k][1], kids)]
        if lvl == 0:
            d = abs((x and x / s * mass_a[na]) - (y and y / s * mass_b[nb]))
            value[k] = (d, d, 0)

    def known(k, s):
        total, peak, lvl = value[k]
        return s * total, s * peak, lvl

    for k, (lvl, sub) in sorted(below.items(), key=lambda kv: kv[1][0]):
        if lvl:                       # fold back up, lowest level first
            ends = [known(*c) for c in sub]
            value[k] = (sum(ldexp(t, lvl - 1 - cl) for t, _, cl in ends),
                        max(p for _, p, _ in ends), lvl)
    total, _, lvl = known(rk, rs)
    tv = ldexp(total, len(order) - lvl - 1)
    if witness is not None:
        # follow the walk's own keys: a key formed again from these
        # unscaled weights can round to one the walk never stored
        path, (na, nb, x, y), k = [], root, rk
        for i in reversed(order):
            lvl, kids = children(na, nb, x, y)
            bit = 0
            if lvl == level[i]:
                sub = below[k][1]
                bit = int(known(*sub[1])[1] > known(*sub[0])[1])
                (na, nb, x, y), k = kids[bit], sub[bit][0]
            path.append((i.name, bit))
        witness.append({"kind": "outcome-mass", "path": path, "tv": tv,
                        "mass_a": x and x * mass_a[na], "mass_b": y and y * mass_b[nb]})
    return tv


def m_eq(mgr: TddManager, t1: Tdd, t2: Tdd, m_set, eps: float = DEFAULT_EPS,
         witness: list | None = None) -> bool:
    """Equal outcome distributions over ``m_set``, to total variation ``eps``.

    The ``m_set`` indices must outrank every other index of either diagram;
    ``witness`` is filled as ``_distance`` describes."""
    return _distance(mgr, t1, t2, set(m_set), witness) <= eps


def get_nodes(mgr: TddManager, t: Tdd, m_set) -> set:
    """Sub-diagram roots reached by branching on measurement indices, past
    no zero-weight edge (an impossible outcome leaves no residual)."""
    return set(_peel(mgr, t, set(m_set)))


def q_eq(mgr: TddManager, t1: Tdd, t2: Tdd, m_set, witness: list | None = None) -> bool:
    """Outcome-independence with a shared residual diagram.

    Every residual of both diagrams must be one and the same canonical
    node: each reachable branch map is then proportional to one common map,
    which is q-equivalence.  Each diagram is walked once.
    """
    m_set = set(m_set)
    exemplars: dict = {}
    for t in (t1, t2):
        for node, path in _peel(mgr, t, m_set).items():
            exemplars.setdefault(node, path)
    if len(exemplars) == 1:
        return True
    if witness is not None:
        witness.append({"kind": "residual-nodes", "count": len(exemplars),
                        "paths": list(exemplars.values())[:2]})
    return False


# -- the check driver ----------------------------------------------------------


@dataclass
class CheckReport:
    mode: str = "m"
    verdict: Verdict = None
    tdd_time: float = 0.0
    total_time: float = 0.0
    final_nodes: int = 0
    max_nodes: int = 0
    discarded: int = 0
    fallback: bool = False
    tv: float | None = None   # m-mode total-variation distance, else None


def check(spec_a: CircuitSpec, spec_b: CircuitSpec, mode: str,
          plan: str | None = None, *, eps: float | None = None):
    """Full pipeline: validate, compile both sides, decide equivalence.

    Both circuits are compiled as specified, fixed initial states included,
    in the grouped index order.  Returns (Verdict, CheckReport).  Every
    check first discards each group of qubits that shares no index with the
    rest and whose entries are identical in both circuits (in q-mode, only
    groups without peel indices), then compiles and compares the rest.  A
    NotEquivalent after a discard is re-checked with nothing discarded
    before it is reported.  ``plan`` is accepted and ignored: it selected
    the discard pass before every check ran it.  In m-mode ``eps`` (default
    ``DEFAULT_EPS``) bounds the total-variation distance of the two outcome
    distributions, reported as ``CheckReport.tv``; it must satisfy
    ``0 <= eps < 1``.  An ``eps`` outside that range and a ``mode`` other
    than ``"m"`` or ``"q"`` raise ``ValueError``.
    """
    eps = valid_eps(DEFAULT_EPS if eps is None else eps)
    if mode not in ("m", "q"):
        raise ValueError(f"unknown mode {mode!r}")
    t_start = time.perf_counter()
    report = CheckReport(mode=mode)
    errs = [f"a: {e}" for e in validate(spec_a)] + \
           [f"b: {e}" for e in validate(spec_b)]
    if not errs:
        errs += _compatible(spec_a, spec_b, mode)
    if errs:
        report.verdict = Verdict.inconclusive("; ".join(errs))
        report.total_time = time.perf_counter() - t_start
        return report.verdict, report
    try:
        verdict = _check(spec_a, spec_b, mode, eps, report)
    except (CompileScaleError, CompileError, IndexOrderError, TddError) as exc:
        verdict = Verdict.inconclusive(str(exc))
    except (RecursionError, MemoryError) as exc:
        verdict = Verdict.inconclusive(f"engine error: {type(exc).__name__}")
    report.verdict = verdict
    report.total_time = time.perf_counter() - t_start
    return verdict, report


def valid_eps(eps: float) -> float:
    """``eps`` itself if it is a usable distance bound, ``0 <= eps < 1``."""
    if not 0.0 <= eps < 1.0:      # also false for nan
        raise ValueError(f"eps must satisfy 0 <= eps < 1, got {eps!r}")
    return eps


def _compatible(a: CircuitSpec, b: CircuitSpec, mode: str) -> list[str]:
    errs = []
    if a.inputs != b.inputs:
        errs.append("principal inputs differ")
    if a.outputs != b.outputs and mode == "q":
        errs.append("principal outputs differ")
    if len(a.output_bits) != len(b.output_bits):
        errs.append("output bit counts differ")
    if mode == "m" and not a.output_bits:
        errs.append("m-mode check needs output bits")
    return errs


def _decide(mgr, nets, ta, tb, mode, eps, witness, report) -> bool:
    if mode == "m":
        report.tv = _distance(mgr, ta, tb, {mgr.index(n) for n in nets[0].m_set}, witness)
        return report.tv <= eps
    peel = {mgr.index(n) for n in nets[0].peel_set | nets[1].peel_set}
    return q_eq(mgr, ta, tb, peel, witness)


def _check(spec_a, spec_b, mode, eps, report) -> Verdict:
    mgr, nets = prepare([spec_a, spec_b], mode=mode)
    skip = _discards(mgr, nets, report)
    while True:
        ra = evaluate(mgr, nets[0], skip)
        rb = evaluate(mgr, nets[1], skip)
        for s in (ra.stats, rb.stats):
            report.tdd_time += s.tdd_time
            report.final_nodes = max(report.final_nodes, s.final_nodes)
            report.max_nodes = max(report.max_nodes, s.max_nodes)
        witness: list = []
        if _decide(mgr, nets, ra.tdd, rb.tdd, mode, eps, witness, report):
            return Verdict.equivalent()
        if not skip:
            return Verdict.not_equivalent(witness)
        # discarding is only justified in the equivalent direction: confirm
        # any failure with nothing discarded
        report.fallback = True
        skip = set()


def _discards(mgr, nets, report) -> set[str]:
    """Qubits of the components whose entries are identical in both circuits.

    A component is a group of qubits such that no index joins two groups,
    in A or in B, so each diagram is the product of the component's factor
    and the rest's.  A component whose entries name a peel index (q-mode
    outcomes and discards) always stays.  Any other is dropped when its
    entries' keys, (legs, root node, root weight on the grid) as
    ``mgr.identical`` compares diagrams, are one multiset in both circuits:
    equal factors give equal products, so nothing is contracted.
    """
    parent = {e.partition: e.partition for net in nets for e in net.entries}

    def find(q):
        while parent[q] != q:
            q = parent[q]
        return q

    for net in nets:
        owner: dict[str, str] = {}
        for e in net.entries:
            for n in e.indices:
                parent[find(e.partition)] = find(owner.setdefault(n, e.partition))
    root = {q: find(q) for q in parent}
    peel = nets[0].peel_set | nets[1].peel_set
    peeled = {root[e.partition] for net in nets for e in net.entries
              if not peel.isdisjoint(e.indices)}
    t0 = time.perf_counter()
    keys = {r: (Counter(), Counter()) for r in set(root.values()) - peeled}
    for side, net in enumerate(nets):
        for e in net.entries:
            comp = keys.get(root[e.partition])
            if comp is not None:
                t = _entry_tensor(mgr, e)
                comp[side][t.indices, t.root.node, wkey(t.root.weight)] += 1
    report.tdd_time += time.perf_counter() - t0
    same = {r for r, (a, b) in keys.items() if a == b}
    dropped = {q for q, r in root.items() if r in same}
    report.discarded = len(dropped)
    return dropped
