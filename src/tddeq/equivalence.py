"""Diagram-based equivalence decision procedures.

``m_eq`` compares measurement-outcome probability masses: identical diagrams
are equal; at a measurement index both diagrams split into their outcome
branches with the accumulated weight's magnitude; below all measurement
indices the masses are the diagram norms.  ``q_eq`` peels measurement
indices off both diagrams and succeeds when every reachable residual
sub-diagram is one and the same canonical node, i.e. the post-measurement
state does not depend on the outcomes and agrees across the circuits.  One
iterative walk per diagram (``_peel``) yields the residual nodes, their
first measurement paths and the extreme path magnitudes; ``get_nodes``
exposes the residual set.

``check`` drives the whole pipeline for a pair of circuit specs, with a
basic plan (compile both, compare) and a partitioned plan.  The partitioned
plan compiles per-qubit pieces, groups them into components that share no
index in either circuit, discards the components that are identical in both
and compares the contracted remainder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuits import CircuitSpec, Verdict, validate
from .encode import (CompileError, CompileScaleError, CompileStats,
                     contract_pieces, evaluate, evaluate_pieces, prepare)
from .tdd import DEFAULT_EPS, ZERO_KEY, Tdd, TddEdge, TddError, TddManager


class IndexOrderError(Exception):
    """Measurement indices are not on top of the compared diagrams."""


# m_eq compares per-record masses, and past 2^26 records they may fall
# below eps
MAX_OUTPUT_BITS = 26


def _check_top(mgr: TddManager, tdds, m_set) -> None:
    if not m_set:
        return
    floor = min(x.rank for x in m_set)
    stack = [t.root.node for t in tdds]
    seen = set()
    while stack:
        node = stack.pop()
        if node.rank <= floor or node in seen:
            continue
        if node.index not in m_set:
            raise IndexOrderError(
                f"index {node.index!r} outranks measurement index set")
        seen.add(node)
        stack += (node.low.node, node.high.node)


def m_eq(mgr: TddManager, t1: Tdd, t2: Tdd, m_set, eps: float = DEFAULT_EPS,
         witness: list | None = None) -> bool:
    """Measurement-distribution equality of two compiled diagrams.

    ``m_set`` holds the designated measurement indices; they must outrank
    every other index occurring in either diagram.  Each diagram's masses
    sum over its own indices only.
    """
    if mgr.identical(t1, t2):
        return True
    m_set = set(m_set)
    _check_top(mgr, (t1, t2), m_set)
    below = tuple(tuple(sorted(t.indices, key=lambda i: -i.rank)) for t in (t1, t2))
    return _m_eq(mgr, t1.root, t2.root, m_set, below, eps, witness, (), set())


def _m_eq(mgr, e1: TddEdge, e2: TddEdge, m_set, below, eps, witness, path,
          done: set) -> bool:
    # ``done`` holds the comparisons that held; a False ends the whole walk
    key = (e1, e2, len(below[0]), len(below[1]))    # below is a suffix
    if key in done or e1.node is e2.node and mgr.weights_equal(e1.weight, e2.weight):
        return True
    r1, r2 = e1.node.rank, e2.node.rank
    top = max(r1, r2)
    top_idx = mgr.index_at_rank(top) if top else None
    if top_idx is None or top_idx not in m_set:
        n1, n2 = (mgr.norm_edge(e, tuple(i for i in b if i.rank <= top or i not in m_set))
                  for e, b in zip((e1, e2), below))
        if abs(n1 - n2) <= eps:
            done.add(key)
            return True
        if witness is not None:
            witness.append({"kind": "outcome-mass", "path": list(path),
                            "mass_a": n1, "mass_b": n2})
        return False
    rest = tuple(tuple(i for i in b if i.rank < top) for b in below)
    sides = []
    for e in (e1, e2):
        if e.node.rank == top:
            w = abs(e.weight)
            lo = TddEdge(w * e.node.low.weight, e.node.low.node)
            hi = TddEdge(w * e.node.high.weight, e.node.high.node)
        else:
            lo = hi = e
        sides.append((lo, hi))
    (l1, h1), (l2, h2) = sides
    ok = (_m_eq(mgr, l1, l2, m_set, rest, eps, witness, path + ((top_idx.name, 0),), done)
          and _m_eq(mgr, h1, h2, m_set, rest, eps, witness, path + ((top_idx.name, 1),), done))
    if ok:
        done.add(key)
    return ok


def _peel(mgr: TddManager, t: Tdd, m_set):
    """One walk over the measurement nodes of ``t``.

    Returns ``(residuals, lo, hi)``: ``residuals`` maps every sub-diagram
    root reached by branching on ``m_set`` indices to its first path in
    low-before-high order, a list of ``(index name, bit)``; ``lo`` and ``hi``
    are the least and greatest magnitude of the weight accumulated along a
    path.  Zero-weight edges (impossible outcomes) are skipped.  The walk
    keeps an explicit stack and visits each measurement node once, so its
    cost is linear in the diagram, not in the number of paths.
    """
    def live(e: TddEdge) -> bool:
        return mgr.wkey(e.weight) != ZERO_KEY

    residuals: dict = {}
    seen = set()                     # measurement nodes visited
    stack = [(t.root, ())] if live(t.root) else []
    while stack:
        edge, path = stack.pop()
        node = edge.node
        if node is mgr.terminal or node.index not in m_set:
            residuals.setdefault(node, list(path))
        elif node not in seen:
            seen.add(node)
            name = node.index.name
            for bit, child in ((1, node.high), (0, node.low)):
                if live(child):
                    stack.append((child, path + ((name, bit),)))
    # least and greatest path magnitude below each node, children first
    lo: dict = {}
    hi: dict = {}
    for node in sorted(seen, key=lambda n: n.rank):
        ends = [(abs(e.weight), e.node) for e in (node.low, node.high) if live(e)]
        lo[node] = min(w * lo.get(n, 1.0) for w, n in ends)
        hi[node] = max(w * hi.get(n, 1.0) for w, n in ends)
    w = abs(t.root.weight)            # 0.0 when no path is live
    return residuals, w * lo.get(t.root.node, 1.0), w * hi.get(t.root.node, 1.0)


def get_nodes(mgr: TddManager, t: Tdd, m_set) -> set:
    """Sub-diagram roots reached by branching on measurement indices.

    Zero-weight edges (impossible outcomes) are skipped so that the
    unreachable zero node cannot spuriously break the singleton test.
    """
    return set(_peel(mgr, t, set(m_set))[0])


def q_eq(mgr: TddManager, t1: Tdd, t2: Tdd, m_set, strict: bool = False,
         eps: float = DEFAULT_EPS, witness: list | None = None) -> bool:
    """Outcome-independence with a shared residual diagram.

    Literal mode collects residual nodes only.  Strict mode additionally
    requires all nonzero peel paths within each diagram to carry weights of
    one magnitude (uniform branch amplitudes), a stronger diagnostic than
    the definition itself demands.  Each diagram is walked once.
    """
    m_set = set(m_set)
    _check_top(mgr, (t1, t2), m_set)
    walks = [_peel(mgr, t, m_set) for t in (t1, t2)]
    exemplars: dict = {}
    for residuals, _, _ in walks:
        for node, path in residuals.items():
            exemplars.setdefault(node, path)
    if len(exemplars) != 1:
        if witness is not None:
            witness.append({"kind": "residual-nodes", "count": len(exemplars),
                            "paths": list(exemplars.values())[:2]})
        return False
    if strict:
        for tag, (_, lo, hi) in zip("ab", walks):
            if hi - lo > eps:
                if witness is not None:
                    witness.append({"kind": "branch-magnitude", "side": tag,
                                    "min": lo, "max": hi})
                return False
    return True


# -- the check driver ----------------------------------------------------------


@dataclass
class CheckReport:
    mode: str = "m"
    plan: str = "basic"
    verdict: Verdict = None
    tdd_time: float = 0.0
    total_time: float = 0.0
    final_nodes: int = 0
    max_nodes: int = 0
    discarded: int = 0
    fallback: bool = False


def check(spec_a: CircuitSpec, spec_b: CircuitSpec, mode: str,
          plan: str = "basic", *, eps: float | None = None,
          strict_q: bool = False):
    """Full pipeline: validate, compile both sides, decide equivalence.

    Both circuits are compiled as specified, fixed initial states included,
    in the grouped index order.  Returns (Verdict, CheckReport).  The
    partitioned plan discards every connected component of per-qubit pieces
    that is identical in both circuits (in q-mode, only components without
    peel indices) and compares the contracted remainder; a partitioned
    NotEquivalent is always re-run through the basic plan before being
    reported.  ``eps`` (default ``DEFAULT_EPS``) must satisfy
    ``0 <= eps < 1``; anything else raises ``ValueError``.
    """
    eps = valid_eps(DEFAULT_EPS if eps is None else eps)
    t_start = time.perf_counter()
    report = CheckReport(mode=mode, plan=plan)
    errs = [f"a: {e}" for e in validate(spec_a)] + \
           [f"b: {e}" for e in validate(spec_b)]
    if not errs:
        errs += _compatible(spec_a, spec_b, mode)
    if errs:
        report.verdict = Verdict.inconclusive("; ".join(errs))
        report.total_time = time.perf_counter() - t_start
        return report.verdict, report
    try:
        if plan == "basic":
            verdict = _check_basic(spec_a, spec_b, mode, eps, strict_q, report)
        elif plan == "partitioned":
            verdict = _check_partitioned(spec_a, spec_b, mode, eps, strict_q,
                                         report)
        else:
            raise ValueError(f"unknown plan {plan!r}")
    except (CompileScaleError, CompileError, IndexOrderError, TddError) as exc:
        verdict = Verdict.inconclusive(str(exc))
    except (RecursionError, MemoryError) as exc:
        verdict = Verdict.inconclusive(f"engine error: {type(exc).__name__}")
    report.verdict = verdict
    report.total_time = time.perf_counter() - t_start
    return verdict, report


def valid_eps(eps: float) -> float:
    """``eps`` itself if it is a usable mass tolerance, ``0 <= eps < 1``."""
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
    if mode == "m" and len(a.output_bits) > MAX_OUTPUT_BITS:
        errs.append(f"m-mode check compares at most {MAX_OUTPUT_BITS} output bits")
    return errs


def _decide(mgr, nets, ta, tb, mode, eps, strict_q, witness) -> bool:
    if mode == "m":
        m_set = {mgr.index(n) for n in nets[0].m_set}
        return m_eq(mgr, ta, tb, m_set, eps, witness)
    peel = {mgr.index(n) for n in nets[0].peel_set | nets[1].peel_set}
    return q_eq(mgr, ta, tb, peel, strict_q, eps, witness)


def _check_basic(spec_a, spec_b, mode, eps, strict_q, report) -> Verdict:
    mgr, nets = prepare([spec_a, spec_b], mode=mode)
    ra = evaluate(mgr, nets[0])
    rb = evaluate(mgr, nets[1])
    _merge_stats(report, ra.stats, rb.stats)
    witness: list = []
    ok = _decide(mgr, nets, ra.tdd, rb.tdd, mode, eps, strict_q, witness)
    return Verdict.equivalent() if ok else Verdict.not_equivalent(witness)


def _components(pieces_a: dict, pieces_b: dict) -> list[list[str]]:
    """Qubits grouped so that no index joins two groups, in A or in B."""
    parent = {q: q for q in [*pieces_a, *pieces_b]}

    def find(q):
        while parent[q] != q:
            q = parent[q]
        return q

    for pieces in (pieces_a, pieces_b):
        owner: dict[str, str] = {}
        for q, p in pieces.items():
            for i in p.indices:
                parent[find(q)] = find(owner.setdefault(i.name, q))
    groups: dict[str, list[str]] = {}
    for q in parent:
        groups.setdefault(find(q), []).append(q)
    return list(groups.values())


def _check_partitioned(spec_a, spec_b, mode, eps, strict_q, report) -> Verdict:
    mgr, nets = prepare([spec_a, spec_b], mode=mode)
    stats = CompileStats()
    t0 = time.perf_counter()
    pieces_a = evaluate_pieces(mgr, nets[0], stats)
    pieces_b = evaluate_pieces(mgr, nets[1], stats)
    peel = {mgr.index(n) for n in nets[0].peel_set | nets[1].peel_set}

    def same(q):
        ta, tb = pieces_a.get(q), pieces_b.get(q)
        return (ta is not None and tb is not None and mgr.identical(ta, tb)
                and (mode == "m" or not mgr.support(ta) & peel))

    # a component shares no index with the rest of either circuit, so each
    # diagram is its product with the rest; identical factors cancel
    dropped = {q for comp in _components(pieces_a, pieces_b)
               if all(same(q) for q in comp) for q in comp}
    report.discarded = len(dropped)
    kept_a = [p for q, p in pieces_a.items() if q not in dropped]
    kept_b = [p for q, p in pieces_b.items() if q not in dropped]
    ta = contract_pieces(mgr, kept_a, nets[0], stats)
    final_a = stats.final_nodes
    tb = contract_pieces(mgr, kept_b, nets[1], stats)
    stats.tdd_time = time.perf_counter() - t0
    stats.final_nodes = max(final_a, stats.final_nodes)
    _merge_stats(report, stats)
    if stats.wide:      # pieces have no norm to check; whole circuits do
        report.fallback = True
        return _check_basic(spec_a, spec_b, mode, eps, strict_q, report)
    witness: list = []
    try:
        ok = _decide(mgr, nets, ta, tb, mode, eps, strict_q, witness)
    except IndexOrderError:
        ok = False
    if ok:
        return Verdict.equivalent()
    # discarding is only justified in the equivalent direction: confirm any
    # failure with the basic plan
    report.fallback = True
    return _check_basic(spec_a, spec_b, mode, eps, strict_q, report)


def _merge_stats(report: CheckReport, *stats: CompileStats):
    for s in stats:
        report.tdd_time += s.tdd_time
        report.final_nodes = max(report.final_nodes, s.final_nodes)
        report.max_nodes = max(report.max_nodes, s.max_nodes)
