"""Tensor decision diagrams over Boolean indices.

A TDD represents a complex tensor phi : {0,1}^I -> C as a reduced, weighted,
ordered decision diagram.  Every node is hash-consed in a per-manager unique
table, so structural equality of tensors (up to the weight grid) is pointer
equality of root nodes.  Outgoing weights of every node are normalised by the
first nonzero weight (low successor first), which fixes a canonical form.

Weights are compared on an absolute grid: ``wkey`` maps a weight to the
integer pair of its real and imaginary parts in units of ``GRID``.
``mk_edge`` keys the high/low ratio for the unique-table key, and keys low
and high only for the redundant-node test; ``_add`` keys the ratio of its
two operands for the computed table.  No other hot path keys a weight.
Grid zero is tested without a key.

Every edge the engine makes is grid zero if and only if it ``is`` the
manager's ``zero`` edge: ``mk_edge``, ``_canon`` and ``_cont`` snap grid-zero
weights to it, and ``contract`` and ``add`` canonicalise their two caller
roots once on entry.  The recursive kernels therefore test for zero by
identity and take node successors as cofactors directly; ``_cont`` is never
entered with the zero edge, since its callers test both operands first.

Operand pairs are ordered by ``TddNode.serial``, the order in which the
manager created the nodes, never by address: two nodes in ``_cont``'s cache
key, and in ``_add`` the one of two equal-rank operands whose weight divides
the other's.  So the float bits of every weight repeat from run to run.

All diagrams built by one ``TddManager`` share a single global index order;
the root of a diagram carries the highest-ranked index, the terminal node has
rank 0.

``from_dense`` replays a recipe.  ``_recipe`` builds a tensor once, with
``mk_edge``, in a private manager over placeholder indices, and lists the
nodes that build made bottom-up.  A recipe of at most ``RECIPE_LEGS`` legs
(every gate, init, COPY and controlled-gate tensor, and every product the
compiler fuses from neighbouring entries) is cached per distinct values and
leg order; a wider one is built afresh, since a cache would keep its bytes
alive.  The replay forms, for each listed node, the unique-table
key ``mk_edge`` would form and reuses or creates the node under it.  A key
depends only on weights computed from the values and on the identities of
the successor nodes, never on weights stored in nodes already present, so
the replay gives the very nodes, weights and table a direct ``mk_edge``
build gives, and the canonical form is unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import inf, ldexp
from typing import Iterable, NamedTuple, Sequence

import numpy as np

KIND_WIRE = "quantum-wire"
KIND_OUTCOME = "classical-outcome"
KIND_PRINCIPAL = "principal-output"

_KINDS = (KIND_WIRE, KIND_OUTCOME, KIND_PRINCIPAL)

# Every tolerance of the package, and the dense-size and cache limits.
GRID = 1e-9           # weights are keyed on this grid (see ``wkey``)
DEFAULT_EPS = 1e-10   # default bound of ``check`` on m-mode total variation
UNITARY_TOL = 1e-10   # largest entry of U^H U - I a gate may have
ORACLE_ATOL = 1e-9    # entrywise tolerance of the dense oracle's comparisons
ORACLE_LIVE = 1e-12   # a branch Choi matrix at most this large is impossible
NORM_TOL = 1e-6       # relative squared-norm drift a compiled circuit may show
DENSE_LIMIT = 20      # most indices of a tensor built or read densely
DENSE_CACHE = 4096    # most entries of each cache keyed on dense values
RECIPE_LEGS = 4       # widest cached ``from_dense`` recipe, and widest fused product


def wkey(w) -> tuple[int, int]:
    """Quantised grid key; grid-equal weights get equal keys and hashes."""
    return (round(w.real / GRID), round(w.imag / GRID))


ZERO_KEY = wkey(0.0)
ONE_KEY = wkey(1.0)  # key of every normalised first nonzero weight


@dataclass(frozen=True, eq=False)
class IndexId:
    """One position of the shared global index order.

    Compared and hashed by identity: a manager creates each of its indices
    once, and indices of different managers are matched by name.
    """

    name: str
    rank: int  # higher rank = nearer the root; terminal is rank 0
    kind: str

    def __repr__(self):
        return f"{self.name}@{self.rank}"


class TddNode:
    """Hash-consed diagram node; the terminal has ``index None`` and rank 0.

    ``serial`` is the node's position in its manager's unique table (-1 for
    the terminal): a creation order that orders operand pairs.
    """

    __slots__ = ("index", "low", "high", "rank", "serial")

    def __init__(self, index, low, high, serial):
        self.index = index
        self.low = low
        self.high = high
        self.rank = 0 if index is None else index.rank
        self.serial = serial

    def __repr__(self):
        if self.index is None:
            return "<terminal>"
        return f"<node {self.index!r}>"


class TddEdge(NamedTuple):
    weight: complex
    node: TddNode


# ``_new(TddEdge, (w, node))`` makes an edge without the NamedTuple's
# Python-level ``__new__``; the kernels below make one per visited node.
_new = tuple.__new__


@dataclass(frozen=True)
class Tdd:
    """A rooted diagram together with its declared open indices.

    ``indices`` is kept sorted by descending rank.  Indices absent from the
    diagram structure contribute a factor 1 (the tensor does not depend on
    them); they still count for dense conversion and norms.
    """

    root: TddEdge
    indices: tuple[IndexId, ...]


class TddError(Exception):
    pass


class DenseLimitError(TddError):
    pass


class TddManager:
    """Owner of the unique table, computed tables and the global index order.

    ``order`` lists the indices root-first: earlier entries sit nearer the
    root of every diagram.  A manager is single-threaded; independent
    managers may be used concurrently.
    """

    def __init__(self, order: Iterable[tuple[str, str]]):
        names = list(order)
        self._by_name: dict[str, IndexId] = {}
        n = len(names)
        for pos, (name, kind) in enumerate(names):
            if kind not in _KINDS:
                raise TddError(f"unknown index kind {kind!r}")
            if name in self._by_name:
                raise TddError(f"duplicate index name {name!r}")
            idx = IndexId(name, n - pos, kind)
            self._by_name[name] = idx
        self.terminal = TddNode(None, None, None, -1)
        self.zero = TddEdge(0.0 + 0.0j, self.terminal)
        self.one = TddEdge(1.0 + 0.0j, self.terminal)
        self._unique: dict[tuple, TddNode] = {}
        self._add_cache: dict[tuple, TddEdge] = {}
        self._cont_cache: dict[tuple, TddEdge] = {}

    # -- index bookkeeping -------------------------------------------------

    def index(self, name: str) -> IndexId:
        return self._by_name[name]

    # -- weights -----------------------------------------------------------

    def _canon(self, w, node) -> TddEdge:
        # wkey(w) == ZERO_KEY without the tuple: round(y) == 0 iff |y| <= 0.5
        if -0.5 <= w.real / GRID <= 0.5 and -0.5 <= w.imag / GRID <= 0.5:
            return self.zero
        return _new(TddEdge, (complex(w), node))

    # -- node construction -------------------------------------------------

    def mk_edge(self, index: IndexId, low: TddEdge, high: TddEdge) -> TddEdge:
        """Canonical normalised edge over ``index`` with the given successors.

        Applies, in order: zero snapping of grid-zero successors, the
        redundant node rule, extraction of the first nonzero weight, and
        unique-table lookup.
        """
        rank = index.rank
        if low.node.rank >= rank or high.node.rank >= rank:
            raise TddError(f"successor rank not below {index!r}")
        zero, terminal = self.zero, self.terminal
        lw, hw = low.weight, high.weight
        # grid zero as in ``_canon``
        hz = high is zero or (-0.5 <= hw.real / GRID <= 0.5 and -0.5 <= hw.imag / GRID <= 0.5)
        if low is zero or (-0.5 <= lw.real / GRID <= 0.5 and -0.5 <= lw.imag / GRID <= 0.5):
            if hz:
                return zero
            factor, hw = hw, 1.0 + 0.0j
            key = (rank, ZERO_KEY, terminal, ONE_KEY, high.node)
        elif hz:
            factor = lw
            key = (rank, ONE_KEY, low.node, ZERO_KEY, terminal)
        elif low.node is high.node and wkey(lw) == wkey(hw):
            return low
        else:
            factor = lw
            hw = hw / lw
            rk = wkey(hw)
            key = (rank, ONE_KEY, low.node, rk,
                   terminal if rk == ZERO_KEY else high.node)
        unique = self._unique
        node = unique.get(key)
        if node is None:
            slow = zero if key[1] == ZERO_KEY else _new(TddEdge, (1.0 + 0.0j, low.node))
            shigh = zero if key[3] == ZERO_KEY else _new(TddEdge, (complex(hw), high.node))
            node = unique[key] = TddNode(index, slow, shigh, len(unique))
        return _new(TddEdge, (complex(factor), node))

    def tdd(self, root: TddEdge, indices: Iterable[IndexId]) -> Tdd:
        idx = tuple(sorted(set(indices), key=lambda i: -i.rank))
        return Tdd(root, idx)

    def scalar(self, w) -> Tdd:
        return Tdd(self._canon(w, self.terminal), ())

    # -- dense conversion --------------------------------------------------

    def from_dense(self, values, indices: Sequence[IndexId]) -> Tdd:
        """Build the diagram of a dense tensor.

        ``values`` has shape (2,)*n with axes matching ``indices``; the
        result's index tuple is re-sorted into rank order.  The diagram is
        replayed from the ``_recipe`` of the values and leg order.
        """
        arr = np.asarray(values, dtype=complex)
        indices = list(indices)
        if arr.shape != (2,) * len(indices):
            raise TddError(f"shape {arr.shape} does not match {len(indices)} indices")
        if len(indices) > DENSE_LIMIT:
            raise DenseLimitError(f"{len(indices)} indices exceed dense limit {DENSE_LIMIT}")
        if len(set(indices)) != len(indices):
            raise TddError("repeated index")
        order = tuple(sorted(range(len(indices)), key=lambda k: -indices[k].rank))
        sorted_idx = [indices[k] for k in order]
        build = _recipe if len(order) <= RECIPE_LEGS else _recipe.__wrapped__
        weight, root, nodes = build(arr.tobytes(), order)
        unique, zero = self._unique, self.zero
        made = [self.terminal]
        for pos, lk, lw, lo, hk, hw, hi in nodes:
            index, low, high = sorted_idx[pos], made[lo], made[hi]
            key = (index.rank, lk, low, hk, high)
            node = unique.get(key)
            if node is None:
                node = unique[key] = TddNode(
                    index, zero if lk == ZERO_KEY else _new(TddEdge, (lw, low)),
                    zero if hk == ZERO_KEY else _new(TddEdge, (hw, high)), len(unique))
            made.append(node)
        edge = zero if root is None else _new(TddEdge, (weight, made[root]))
        return Tdd(edge, tuple(sorted_idx))

    def _from_dense_rec(self, arr, idx) -> TddEdge:
        if not idx:
            return self._canon(complex(arr), self.terminal)
        low = self._from_dense_rec(arr[0], idx[1:])
        high = self._from_dense_rec(arr[1], idx[1:])
        return self.mk_edge(idx[0], low, high)

    def to_dense(self, t: Tdd) -> np.ndarray:
        """Dense tensor with axes ordered like ``t.indices``."""
        if len(t.indices) > DENSE_LIMIT:
            raise DenseLimitError(f"{len(t.indices)} indices exceed dense limit {DENSE_LIMIT}")
        memo: dict[tuple, np.ndarray] = {}

        def rec(node, pos):
            if pos == len(t.indices):
                if node is not self.terminal:
                    raise TddError("node below the declared index set")
                return np.ones((), dtype=complex)
            key = (node, pos)
            got = memo.get(key)
            if got is not None:
                return got
            x = t.indices[pos]
            if node.rank > x.rank:
                raise TddError(f"index {node.index!r} missing from declared indices")
            if node.rank == x.rank:
                lo = node.low.weight * rec(node.low.node, pos + 1)
                hi = node.high.weight * rec(node.high.node, pos + 1)
            else:
                sub = rec(node, pos + 1)
                lo = hi = sub
            out = np.stack([lo, hi], axis=0)
            memo[key] = out
            return out

        return t.root.weight * rec(t.root.node, 0)

    # -- slicing -----------------------------------------------------------

    def slice(self, t: Tdd, x: IndexId, c: int) -> Tdd:
        """Cofactor phi|_{x=c}; a no-op when ``x`` is not an index of ``t``."""
        if x not in t.indices:
            return t
        return self.contract(t, self.from_dense(np.eye(2)[c], [x]), {x})

    # -- addition ----------------------------------------------------------

    def add(self, a: Tdd, b: Tdd) -> Tdd:
        """Entrywise sum; index sets may differ (absent indices broadcast)."""
        root = self._add(self._canon(a.root.weight, a.root.node),
                         self._canon(b.root.weight, b.root.node))
        return self.tdd(root, a.indices + b.indices)

    def _add(self, e1: TddEdge, e2: TddEdge) -> TddEdge:
        if e1 is self.zero:
            return e2
        if e2 is self.zero:
            return e1
        n1, n2 = e1.node, e2.node
        if n1 is n2:
            return self._canon(e1.weight + e2.weight, n1)
        if n1.rank > n2.rank or (n1.rank == n2.rank and n1.serial > n2.serial):
            e1, e2, n1, n2 = e2, e1, n2, n1
        w1 = e1.weight
        ratio = e2.weight / w1
        key = (n1, n2, wkey(ratio))
        res = self._add_cache.get(key)
        if res is None:
            # n2 has the top rank; cofactors of 1*e1.node and ratio*e2.node
            if n1.rank == n2.rank:
                a0, a1 = n1.low, n1.high
            else:
                a0 = a1 = _new(TddEdge, (1.0 + 0.0j, n1))
            b0 = self._canon(ratio * n2.low.weight, n2.low.node)
            b1 = self._canon(ratio * n2.high.weight, n2.high.node)
            lo = self._add(a0, b0)
            hi = self._add(a1, b1)
            res = self.mk_edge(n2.index, lo, hi)
            self._add_cache[key] = res
        return self._canon(w1 * res.weight, res.node)

    # -- contraction -------------------------------------------------------

    def contract(self, a: Tdd, b: Tdd, shared: Iterable[IndexId]) -> Tdd:
        """Sum over ``shared`` of the pointwise product of ``a`` and ``b``.

        Indices carried by both operands but not listed in ``shared`` are
        matched pointwise and stay open, so classical wires may fan out.
        """
        shared = set(shared)
        for x in shared:
            if x not in a.indices or x not in b.indices:
                raise TddError(f"shared index {x!r} not common to both operands")
        srt = tuple(sorted((x.rank for x in shared), reverse=True))
        e1 = self._canon(a.root.weight, a.root.node)
        e2 = self._canon(b.root.weight, b.root.node)
        zero = self.zero
        root = zero if e1 is zero or e2 is zero else self._cont(e1, e2, srt)
        keep = [x for x in a.indices + b.indices if x not in shared]
        return self.tdd(root, keep)

    def _cont(self, e1: TddEdge, e2: TddEdge, srt: tuple) -> TddEdge:
        # e1 and e2 are nonzero: every caller tests for the zero edge
        n1, n2 = e1.node, e2.node
        r1, r2 = n1.rank, n2.rank
        r = r1 if r1 > r2 else r2
        k = 0
        while k < len(srt) and srt[k] > r:
            k += 1
        if k:
            # shared indices absent from both operands each contribute a factor 2
            res = self._cont(e1, e2, srt[k:])
            w = (1 << k) * res.weight
        elif not srt and (n1.index is None or n2.index is None):
            # a scalar times a canonical node: nothing to walk
            res = e2 if n1.index is None else e1
            w = e1.weight * e2.weight
        else:
            key = (n1, n2, srt) if n1.serial < n2.serial else (n2, n1, srt)
            res = self._cont_cache.get(key)
            if res is None:
                # cofactors of the unit edges to n1 and n2 on the top rank r
                zero = self.zero
                if r1 == r:
                    a0, a1, index = n1.low, n1.high, n1.index
                else:
                    a0 = a1 = _new(TddEdge, (1.0 + 0.0j, n1))
                if r2 == r:
                    b0, b1, index = n2.low, n2.high, n2.index
                else:
                    b0 = b1 = _new(TddEdge, (1.0 + 0.0j, n2))
                summed = srt and srt[0] == r
                rest = srt[1:] if summed else srt
                lo = zero if a0 is zero or b0 is zero else self._cont(a0, b0, rest)
                hi = zero if a1 is zero or b1 is zero else self._cont(a1, b1, rest)
                res = self._cont_cache[key] = (
                    self._add(lo, hi) if summed else self.mk_edge(index, lo, hi))
            w = e1.weight * e2.weight * res.weight
        # ``_canon``, inlined
        if -0.5 <= w.real / GRID <= 0.5 and -0.5 <= w.imag / GRID <= 0.5:
            return self.zero
        return _new(TddEdge, (w, res.node))

    # -- norm ---------------------------------------------------------------

    def norm(self, t: Tdd) -> float:
        """Sum of squared entry magnitudes over all declared indices.

        Equals the full contraction of ``t`` with its conjugate.
        """
        return self.norm_edge(t.root, t.indices)

    def norm_edge(self, edge: TddEdge, indices: tuple[IndexId, ...]) -> float:
        """Squared norm of the tensor of ``edge`` over the declared ``indices``."""
        w2 = abs(edge.weight) ** 2
        if w2 == 0.0:
            return 0.0
        return w2 * self.norms([edge.node], indices)[edge.node]

    def norms(self, roots, indices: Sequence[IndexId]) -> dict[TddNode, float]:
        """Squared norm over the declared ``indices`` of each root node.

        One pass over the nodes reachable from any root, in ascending rank.
        Every declared index skipped between a node and its successor
        doubles that successor's norm.
        """
        ranks = sorted(i.rank for i in indices)
        pos = {self.terminal: -1}    # node -> position of its rank in ranks
        norm = {self.terminal: 1.0}
        for node in sorted(self._reachable(*roots), key=lambda n: n.rank):
            if node is self.terminal:
                continue
            p = bisect_left(ranks, node.rank)
            if p == len(ranks) or ranks[p] != node.rank:
                if p == 0:
                    raise TddError("node below the declared index set")
                raise TddError(f"index {node.index!r} missing from declared indices")
            out = 0.0
            for succ in (node.low, node.high):
                out += abs(succ.weight) ** 2 * _times_pow2(
                    norm[succ.node], p - pos[succ.node] - 1)
            pos[node] = p
            norm[node] = out
        return {r: _times_pow2(norm[r], len(ranks) - pos[r] - 1) for r in roots}

    # -- structural queries --------------------------------------------------

    def identical(self, a: Tdd, b: Tdd) -> bool:
        """Canonical identity: equal root weights (grid) and the same node."""
        if a.root.node is not b.root.node and (
                self._foreign(a.root.node) or self._foreign(b.root.node)):
            raise TddError("identical() across managers is not defined")
        return a.root.node is b.root.node and wkey(a.root.weight) == wkey(b.root.weight)

    def _foreign(self, node) -> bool:
        if node is self.terminal:
            return False
        if node.index is None:  # another manager's terminal
            return True
        key = (node.index.rank, wkey(node.low.weight), node.low.node,
               wkey(node.high.weight), node.high.node)
        return self._unique.get(key) is not node

    def _reachable(self, *roots: TddNode) -> set[TddNode]:
        """Unique nodes reachable from any of ``roots``, terminal included."""
        seen = set(roots)
        stack = list(seen)
        while stack:
            node = stack.pop()
            if node.index is not None:
                for child in (node.low.node, node.high.node):
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        return seen

    def node_count(self, t: Tdd) -> int:
        """Number of reachable unique nodes, terminal included."""
        return len(self._reachable(t.root.node))


def _times_pow2(x: float, k: int) -> float:
    """``x * 2**k``, exact like repeated doubling, and ``inf`` past the range."""
    try:
        return ldexp(x, k)
    except OverflowError:
        return inf


@lru_cache(maxsize=DENSE_CACHE)
def _recipe(data: bytes, order: tuple) -> tuple:
    """Index-free build of a dense tensor: ``(root weight, root, nodes)``.

    ``data`` holds the complex values of a (2,)*n tensor and ``order`` the
    axis permutation into rank order.  The tensor is built once by
    ``_from_dense_rec`` in a private manager over n placeholder indices.
    ``nodes`` lists every node that build made, bottom-up, as (leg position,
    low key, low weight, low child, high key, high weight, high child); a
    child is 0 for the terminal and k for the k-th listed node.  ``root`` is
    such a position, or None for the zero edge.
    """
    n = len(order)
    arr = np.frombuffer(data, dtype=complex).reshape((2,) * n).transpose(order)
    mgr = TddManager((str(k), KIND_WIRE) for k in range(n))
    edge = mgr._from_dense_rec(arr, [mgr.index(str(k)) for k in range(n)])
    pos = {mgr.terminal: 0}
    nodes = []
    # the unique table keeps insertion order: every node after its successors
    for key, node in mgr._unique.items():
        nodes.append((n - node.rank, key[1], node.low.weight, pos[node.low.node],
                      key[3], node.high.weight, pos[node.high.node]))
        pos[node] = len(nodes)
    root = None if edge is mgr.zero else pos[edge.node]
    return edge.weight, root, tuple(nodes)
