"""Boolean functions as reduced ordered BDDs, and their lift to tensors.

A Boolean function f : {0,1}^n -> {0,1}^t selects the classically controlled
parts of a circuit.  ``BoolFunc`` holds one reduced ordered BDD (Bryant,
IEEE TC 1986) per output bit over the input positions 0..n-1, position 0
nearest the root.  Every BDD node comes from one process-wide unique table,
so equal functions are the same nodes and compare equal; not, and, or and
xor are memoised applies.  Nothing here enumerates the 2^n assignments.
The unique table and the apply memo are never pruned and are not locked:
build functions from one thread.

``func_to_tensor`` lifts a single-output function to the 0/1 indicator
tensor [f(x) = 1] over chosen diagram indices by cofactoring its BDD in the
diagram manager's rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

from .tdd import IndexId, Tdd, TddManager


class BddNode:
    """Hash-consed BDD node; the terminals ``FALSE``/``TRUE`` have var inf."""

    __slots__ = ("var", "lo", "hi")

    def __init__(self, var, lo, hi):
        self.var = var
        self.lo = lo
        self.hi = hi


FALSE = BddNode(inf, None, None)
TRUE = BddNode(inf, None, None)

_unique: dict[tuple, BddNode] = {}
_computed: dict[tuple, BddNode] = {}


def _mk(var: int, lo: BddNode, hi: BddNode) -> BddNode:
    if lo is hi:
        return lo
    key = (var, lo, hi)
    node = _unique.get(key)
    if node is None:
        node = _unique[key] = BddNode(var, lo, hi)
    return node


def var(k: int) -> BddNode:
    """The BDD of input position ``k``."""
    return _mk(k, FALSE, TRUE)


def apply(op: str, a: BddNode, b: BddNode) -> BddNode:
    """``a op b`` for op in and, or, xor; memoised across calls."""
    if op == "and":
        if a is FALSE or b is FALSE:
            return FALSE
        if a is TRUE:
            return b
        if b is TRUE or a is b:
            return a
    elif op == "or":
        if a is TRUE or b is TRUE:
            return TRUE
        if a is FALSE:
            return b
        if b is FALSE or a is b:
            return a
    else:
        if a is FALSE:
            return b
        if b is FALSE:
            return a
        if a is b:
            return FALSE
    if id(a) > id(b):    # all three operations commute
        a, b = b, a
    key = (op, a, b)
    res = _computed.get(key)
    if res is None:
        v = min(a.var, b.var)
        a0, a1 = (a.lo, a.hi) if a.var == v else (a, a)
        b0, b1 = (b.lo, b.hi) if b.var == v else (b, b)
        res = _computed[key] = _mk(v, apply(op, a0, b0), apply(op, a1, b1))
    return res


def negate(a: BddNode) -> BddNode:
    return apply("xor", a, TRUE)


def _restrict(node: BddNode, p: int, c: int, memo: dict) -> BddNode:
    """Cofactor of ``node`` at input position ``p`` set to ``c``."""
    if node.var > p:           # p lies above node, terminals included
        return node
    if node.var == p:
        return node.hi if c else node.lo
    key = (node, p, c)
    res = memo.get(key)
    if res is None:
        res = memo[key] = _mk(node.var, _restrict(node.lo, p, c, memo),
                              _restrict(node.hi, p, c, memo))
    return res


@dataclass(frozen=True)
class BoolFunc:
    """Total function {0,1}^arity -> {0,1}^outputs.

    ``roots[b]`` is the BDD of output bit ``b`` (MSB first) over the input
    positions; input bit 0 is the most significant position of ``__call__``.
    """

    arity: int
    roots: tuple[BddNode, ...]

    @property
    def outputs(self) -> int:
        return len(self.roots)

    def __call__(self, bits: Sequence[int]) -> int:
        out = 0
        for node in self.roots:
            while node.lo is not None:
                node = node.hi if bits[node.var] else node.lo
            out = (out << 1) | (node is TRUE)
        return out

    def output_bit(self, b: int) -> "BoolFunc":
        """Single-output restriction to output bit ``b`` (MSB first)."""
        return BoolFunc(self.arity, (self.roots[b],))

    def selector(self, i: int) -> "BoolFunc":
        """The single-output function ``f(bits) == i``."""
        t = self.outputs
        node = TRUE
        for b, root in enumerate(self.roots):
            node = apply("and", node,
                         root if (i >> (t - 1 - b)) & 1 else negate(root))
        return BoolFunc(self.arity, (node,))

    def _pointwise(self, op: str, other: "BoolFunc") -> "BoolFunc":
        if (self.arity, self.outputs) != (other.arity, other.outputs):
            raise ValueError("operands differ in arity or outputs")
        return BoolFunc(self.arity, tuple(apply(op, a, b) for a, b
                                          in zip(self.roots, other.roots)))

    def __and__(self, other):
        return self._pointwise("and", other)

    def __or__(self, other):
        return self._pointwise("or", other)

    def __xor__(self, other):
        return self._pointwise("xor", other)

    def __invert__(self):
        return BoolFunc(self.arity, tuple(negate(r) for r in self.roots))

    @staticmethod
    def identity(n: int) -> "BoolFunc":
        return BoolFunc(n, tuple(var(k) for k in range(n)))

    def support(self) -> tuple[int, ...]:
        """Input positions that some output's BDD reads, ascending."""
        seen: set[BddNode] = set()
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if node.lo is not None and node not in seen:
                seen.add(node)
                stack += (node.lo, node.hi)
        return tuple(sorted({node.var for node in seen}))

    def relabel(self, positions: Sequence[int], arity: int) -> "BoolFunc":
        """This function read with input ``k`` at position ``positions[k]``
        of ``arity`` inputs; one memoised rebuild of each BDD node."""
        memo: dict[BddNode, BddNode] = {}

        def go(node):
            if node.lo is None:
                return node
            got = memo.get(node)
            if got is None:
                v = var(positions[node.var])
                got = memo[node] = apply("or", apply("and", v, go(node.hi)),
                                         apply("and", negate(v), go(node.lo)))
            return got

        return BoolFunc(arity, tuple(go(r) for r in self.roots))


def func_to_tensor(mgr: TddManager, f: BoolFunc,
                   inputs: Sequence[IndexId]) -> Tdd:
    """Lift a single-output function to the 0/1 indicator [f(x) = 1].

    ``inputs[k]`` is the diagram index of input position ``k``.  The diagram
    is built top-down in the manager's rank order, cofactoring the BDD on
    the position of each index in turn.
    """
    if f.outputs != 1:
        raise ValueError("func_to_tensor expects a single-output function")
    if len(inputs) != f.arity:
        raise ValueError("input index count does not match arity")
    level = sorted(range(f.arity), key=lambda k: -inputs[k].rank)
    memo: dict[tuple, object] = {}
    cofactors: dict[tuple, BddNode] = {}

    def lift(node, d):
        if node is TRUE:
            return mgr.one
        if node is FALSE:
            return mgr.zero
        got = memo.get((node, d))
        if got is None:
            p = level[d]
            got = memo[node, d] = mgr.mk_edge(
                inputs[p], lift(_restrict(node, p, 0, cofactors), d + 1),
                lift(_restrict(node, p, 1, cofactors), d + 1))
        return got

    return mgr.tdd(lift(f.roots[0], 0), inputs)
