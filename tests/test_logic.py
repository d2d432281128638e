import itertools

import numpy as np
import pytest

from tddeq import logic
from tddeq.logic import FALSE, TRUE, BoolFunc, func_to_tensor
from tddeq.tdd import KIND_OUTCOME, TddManager


def outcome_mgr(names):
    return TddManager([(n, KIND_OUTCOME) for n in names])


X2 = BoolFunc.identity(2)
AND2 = X2.output_bit(0) & X2.output_bit(1)


def from_table(table) -> BoolFunc:
    """The function with truth table ``table`` (MSB-first inputs), built as
    the OR of its minterms."""
    n = (len(table) - 1).bit_length()
    x = BoolFunc.identity(n)
    f = BoolFunc(n, (FALSE,))
    for i, v in enumerate(table):
        if v:
            f = f | x.selector(i)
    return f


def dense_indicator(f: BoolFunc) -> np.ndarray:
    arr = np.zeros((2,) * f.arity)
    for bits in itertools.product((0, 1), repeat=f.arity):
        arr[bits] = f(bits)
    return arr


def node_count(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if node.lo is not None:
                stack += [node.lo, node.hi]
    return len(seen)


def test_and_gate_tensor_entries():
    m = outcome_mgr(["x1", "x2"])
    t = func_to_tensor(m, AND2, [m.index("x1"), m.index("x2")])
    arr = m.to_dense(t).real
    for bits in itertools.product((0, 1), repeat=2):
        assert arr[bits] == (1.0 if bits == (1, 1) else 0.0)


def test_constant_zero_tensor():
    m = outcome_mgr(["x1", "x2"])
    f = AND2 & ~AND2
    assert f.roots == (FALSE,)
    t = func_to_tensor(m, f, [m.index("x1"), m.index("x2")])
    assert t.root is m.zero
    assert not m.to_dense(t).any()


def test_xor3_matches_truth_table():
    m = outcome_mgr(["a", "b", "c"])
    x = BoolFunc.identity(3)
    f = x.output_bit(0) ^ x.output_bit(1) ^ x.output_bit(2)
    t = func_to_tensor(m, f, [m.index(n) for n in "abc"])
    arr = m.to_dense(t).real
    for bits in itertools.product((0, 1), repeat=3):
        assert arr[bits] == bits[0] ^ bits[1] ^ bits[2]


def test_lift_is_functional():
    # [f = 1] + [!f = 1] is 1 on every input, and [f = 1] counts f's ones
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        table = [int(v) for v in rng.integers(0, 2, size=1 << n)]
        f = from_table(table)
        m = outcome_mgr([f"x{k}" for k in range(n)])
        idx = [m.index(f"x{k}") for k in range(n)]
        on = m.to_dense(func_to_tensor(m, f, idx)).real
        off = m.to_dense(func_to_tensor(m, ~f, idx)).real
        assert np.sum(on) == sum(table)
        assert np.array_equal(on + off, np.ones((2,) * n))


def test_bdd_evaluates_and_is_reduced():
    for bits in itertools.product((0, 1), repeat=2):
        assert AND2(bits) == (bits[0] & bits[1])
    # AND BDD: x1 node, x2 node, two terminals
    assert node_count(AND2.roots[0]) == 4
    # hash-consing: equal functions are the same nodes, however built
    a, b = X2.output_bit(0), X2.output_bit(1)
    assert ~(a & b) == ~a | ~b
    assert (a ^ b) ^ b == a
    assert (a | ~a).roots == (TRUE,)


def test_bdd_to_tdd_and_gate():
    # the lift is the structural import of the BDD: one diagram node per
    # BDD node, and it equals the dense indicator
    m = outcome_mgr(["x1", "x2"])
    idx = [m.index("x1"), m.index("x2")]
    t = func_to_tensor(m, AND2, idx)
    assert m.node_count(t) == 3
    assert m.identical(t, m.from_dense(dense_indicator(AND2), idx))


def test_bdd_to_tdd_identity_wire():
    m = outcome_mgr(["x"])
    t = func_to_tensor(m, BoolFunc.identity(1), [m.index("x")])
    assert np.allclose(m.to_dense(t).real, [0.0, 1.0])
    t = func_to_tensor(m, ~BoolFunc.identity(1), [m.index("x")])
    assert np.allclose(m.to_dense(t).real, [1.0, 0.0])


def test_bdd_to_tdd_random_matches_func_lift():
    rng = np.random.default_rng(5)
    for _ in range(20):
        table = [int(v) for v in rng.integers(0, 2, size=16)]
        f = from_table(table)
        names = [f"x{k}" for k in range(4)]
        m = outcome_mgr(names)
        idx = [m.index(n) for n in names]
        t = func_to_tensor(m, f, idx)
        assert m.identical(t, m.from_dense(dense_indicator(f), idx))
        assert [f(b) for b in itertools.product((0, 1), repeat=4)] == table


def test_bdd_to_tdd_against_table_to_bdd_roundtrip():
    # exhaustive for arity <= 3, sampled for arity 4; the manager's order of
    # the input indices is a random permutation of the BDD's input order
    cases = []
    for arity in (1, 2, 3):
        cases += [(arity, bits) for bits in range(1 << (1 << arity))]
    rng = np.random.default_rng(9)
    cases += [(4, int(v)) for v in rng.integers(0, 1 << 16, size=64)]
    for arity, bits in cases:
        table = [(bits >> i) & 1 for i in range(1 << arity)]
        f = from_table(table)
        names = [f"x{k}" for k in range(arity)]
        m = outcome_mgr(list(rng.permutation(names)))
        idx = [m.index(n) for n in names]
        t = func_to_tensor(m, f, idx)
        assert m.identical(t, m.from_dense(dense_indicator(f), idx))


def test_selector_picks_one_output_value():
    # f : {0,1}^3 -> {0,1}^2, f = (x0 & x1, x1 ^ x2)
    x = BoolFunc.identity(3)
    f = BoolFunc(3, ((x.output_bit(0) & x.output_bit(1)).roots[0],
                     (x.output_bit(1) ^ x.output_bit(2)).roots[0]))
    for bits in itertools.product((0, 1), repeat=3):
        assert f(bits) == ((bits[0] & bits[1]) << 1) | (bits[1] ^ bits[2])
        for i in range(4):
            assert f.selector(i)(bits) == int(f(bits) == i)


def test_support_lists_the_positions_read():
    x = BoolFunc.identity(4)
    f = x.output_bit(3) ^ (x.output_bit(1) & ~x.output_bit(1))
    assert f.support() == (3,)
    assert (x.output_bit(2) | x.output_bit(0)).support() == (0, 2)
    assert x.support() == (0, 1, 2, 3)
    assert BoolFunc(2, (TRUE,)).support() == ()


def test_wide_and_indicator_is_a_chain():
    n = 64
    names = [f"c{k}" for k in range(n)]
    m = outcome_mgr(sorted(names))         # rank order differs from c0..c63
    x = BoolFunc.identity(n)
    f = x.output_bit(0)
    for k in range(1, n):
        f = f & x.output_bit(k)
    assert node_count(f.roots[0]) == n + 2
    t = func_to_tensor(m, f, [m.index(c) for c in names])
    assert m.node_count(t) == n + 1       # 64 nodes and the terminal
    assert len(t.indices) == n


def test_lift_keeps_its_cofactors_to_itself():
    # the cofactor memo lives for one lift; the process-wide apply memo
    # does not grow with every function lifted
    x = BoolFunc.identity(6)
    f = (x.output_bit(0) & x.output_bit(3)) ^ (x.output_bit(1) | x.output_bit(5))
    names = [f"c{k}" for k in range(6)]
    m = outcome_mgr(names[::-1])           # cofactors below the BDD's root
    before = len(logic._computed)
    t = func_to_tensor(m, f, [m.index(c) for c in names])
    assert len(logic._computed) == before
    assert [i.name for i in t.indices] == names[::-1]
    assert np.array_equal(m.to_dense(t).real, dense_indicator(f).transpose())


def test_boolfunc_validation():
    # operands of one shape only; the lift takes one output and one index
    # per input
    m = outcome_mgr(["x1", "x2"])
    with pytest.raises(ValueError):
        func_to_tensor(m, X2, [m.index("x1"), m.index("x2")])
    with pytest.raises(ValueError):
        func_to_tensor(m, AND2, [m.index("x1")])
    with pytest.raises(ValueError):
        AND2 & BoolFunc.identity(1)
