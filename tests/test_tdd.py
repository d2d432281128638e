import math

import numpy as np
import pytest

from tddeq.tdd import (KIND_WIRE, ONE_KEY, ZERO_KEY, DenseLimitError, Tdd,
                       TddEdge, TddError, TddManager, _recipe, wkey)

from dense_ref import dense_add, dense_contract, dense_norm, dense_slice

SQ2 = 1.0 / np.sqrt(2.0)

H_ARR = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)


def mgr(n=6, kinds=None):
    names = [(f"x{k}", KIND_WIRE if kinds is None else kinds[k]) for k in range(n)]
    return TddManager(names)


def rand_tensor(rng, names, grid=None):
    arr = rng.standard_normal((2,) * len(names)) + 1j * rng.standard_normal((2,) * len(names))
    if grid is not None:
        arr = np.round(arr / grid) * grid
    return arr


def test_mk_edge_redundant_collapse():
    m = mgr(2)
    x = m.index("x0")
    e = m.mk_edge(x, m.one, m.one)
    assert e.node is m.terminal
    assert e.weight == 1.0


def test_mk_edge_normalises_by_first_nonzero():
    m = mgr(2)
    x = m.index("x0")
    e = m.mk_edge(x, m.zero, TddEdge(2.0 + 0j, m.terminal))
    assert e.weight == 2.0
    assert e.node.low.weight == 0.0
    assert e.node.high.weight == 1.0


def test_mk_edge_snaps_high_before_forming_ratio():
    # the high weight 4e-10 is grid zero; dividing it by the low weight 2e-9
    # first would give a nonzero ratio of 0.2
    m = mgr(2)
    e = m.mk_edge(m.index("x0"), TddEdge(2e-9 + 0j, m.terminal),
                  TddEdge(4e-10 + 0j, m.terminal))
    assert e.node.high is m.zero
    assert e.weight == 2e-9 and wkey(e.node.low.weight) == ONE_KEY


def test_mk_edge_unique_table_dedup():
    m = mgr(2)
    x = m.index("x1")
    e1 = m.mk_edge(x, m.one, TddEdge(-1.0 + 0j, m.terminal))
    e2 = m.mk_edge(x, m.one, TddEdge(-1.0 + 0j, m.terminal))
    assert e1.node is e2.node


def test_from_dense_ket0():
    m = mgr(1)
    t = m.from_dense(np.array([1.0, 0.0]), [m.index("x0")])
    assert t.root.node.low.weight == 1.0
    assert t.root.node.high.weight == 0.0
    assert t.root.weight == 1.0


def test_from_dense_hadamard_shape():
    # root weight 1/sqrt(2); the 0-successor of the root goes straight to the
    # terminal; 3 nodes in total
    m = mgr(2)
    t = m.from_dense(H_ARR, [m.index("x0"), m.index("x1")])
    assert abs(t.root.weight - SQ2) < 1e-12
    assert t.root.node.low.node is m.terminal
    assert m.node_count(t) == 3


def test_from_dense_zero_tensor():
    m = mgr(3)
    t = m.from_dense(np.zeros((2, 2, 2)), [m.index(f"x{k}") for k in range(3)])
    assert t.root.weight == 0.0
    assert t.root.node is m.terminal


def test_to_dense_zero_and_h():
    m = mgr(2)
    idx = [m.index("x0"), m.index("x1")]
    z = m.from_dense(np.zeros((2, 2)), idx)
    assert np.all(m.to_dense(z) == 0)
    h = m.from_dense(H_ARR, idx)
    assert np.allclose(m.to_dense(h), H_ARR)


def test_dense_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(0, 7))
        m = mgr(max(n, 1))
        names = [m.index(f"x{k}") for k in range(n)]
        arr = rand_tensor(rng, names)
        t = m.from_dense(arr, names)
        assert np.max(np.abs(m.to_dense(t) - arr)) < 1e-9 if n else abs(m.to_dense(t) - arr) < 1e-9


def test_dense_limit_enforced():
    m = TddManager([(f"x{k}", KIND_WIRE) for k in range(25)])
    with pytest.raises(DenseLimitError):
        m.from_dense(np.zeros((2,) * 21), [m.index(f"x{k}") for k in range(21)])


def _direct(m, arr, idx):
    """The build ``from_dense`` replays: ``_from_dense_rec`` in rank order."""
    order = sorted(range(len(idx)), key=lambda k: -idx[k].rank)
    arr = np.transpose(np.asarray(arr, dtype=complex), order)
    return Tdd(m._from_dense_rec(arr, [idx[k] for k in order]),
               tuple(idx[k] for k in order))


def _bits(w):
    return complex(w).real.hex(), complex(w).imag.hex()


def _table(m, t):
    """Unique table in insertion order and root of ``t``, nodes by position."""
    pos = {m.terminal: 0}
    rows = []
    for key, node in m._unique.items():
        rows.append((node.index.name, key[1], pos[key[2]], key[3], pos[key[4]],
                     _bits(node.low.weight), pos[node.low.node],
                     _bits(node.high.weight), pos[node.high.node]))
        pos[node] = len(rows)
    return (rows, t.root is m.zero, _bits(t.root.weight), pos[t.root.node],
            [i.name for i in t.indices])


_PALETTE = np.array([0.0, 1.0, -1.0, 1j, 0.5 - 0.5j, 1e3, 1e-7,
                     3e-10, -4e-10j, 7e-10])    # 3e-10 and 4e-10 are grid zero


def _structured_tensor(rng, n):
    """All zeros, palette values or random ones, with repeated sub-blocks."""
    kind = rng.integers(3)
    if kind == 0:
        return np.zeros((2,) * n, dtype=complex)
    if kind == 1:
        arr = _PALETTE[rng.integers(len(_PALETTE), size=(2,) * n)]
    else:
        arr = rand_tensor(rng, range(n))
    for _ in range(int(rng.integers(0, n + 1))):
        # one half along an axis repeats the other, scaled; 2e-13 makes
        # ratios that snap to zero
        ax = int(rng.integers(n))
        src = arr[(slice(None),) * ax + (0,)]
        arr[(slice(None),) * ax + (1,)] = src * (1, -1, 1j, 2e-13)[rng.integers(4)]
    return arr


def test_from_dense_replays_the_direct_build():
    # node for node, with bitwise-equal weights, in a fresh manager and in
    # managers already holding nodes with the same keys
    rng = np.random.default_rng(53)
    held_a, held_b = mgr(6), mgr(6)
    for trial in range(200):
        n = int(rng.integers(0, 7))
        perm = [int(k) for k in rng.permutation(6)[:n]]
        arr = _structured_tensor(rng, n)
        near = arr * (1 + 1e-13)   # grid-equal to arr, bitwise different
        fresh_a, fresh_b = mgr(6), mgr(6)
        for ma, mb in ((fresh_a, fresh_b), (held_a, held_b)):
            ia = [ma.index(f"x{k}") for k in perm]
            ib = [mb.index(f"x{k}") for k in perm]
            if trial % 3 == 0:    # nodes made by mk_edge itself
                _direct(ma, near * 3, ia)
                _direct(mb, near * 3, ib)
            for x in (arr, near):
                assert _table(ma, ma.from_dense(x, ia)) == _table(mb, _direct(mb, x, ib))
    assert len(held_a._unique) > 500


def test_from_dense_hits_the_recipe_cache():
    m = mgr(3)
    idx = [m.index("x2"), m.index("x0"), m.index("x1")]
    arr = rand_tensor(np.random.default_rng(59), idx)
    before = _recipe.cache_info()
    t1 = m.from_dense(arr, idx)
    first = _recipe.cache_info()
    assert (first.hits, first.misses) == (before.hits, before.misses + 1)
    t2 = m.from_dense(arr.copy(), idx)
    other = mgr(3)
    t3 = other.from_dense(arr, [other.index(i.name) for i in idx])
    again = _recipe.cache_info()
    assert (again.hits, again.misses) == (first.hits + 2, first.misses)
    assert t2.root.node is t1.root.node and m.identical(t1, t2)
    assert np.allclose(other.to_dense(t3), m.to_dense(t1))


def test_wide_from_dense_is_not_cached():
    m = mgr(12)
    idx = [m.index(f"x{k}") for k in range(12)]
    arr = rand_tensor(np.random.default_rng(61), idx)
    before = _recipe.cache_info().currsize
    t = m.from_dense(arr, idx)
    assert _recipe.cache_info().currsize == before
    assert np.allclose(m.to_dense(t), arr)


def test_from_dense_rejects_a_repeated_index():
    m = mgr(2)
    with pytest.raises(TddError, match="repeated index"):
        m.from_dense(np.eye(2), [m.index("x0"), m.index("x0")])


def test_slice_hadamard():
    m = mgr(2)
    x0, x1 = m.index("x0"), m.index("x1")
    h = m.from_dense(H_ARR, [x0, x1])
    s = m.slice(h, x0, 0)
    assert s.indices == (x1,)
    assert np.allclose(m.to_dense(s), [SQ2, SQ2])


def test_slice_absent_index_is_noop():
    m = mgr(3)
    idx = [m.index("x0"), m.index("x1")]
    t = m.from_dense(np.arange(4, dtype=float).reshape(2, 2), idx)
    assert m.slice(t, m.index("x2"), 1) is t


def test_slice_reconstruction_random():
    rng = np.random.default_rng(11)
    m = mgr(5)
    names = [m.index(f"x{k}") for k in range(5)]
    for _ in range(25):
        arr = rand_tensor(rng, names)
        t = m.from_dense(arr, names)
        x = names[int(rng.integers(0, 5))]
        c = int(rng.integers(0, 2))
        ref, _ = dense_slice(arr, names, x, c)
        got = m.to_dense(m.slice(t, x, c))
        assert np.max(np.abs(got - ref)) < 1e-9


def test_add_identity_and_cancellation():
    m = mgr(3)
    names = [m.index(f"x{k}") for k in range(3)]
    rng = np.random.default_rng(3)
    arr = rand_tensor(rng, names)
    t = m.from_dense(arr, names)
    zero = m.from_dense(np.zeros((2, 2, 2)), names)
    assert m.identical(m.add(t, zero), t)
    neg = m.from_dense(-arr, names)
    out = m.add(t, neg)
    assert out.root.weight == 0.0 and out.root.node is m.terminal


def test_add_random_mixed_indices():
    rng = np.random.default_rng(5)
    m = mgr(6)
    allnames = [m.index(f"x{k}") for k in range(6)]
    for _ in range(40):
        na = sorted(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        nb = sorted(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        an = [allnames[k] for k in na]
        bn = [allnames[k] for k in nb]
        a = rand_tensor(rng, an)
        b = rand_tensor(rng, bn)
        ref, union = dense_add(a, an, b, bn)
        t = m.add(m.from_dense(a, an), m.from_dense(b, bn))
        got = m.to_dense(t)
        ref_t = np.transpose(ref, [union.index(i) for i in t.indices])
        assert np.max(np.abs(got - ref_t)) < 1e-9


def test_contract_h_h_is_identity():
    m = mgr(3)
    x0, x1, x2 = (m.index(f"x{k}") for k in range(3))
    h1 = m.from_dense(H_ARR, [x0, x1])
    h2 = m.from_dense(H_ARR, [x1, x2])
    out = m.contract(h1, h2, {x1})
    assert np.allclose(m.to_dense(out), np.eye(2))


def test_contract_h_on_ket0():
    m = mgr(2)
    x0, x1 = m.index("x0"), m.index("x1")
    ket0 = m.from_dense(np.array([1.0, 0.0]), [x1])
    h = m.from_dense(H_ARR, [x0, x1])
    out = m.contract(h, ket0, {x1})
    assert np.allclose(m.to_dense(out), [SQ2, SQ2])


def test_contract_random_vs_dense_oracle():
    rng = np.random.default_rng(13)
    m = mgr(5)
    allnames = [m.index(f"x{k}") for k in range(5)]
    for _ in range(100):
        na = sorted(rng.choice(5, size=int(rng.integers(1, 5)), replace=False))
        nb = sorted(rng.choice(5, size=int(rng.integers(1, 5)), replace=False))
        an = [allnames[k] for k in na]
        bn = [allnames[k] for k in nb]
        common = [x for x in an if x in bn]
        k = int(rng.integers(0, len(common) + 1)) if common else 0
        shared = list(rng.choice(len(common), size=k, replace=False)) if k else []
        shared = [common[i] for i in shared]
        a = rand_tensor(rng, an)
        b = rand_tensor(rng, bn)
        ref, keep = dense_contract(a, an, b, bn, shared)
        t = m.contract(m.from_dense(a, an), m.from_dense(b, bn), shared)
        got = m.to_dense(t)
        if keep:
            perm = [keep.index(i) for i in t.indices]
            assert np.max(np.abs(got - np.transpose(ref, perm))) < 1e-8
        else:
            assert abs(complex(got) - complex(ref)) < 1e-8


def test_norm_values():
    m = mgr(3)
    names = [m.index(f"x{k}") for k in range(3)]
    rng = np.random.default_rng(23)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state /= np.linalg.norm(state)
    t = m.from_dense(state.reshape(2, 2, 2), names)
    assert abs(m.norm(t) - 1.0) < 1e-9
    zero = m.from_dense(np.zeros((2, 2, 2)), names)
    assert m.norm(zero) == 0.0
    m2 = mgr(2)
    h = m2.from_dense(H_ARR, [m2.index("x0"), m2.index("x1")])
    assert abs(m2.norm(h) - 2.0) < 1e-12  # four entries of squared magnitude 1/2


def test_norm_matches_dense_with_skipped_indices():
    rng = np.random.default_rng(29)
    m = mgr(4)
    names = [m.index(f"x{k}") for k in range(4)]
    arr = rand_tensor(rng, names[:2])
    t = m.from_dense(arr, names[:2])
    wide = Tdd(t.root, tuple(names))  # two extra indices the tensor ignores
    assert abs(m.norm(wide) - 4 * dense_norm(arr)) < 1e-8


def test_norm_of_long_chain_is_iterative():
    # 1000 nodes with weights (1, 0.5j) on 1500 declared indices; every third
    # index is skipped and contributes a factor 2
    n = 1500
    m = mgr(n)
    e = m.one
    for k in reversed(range(n)):
        if k % 3 != 2:
            e = m.mk_edge(m.index(f"x{k}"), e, TddEdge(0.5j * e.weight, e.node))
    t = m.tdd(e, [m.index(f"x{k}") for k in range(n)])
    assert m.node_count(t) == 1001
    assert math.isclose(m.norm(t), 2.0 ** 500 * 1.25 ** 1000, rel_tol=1e-9)


def test_norm_rejects_undeclared_node_index():
    m = mgr(3)
    names = [m.index(f"x{k}") for k in range(3)]
    t = m.from_dense(rand_tensor(np.random.default_rng(3), names), names)
    with pytest.raises(TddError):   # x1 missing between x0 and x2
        m.norm_edge(t.root, (names[0], names[2]))
    with pytest.raises(TddError):   # x2 below every declared index
        m.norm_edge(t.root, (names[0], names[1]))


def test_identical_basics():
    m = mgr(2)
    names = [m.index("x0"), m.index("x1")]
    t = m.from_dense(H_ARR, names)
    assert m.identical(t, t)
    other = m.from_dense(np.eye(2), names)
    assert not m.identical(t, other)
    assert not np.allclose(m.to_dense(t), m.to_dense(other))


def test_identical_rejects_cross_manager():
    m1, m2 = mgr(2), mgr(2)
    t1 = m1.from_dense(H_ARR, [m1.index("x0"), m1.index("x1")])
    t2 = m2.from_dense(H_ARR, [m2.index("x0"), m2.index("x1")])
    with pytest.raises(TddError):
        m1.identical(t1, t2)
    z2 = m2.scalar(0.5)
    with pytest.raises(TddError):
        m1.identical(m1.scalar(0.5), z2)


def test_canonicity_dense_equality_iff_identical():
    # grid-valued random tensors: equal arrays must share the root node,
    # different arrays must not
    rng = np.random.default_rng(31)
    m = mgr(6)
    names = [m.index(f"x{k}") for k in range(6)]
    for _ in range(120):
        n = int(rng.integers(1, 7))
        idx = names[:n]
        a = rand_tensor(rng, idx, grid=1e-3)
        t1 = m.from_dense(a, idx)
        if rng.random() < 0.5:
            b = a.copy()
        else:
            b = a.copy()
            pos = tuple(rng.integers(0, 2, size=n))
            b[pos] += 0.25
        t2 = m.from_dense(b, idx)
        assert m.identical(t1, t2) == bool(np.array_equal(a, b))
    # contract and add give the very diagram from_dense builds of the dense
    # result: same root node and grid-equal root weight
    for _ in range(60):
        an = [names[k] for k in sorted(rng.choice(5, size=int(rng.integers(1, 5)), replace=False))]
        bn = [names[k] for k in sorted(rng.choice(5, size=int(rng.integers(1, 5)), replace=False))]
        common = [x for x in an if x in bn]
        shared = [x for x in common if rng.random() < 0.6]
        a = rand_tensor(rng, an, grid=1e-3)
        b = rand_tensor(rng, bn, grid=1e-3)
        ta, tb = m.from_dense(a, an), m.from_dense(b, bn)
        ref, keep = dense_contract(a, an, b, bn, shared)
        assert m.identical(m.contract(ta, tb, shared), m.from_dense(ref, keep))
        ref, union = dense_add(a, an, b, bn)
        assert m.identical(m.add(ta, tb), m.from_dense(ref, union))


def test_shannon_reconstruction():
    rng = np.random.default_rng(37)
    m = mgr(4)
    names = [m.index(f"x{k}") for k in range(4)]
    arr = rand_tensor(rng, names)
    t = m.from_dense(arr, names)
    x = names[0]
    lo = m.to_dense(m.slice(t, x, 0))
    hi = m.to_dense(m.slice(t, x, 1))
    assert np.max(np.abs(arr[0] - lo)) < 1e-9
    assert np.max(np.abs(arr[1] - hi)) < 1e-9


def test_contract_bilinear():
    rng = np.random.default_rng(41)
    m = mgr(4)
    names = [m.index(f"x{k}") for k in range(4)]
    a = rand_tensor(rng, names[:3])
    b = rand_tensor(rng, names[:3])
    c = rand_tensor(rng, names[1:])
    ta, tb, tc = (m.from_dense(v, i) for v, i in
                  ((a, names[:3]), (b, names[:3]), (c, names[1:])))
    shared = {names[1], names[2]}
    lhs = m.contract(m.add(ta, tb), tc, shared)
    rhs = m.add(m.contract(ta, tc, shared), m.contract(tb, tc, shared))
    assert np.max(np.abs(m.to_dense(lhs) - m.to_dense(rhs))) < 1e-8
    assert m.identical(lhs, rhs)


def test_norm_nonnegative_and_zero_iff_zero():
    rng = np.random.default_rng(43)
    m = mgr(3)
    names = [m.index(f"x{k}") for k in range(3)]
    for _ in range(20):
        arr = rand_tensor(rng, names)
        t = m.from_dense(arr, names)
        assert m.norm(t) >= 0.0
        assert (m.norm(t) == 0.0) == (t.root.weight == 0.0 and t.root.node is m.terminal)


def test_contract_and_add_snap_grid_zero_roots():
    # hand-built roots whose weight is grid zero; the large weight of the
    # other operand would lift an unsnapped 1e-12 root above the grid
    m = mgr(2)
    names = [m.index("x0"), m.index("x1")]
    h = m.from_dense(H_ARR, names)
    tiny = Tdd(TddEdge(1e-12 + 0j, h.root.node), h.indices)
    big = Tdd(TddEdge(1e6 + 0j, h.root.node), h.indices)
    assert m.contract(tiny, big, [names[1]]).root is m.zero
    assert m.contract(big, tiny, names).root is m.zero
    assert m.add(tiny, m.from_dense(np.zeros((2, 2)), names)).root is m.zero
    assert m.add(tiny, Tdd(TddEdge(-1e-12 + 0j, h.root.node), h.indices)).root is m.zero


def _sparse_tensor(rng, names):
    """Random tensor with some slices zeroed, shrunk below the grid, or
    shrunk to 1e-5, so that a product of two such slices is grid zero;
    also whether no slice was shrunk to 1e-5."""
    arr = rand_tensor(rng, names)
    exact = True
    for axis in range(len(names)):
        if rng.random() < 0.5:
            part = [slice(None)] * len(names)
            part[axis] = int(rng.integers(2))
            scale = rng.choice([0.0, 1e-10, 1e-5])
            arr[tuple(part)] *= scale
            exact = exact and scale != 1e-5
    return arr, exact


def test_grid_zero_edge_is_the_zero_edge():
    # the kernels test for zero by identity: an edge is grid zero if and
    # only if it is the manager's zero edge, for every child of every unique
    # node and every result root
    rng = np.random.default_rng(53)
    m = mgr(6)
    allnames = [m.index(f"x{k}") for k in range(6)]
    letter = {x: chr(ord("a") + k) for k, x in enumerate(allnames)}
    edges = []
    for _ in range(150):
        an, bn = ([allnames[k] for k in sorted(rng.choice(
            6, size=int(rng.integers(1, 7)), replace=False))] for _ in range(2))
        (a, exact_a), (b, exact_b) = _sparse_tensor(rng, an), _sparse_tensor(rng, bn)
        ta, tb = m.from_dense(a, an), m.from_dense(b, bn)
        shared = [x for x in an if x in bn and rng.random() < 0.5]
        t = m.contract(ta, tb, shared)
        if exact_a and exact_b:
            # a 1e-5 slice can leave a root weight below the absolute grid
            # (normalisation by the first nonzero weight), so those
            # operands are left out of the dense comparison
            spec = ",".join("".join(letter[x] for x in legs) for legs in (an, bn))
            want = np.einsum(f"{spec}->{''.join(letter[x] for x in t.indices)}", a, b)
            assert np.max(np.abs(m.to_dense(t) - want), initial=0.0) < 1e-8
        edges += [t.root, m.add(ta, tb).root, m.add(ta, m.from_dense(-a, an)).root,
                  m.slice(ta, an[0], int(rng.integers(2))).root]
    for node in m._unique.values():
        edges += [node.low, node.high]
    for e in edges:
        assert (wkey(e.weight) == ZERO_KEY) == (e is m.zero)


def test_node_count():
    m = mgr(3)
    names = [m.index(f"x{k}") for k in range(3)]
    arr = np.random.default_rng(47).standard_normal((2, 2, 2))
    t = m.from_dense(arr, names)
    assert m.node_count(t) >= 2
