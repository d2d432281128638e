"""Tensor decision diagram basics.

Builds a few small diagrams, shows canonicity, slicing, contraction and the
norm, and the normalised successor weights of the Hadamard root node.
"""

import numpy as np

from tddeq import KIND_WIRE, TddManager

SQ2 = 1.0 / np.sqrt(2.0)

# one manager = one global index order, listed root-first
mgr = TddManager([("x1", KIND_WIRE), ("x2", KIND_WIRE), ("x3", KIND_WIRE)])
x1, x2, x3 = mgr.index("x1"), mgr.index("x2"), mgr.index("x3")

print("== the Hadamard gate as a diagram ==")
h = mgr.from_dense(np.array([[SQ2, SQ2], [SQ2, -SQ2]]), [x1, x2])
print("root weight:", h.root.weight, "(the 1/sqrt(2) prefactor)")
print("node count (terminal included):", mgr.node_count(h))
node = h.root.node
print(f"root node {node}: low weight {node.low.weight}, high weight {node.high.weight}")

print("\n== slicing = cofactors ==")
print("H | x1=0 :", mgr.to_dense(mgr.slice(h, x1, 0)))
print("H | x1=1 :", mgr.to_dense(mgr.slice(h, x1, 1)))

print("\n== contraction generalises matrix multiplication ==")
h2 = mgr.from_dense(np.array([[SQ2, SQ2], [SQ2, -SQ2]]), [x2, x3])
hh = mgr.contract(h, h2, {x2})
print("H @ H =\n", np.round(mgr.to_dense(hh).real, 12))

print("\n== canonicity: equal tensors share one node ==")
rng = np.random.default_rng(1)
arr = np.round(rng.standard_normal((2, 2, 2)), 3)
t1 = mgr.from_dense(arr, [x1, x2, x3])
t2 = mgr.from_dense(arr.copy(), [x1, x2, x3])
print("same root object:", t1.root.node is t2.root.node)
print("identical():", mgr.identical(t1, t2))

print("\n== norm = sum of squared magnitudes ==")
state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
state /= np.linalg.norm(state)
t = mgr.from_dense(state.reshape(2, 2, 2), [x1, x2, x3])
print("norm of a normalised 3-qubit state:", mgr.norm(t))
print("norm of the H diagram (4 entries of 1/2):", mgr.norm(h))
