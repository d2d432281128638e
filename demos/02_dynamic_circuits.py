"""Dynamic circuits and their ensemble semantics.

Builds teleportation in the branch form, inspects its operator ensemble,
verifies the wrapped circuit acts as the identity channel, and lowers the
four-way dispatch into classically controlled corrections.
"""

import numpy as np

from tddeq import CondGate, lower_controls, print_spec
from tddeq.benchmarks import dyn_pe, teleport
from tddeq.circuits import flatten
from tddeq.oracle import (identity_choi, outcome_distribution, semantics,
                          superoperator)
from tddeq.textfmt import expr_from_func

spec = teleport()
print("== teleportation, text form ==")
print(print_spec(spec))

print("== ensemble semantics ==")
members = semantics(spec.circuit, spec.qubits)
print(f"{len(members)} members, one per two-bit outcome record")
total = sum(m.op.conj().T @ m.op for m in members)
print("completeness  sum F^H F = I :", np.allclose(total, np.eye(8)))
for m in members:
    print("  record", dict(m.record))

print("\n== the wrapper: a superoperator from q to q2 ==")
choi = superoperator(spec)
print("Choi matrix equals the identity channel:",
      np.max(np.abs(choi - identity_choi(1))) < 1e-10)

print("\n== lowering the dispatch ==")
for st in flatten(lower_controls(spec.circuit)):
    if isinstance(st, CondGate):
        print(f"  classically controlled {st.gate.name} on {st.gate.qubits}, "
              f"when {expr_from_func(st.bits, st.func)}")

print("\n== dynamic phase estimation reads out the phase exactly ==")
for phi in (0.25, 0.625):
    dist = outcome_distribution(dyn_pe(3, phi))
    top = max(dist, key=dist.get)
    print(f"  phi={phi}: outcome {top} with probability {dist[top]:.9f}")
