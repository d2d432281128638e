"""Equivalence checking: the measurement-distribution and output-state modes.

Compares conventional and dynamic phase estimation (m-mode), teleportation
against a plain SWAP (q-mode), shows how many qubits a check discards
before it compiles, and how a dropped correction is caught with an
oracle-checkable witness.
"""

import random

from tddeq import check
from tddeq.benchmarks import (bitflip_pair, mutations, pe_pair, qft_pair,
                              state_inject_pair, teleport_pair)
from tddeq.circuits import validate
from tddeq.oracle import oracle_q_eq

print("== m-equivalence: conventional vs dynamic phase estimation ==")
pair = pe_pair(3, 0.625)
verdict, report = check(pair.spec_a, pair.spec_b, "m")
print(f"  {pair.name}: {verdict.status}  "
      f"(max {report.max_nodes} nodes, {report.total_time:.3f}s)")

print("\n== q-equivalence: teleportation vs SWAP, codes, injection ==")
for pair in (teleport_pair(), bitflip_pair("q2"), state_inject_pair("T")):
    verdict, report = check(pair.spec_a, pair.spec_b, "q")
    print(f"  {pair.name}: {verdict.status}")

print("\n== groups of qubits with identical entries on both sides are discarded ==")
# QFT against its semiclassical version on this input: every qubit's
# entries are the same tensors on both sides, so nothing is left to
# compile; teleportation's qubits all meet a measured outcome, which q-mode
# must peel, so none is discarded
for pair, mode in ((qft_pair(8, "00000+0+"), "m"), (teleport_pair(), "q")):
    verdict, report = check(pair.spec_a, pair.spec_b, mode)
    print(f"  {pair.name}: {verdict.status} (discarded {report.discarded} qubits, "
          f"max {report.max_nodes} nodes)")

print("\n== a dropped correction is caught ==")
rng = random.Random(5)
pair = teleport_pair()
for desc, mutated in mutations(pair.spec_a, rng):
    if validate(mutated) or oracle_q_eq(mutated, pair.spec_b):
        continue
    verdict, report = check(mutated, pair.spec_b, "q")
    print(f"  mutation: {desc}")
    print(f"  checker: {verdict.status}, witness: {verdict.witness}")
    print(f"  dense oracle agrees: {not oracle_q_eq(mutated, pair.spec_b)}")
    break
