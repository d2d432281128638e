"""Reproduce the benchmark table.

Every row is checked on its fixed-input specs.  QFT rows start the top
qubits in a "+0+" pattern (the rest in |0>).  From n = 4 on every qubit's
entries are the same tensors on both sides, so the check discards them
all, contracts nothing and reports 1 node ("m_nodes"); the same netlists
compiled whole, with nothing discarded, peak at a diagram that doubles
with n ("undiscarded").  The "nodes" column of a QFT row is the
conventional circuit's diagram in operator form (all input wires open,
per-qubit interleaved order), 2^(n+1) - 1 nodes.

Pass a size limit as the first argument (default 10; 12 matches the
acceptance bound and takes a few seconds more).
"""

import sys
import time

from tddeq import check, compile_spec
from tddeq.benchmarks import pe_pair, qec_suite, qft_pair, _default_phi
from tddeq.encode import evaluate, prepare

max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 10


def undiscarded(pair, mode):
    """Peak diagram of either side compiled whole, nothing discarded."""
    mgr, nets = prepare([pair.spec_a, pair.spec_b], mode=mode)
    return max(evaluate(mgr, net).stats.max_nodes for net in nets)


head = f"{'benchmark':<16}{'mode':<6}{'verdict':<13}{'tdd_time':>9}{'time':>8}" \
       f"{'nodes':>8}{'m_nodes':>9}{'undiscarded':>13}"
print(head)
print("-" * len(head))

for n in range(2, max_n + 1):
    pair = qft_pair(n, ("0" * n + "+0+")[-n:])
    t0 = time.perf_counter()
    v, r = check(pair.spec_a, pair.spec_b, "m")
    dt = time.perf_counter() - t0
    nodes = compile_spec(pair.spec_a, order="interleaved",
                         open_inputs=True).stats.final_nodes
    print(f"{pair.name:<16}{'m':<6}{v.status:<13}{r.tdd_time:>9.2f}{dt:>8.2f}"
          f"{nodes:>8}{r.max_nodes:>9}{undiscarded(pair, 'm'):>13}")

for n in range(2, min(max_n, 7) + 1):
    pair = pe_pair(n, _default_phi(n))
    t0 = time.perf_counter()
    v, r = check(pair.spec_a, pair.spec_b, "m")
    dt = time.perf_counter() - t0
    print(f"{pair.name:<16}{'m':<6}{v.status:<13}{r.tdd_time:>9.2f}{dt:>8.2f}"
          f"{r.final_nodes:>8}{r.max_nodes:>9}{undiscarded(pair, 'm'):>13}")

for pair in qec_suite():
    t0 = time.perf_counter()
    v, r = check(pair.spec_a, pair.spec_b, pair.mode)
    dt = time.perf_counter() - t0
    print(f"{pair.name:<16}{pair.mode:<6}{v.status:<13}{r.tdd_time:>9.2f}{dt:>8.2f}"
          f"{r.final_nodes:>8}{r.max_nodes:>9}{undiscarded(pair, pair.mode):>13}")
