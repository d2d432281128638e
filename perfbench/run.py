"""Benchmark of tddeq: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--plan basic|partitioned]

Run from the root of a checkout; the program is imported from ``src/``.
One process, one thread: each operation starts when the previous one has
returned.  Set-up (import of tddeq, generation of the workload, reference
answers) is repeated and its median reported as ``setup_s``.

``--trace 0`` runs operations for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` repeats the workload's trace prefix, alternating an
untraced and a traced pass, and reports per-layer self time and calls per
operation, table sizes and the tracing overhead; spans of the first traced
pass are written to ``.bench_out/``.  Every answer is graded against the
known one.  The last line of stdout is the JSON result, the line before it
a JSON detail record; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("qft_fixed", "operator_build", "peel_heavy", "mixed_small")
SETUP_REPS = 3

# Tail percentile per workload, held fixed so runs stay comparable: a rung
# of LADDER with at least ten samples beyond it, with margin, at the
# operation counts of the baseline (see README.md).  A run with too few
# samples drops to the highest lower rung that has ten.
TAIL_PCT = {"qft_fixed": 75.0, "operator_build": 75.0, "peel_heavy": 75.0,
            "mixed_small": 99.0}
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for layer, _ in LAYERS:
        out += [(f"{layer}.self_s", "s/op"), (f"{layer}.calls", "calls/op")]
    out += [("encode.max_nodes", "nodes/op"), ("encode.final_nodes", "nodes/op"),
            ("tdd.unique.size", "entries/op"), ("tdd.cont_cache.size", "entries/op"),
            ("tdd.add_cache.size", "entries/op"),
            ("equivalence.fallback_rate", "ratio"),
            ("equivalence.discarded", "pieces/op"),
            ("oracle.reference.self_s", "s"), ("oracle.reference.calls", "calls"),
            ("trace.overhead", "ratio")]
    return out


def _use_checkout_src():
    init = SRC / "tddeq" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a tddeq checkout")
    sys.path.insert(0, str(SRC))


def _setup_once(name: str, seed: int):
    """Import tddeq afresh, build the workload and its answers."""
    for mod in [m for m in sys.modules
                if m in ("tddeq", "workloads") or m.startswith("tddeq.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    wmod = importlib.import_module("workloads")
    wl = wmod.BUILDERS[name](seed)
    return wmod, wl, time.perf_counter() - t0


def _percentile(sorted_vals, pct):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def _tail(sorted_vals, pct):
    """(percentile, value) at ``pct``, or at the highest lower rung of the
    ladder that leaves at least ten samples beyond it (the median when
    none does)."""
    n = len(sorted_vals)
    for p in LADDER:
        if p <= pct and n - math.ceil(p / 100.0 * n) >= 10:
            break
    else:
        p = 50.0
    return p, _percentile(sorted_vals, p)


class Grades:
    def __init__(self):
        self.counts = {"right": 0, "wrong": 0, "undecided": 0}
        self.examples: list[str] = []

    def add(self, op, out):
        self.counts[out.status] += 1
        if out.status != "right" and len(self.examples) < 5:
            self.examples.append(f"{out.status}: {op.label} {out.error}".strip())

    @property
    def attempted(self):
        return sum(self.counts.values())


def run_timed(wmod, wl, seconds, plan, grades):
    times = []
    ops = wl.ops
    start = time.perf_counter()
    k = 0
    while True:
        op = ops[k % len(ops)]
        t0 = time.perf_counter()
        out = wmod.run_op(op, plan)
        times.append(time.perf_counter() - t0)
        grades.add(op, out)
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    times.sort()
    pct, tail = _tail(times, TAIL_PCT[wl.name])
    metrics = {"op_s.p50": _percentile(times, 50.0), "op_s.tail": tail,
               "ops_per_s": len(times) / elapsed}
    info = {"samples": len(times), "tail_percentile": pct, "elapsed_s": elapsed}
    return metrics, info


def run_traced(wmod, wl, seconds, plan, grades, seed):
    prefix = wl.ops[:wl.trace_ops]
    tr = Tracer()
    plain_s = traced_s = 0.0
    traced_ops = checks_partitioned = 0
    sums = dict.fromkeys(("max_nodes", "final_nodes", "unique", "cont", "add",
                          "fallback", "discarded"), 0)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in prefix:
            grades.add(op, wmod.run_op(op, plan))
        plain_s += time.perf_counter() - t0
        tr.install()
        t0 = time.perf_counter()
        try:
            for op in prefix:
                out = wmod.run_op(op, plan)
                tr.op += 1
                grades.add(op, out)
                sums["max_nodes"] += out.max_nodes
                sums["final_nodes"] += out.final_nodes
                sums["fallback"] += out.fallback
                sums["discarded"] += out.discarded
                for mgr in tr.managers:
                    sums["unique"] += len(mgr._unique)
                    sums["cont"] += len(mgr._cont_cache)
                    sums["add"] += len(mgr._add_cache)
                tr.managers.clear()
                if op.mode != "build" and plan == "partitioned":
                    checks_partitioned += 1
        finally:
            traced_s += time.perf_counter() - t0
            tr.uninstall()
        traced_ops += len(prefix)
        if time.perf_counter() - start >= seconds:
            break
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tr.write(span_file, len(prefix))
    metrics = {}
    for layer, (self_s, calls) in tr.self_times().items():
        metrics[f"{layer}.self_s"] = self_s / traced_ops
        metrics[f"{layer}.calls"] = calls / traced_ops
    metrics.update({
        "encode.max_nodes": sums["max_nodes"] / traced_ops,
        "encode.final_nodes": sums["final_nodes"] / traced_ops,
        "tdd.unique.size": sums["unique"] / traced_ops,
        "tdd.cont_cache.size": sums["cont"] / traced_ops,
        "tdd.add_cache.size": sums["add"] / traced_ops,
        "equivalence.fallback_rate": (sums["fallback"] / checks_partitioned
                                      if checks_partitioned else 0.0),
        "equivalence.discarded": sums["discarded"] / traced_ops,
        "oracle.reference.self_s": wl.oracle_s,
        "oracle.reference.calls": wl.oracle_calls,
        "trace.overhead": traced_s / plain_s,
    })
    info = {"traced_ops": traced_ops, "trace_prefix": len(prefix),
            "untraced_s": plain_s, "traced_s": traced_s,
            "spans": len(tr.spans), "span_file": str(span_file.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--plan", choices=("basic", "partitioned"), default="basic",
                    help="plan of every pair check (default basic)")
    args = ap.parse_args(argv)
    _use_checkout_src()

    setup_times = []
    for _ in range(SETUP_REPS):
        wmod, wl, dt = _setup_once(args.workload, args.seed)
        setup_times.append(dt)
    import tddeq
    if not Path(tddeq.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: tddeq was imported from {tddeq.__file__}, not {SRC}")

    grades = Grades()
    if args.trace:
        metrics, info = run_traced(wmod, wl, args.seconds, args.plan, grades,
                                   args.seed)
        units = dict(per_layer_units())
    else:
        metrics, info = run_timed(wmod, wl, args.seconds, args.plan, grades)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)

    c = grades.counts
    n = grades.attempted
    detail = {"workload": args.workload, "seed": args.seed, "plan": args.plan,
              "trace": args.trace, "ops_in_workload": len(wl.ops),
              "right": c["right"], "wrong": c["wrong"],
              "undecided": c["undecided"], "wrong_rate": c["wrong"] / n,
              "undecided_rate": c["undecided"] / n,
              "setup_reps_s": setup_times, "examples": grades.examples, **info}
    result = {"correct": c["wrong"] == 0 and c["undecided"] == 0,
              "attempted": n, "failed": c["wrong"] + c["undecided"],
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    for k, u in units.items():
        print(f"{args.workload:>15} {k:<32} {metrics[k]:>14.6g} {u}",
              file=sys.stderr)
    print(f"{args.workload:>15} wrong_rate {detail['wrong_rate']:.4g}  "
          f"undecided_rate {detail['undecided_rate']:.4g}  attempted {n}",
          file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
