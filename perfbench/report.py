"""Print every end-to-end metric of every workload and run the correctness gate.

    python3 perfbench/report.py [--seeds 7] [--seconds 25] [--json FILE]

Runs ``run.py`` once per workload and seed (``--trace 0``), once more with
the first seed under ``--trace 1``, and repeats ``mixed_small`` under the
partitioned plan.  Each run is its own process, so ``peak_rss_mb`` belongs
to that workload alone.  Prints, per workload and plan, the median and
quartiles over the seeds of each end-to-end metric with its unit, the
wrong and undecided rates, and the per-layer self time and calls of the
traced run.  Exits 1 when any verdict was wrong or undecided.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CONFIGS = (("qft_fixed", "basic"), ("operator_build", "basic"),
           ("peel_heavy", "basic"), ("mixed_small", "basic"),
           ("mixed_small", "partitioned"))


def run_once(workload, plan, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--plan", plan]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="7", help="one seed or a range such as 1-10")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--json", help="write every run and summary to this file")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)

    records, summary, gate_failed = [], {}, False
    print(f"{'workload':<15} {'plan':<12} {'metric':<12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7}  unit")
    for workload, plan in CONFIGS:
        runs = [run_once(workload, plan, s, args.seconds, 0) for s in seeds]
        traced = run_once(workload, plan, seeds[0], args.seconds, 1)
        records += [{"workload": workload, "plan": plan, **r}
                    for r in runs + [traced]]
        key = f"{workload}/{plan}"
        summary[key] = {}
        for name, m in runs[0]["result"]["metrics"].items():
            s = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            summary[key][name] = {**s, "unit": m["unit"]}
            print(f"{workload:<15} {plan:<12} {name:<12} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>7.3f}  {m['unit']}")
        tails = sorted({r["detail"]["tail_percentile"] for r in runs})
        samples = [r["detail"]["samples"] for r in runs]
        print(f"{'':<28} op_s.tail is p{'/p'.join(f'{t:g}' for t in tails)} "
              f"of {min(samples)}-{max(samples)} operations per run")
        attempted = sum(r["detail"]["right"] + r["detail"]["wrong"]
                        + r["detail"]["undecided"] for r in runs + [traced])
        wrong = sum(r["detail"]["wrong"] for r in runs + [traced])
        undecided = sum(r["detail"]["undecided"] for r in runs + [traced])
        ok = wrong == 0 and undecided == 0
        gate_failed |= not ok
        summary[key]["gate"] = {"attempted": attempted,
                                "wrong_rate": wrong / attempted,
                                "undecided_rate": undecided / attempted}
        summary[key]["trace"] = traced["result"]["metrics"]
        print(f"{'':<28} gate {'PASS' if ok else 'FAIL'}: wrong_rate "
              f"{wrong / attempted:.4g}, undecided_rate {undecided / attempted:.4g} "
              f"of {attempted} ops")
        examples = sorted({e for r in runs for e in r["detail"]["examples"]})
        for ex in examples[:5]:
            print(f"{'':<30} {ex}")

    print(f"\nper layer (traced run, seed {seeds[0]}): self seconds and calls "
          "per operation")
    keys = [f"{w}/{p}" for w, p in CONFIGS]
    layers = [n[:-len(".self_s")] for n in summary[keys[0]]["trace"]
              if n.endswith(".self_s")]
    print(f"{'layer':<24}" + "".join(f"{k:>24}" for k in keys))
    for layer in layers:
        cells = []
        for k in keys:
            t = summary[k]["trace"]
            cells.append(f"{t[layer + '.self_s']['value']:.3g}s/"
                         f"{t[layer + '.calls']['value']:.4g}")
        print(f"{layer:<24}" + "".join(f"{c:>24}" for c in cells))
    other = [n for n in summary[keys[0]]["trace"]
             if not n.endswith((".self_s", ".calls"))]
    for name in other:
        cells = [f"{summary[k]['trace'][name]['value']:.4g}" for k in keys]
        unit = summary[keys[0]]["trace"][name]["unit"]
        print(f"{name:<24}" + "".join(f"{c:>24}" for c in cells) + f"  {unit}")

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seeds": seeds, "seconds": args.seconds, "summary": summary,
             "runs": records}, indent=1) + "\n")
    return 1 if gate_failed else 0


if __name__ == "__main__":
    sys.exit(main())
