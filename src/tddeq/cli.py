"""Command line front end.

``tddeq check A B --mode m|q|full`` decides equivalence of two circuit files
and exits 0 (equivalent), 1 (not equivalent) or 2 (error / inconclusive).
Both circuits are checked as specified, fixed initial states included.
``--eps`` bounds the m-mode total-variation distance, ``0 <= eps < 1``.
``tddeq bench --suite qft|pe|qec|all`` reproduces the benchmark table, every
row checked on its fixed-input specs; each row carries the construction
statistics of the conventional-circuit baseline ("nodes", circuit A with all
input wires open in the interleaved order) next to the checker's peak
diagram size ("m_nodes": the largest diagram the check built, the compile
of what the discard pass left and any fallback included).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import benchmarks
from .circuits import CircuitSpec, Verdict
from .encode import compile_spec
from .equivalence import check, valid_eps
from .oracle import OracleScaleError, oracle_full_eq
from .textfmt import ParseError, parse

EXIT_EQ, EXIT_NEQ, EXIT_ERR = 0, 1, 2


def _baseline_nodes(spec: CircuitSpec) -> int | None:
    """Final diagram size of the circuit built the way the conventional
    baseline builds it: all input wires open, per-qubit interleaved order."""
    try:
        return compile_spec(spec, order="interleaved", open_inputs=True,
                            max_open=30).stats.final_nodes
    except Exception:
        return None


def _report_record(name, mode, verdict: Verdict, tdd_time, total,
                   nodes, m_nodes) -> dict:
    rec = {"benchmark": name, "mode": mode, "verdict": verdict.status,
           "tdd_time": round(tdd_time, 2), "time": round(total, 2),
           "nodes": nodes, "m_nodes": m_nodes}
    if verdict.status == "not-equivalent" and verdict.witness:
        rec["witness"] = verdict.witness
    if verdict.status == "inconclusive":
        rec["reason"] = verdict.reason
    return rec


def cmd_check(args) -> int:
    try:
        with open(args.file_a, "rb") as fh:
            spec_a = parse(fh.read().decode("utf-8", errors="strict"))
        with open(args.file_b, "rb") as fh:
            spec_b = parse(fh.read().decode("utf-8", errors="strict"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERR
    if args.mode == "full":
        try:
            equal = oracle_full_eq(spec_a, spec_b)
        except (OracleScaleError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERR
        verdict = Verdict.equivalent() if equal else Verdict.not_equivalent("choi-mismatch")
        rec = _report_record(f"{args.file_a}|{args.file_b}", "full",
                             verdict, 0.0, 0.0, None, None)
        print(json.dumps(rec))
        return EXIT_EQ if equal else EXIT_NEQ
    verdict, rep = check(spec_a, spec_b, args.mode, eps=args.eps)
    nodes = _baseline_nodes(spec_a)
    rec = _report_record(f"{args.file_a}|{args.file_b}", args.mode,
                         verdict, rep.tdd_time, rep.total_time,
                         nodes, rep.max_nodes)
    print(json.dumps(rec))
    return {"equivalent": EXIT_EQ, "not-equivalent": EXIT_NEQ}.get(
        verdict.status, EXIT_ERR)


def _name_key(name: str):
    head, _, tail = name.rpartition("_")
    if tail.isdigit():
        return (head, int(tail))
    return (name, -1)


def _bench_rows(pairs, eps):
    rows = []
    for pair in sorted(pairs, key=lambda p: _name_key(p.name)):
        try:
            verdict, rep = check(pair.spec_a, pair.spec_b, pair.mode, eps=eps)
            nodes = _baseline_nodes(pair.spec_a)
            rows.append(_report_record(pair.name, pair.mode, verdict,
                                       rep.tdd_time, rep.total_time,
                                       nodes, rep.max_nodes))
        except Exception as exc:  # keep going per row
            rows.append({"benchmark": pair.name, "mode": pair.mode,
                         "verdict": "inconclusive",
                         "reason": str(exc), "tdd_time": 0.0, "time": 0.0,
                         "nodes": None, "m_nodes": None})
    return rows


def cmd_bench(args) -> int:
    try:
        pairs = benchmarks.suite(args.suite, args.max_n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERR
    rows = _bench_rows(pairs, args.eps)
    for rec in rows:
        print(json.dumps(rec))
    print(_human_table(rows), file=sys.stderr)
    bad = [r for r in rows if r["verdict"] != "equivalent"]
    return EXIT_EQ if not bad else EXIT_NEQ


def _human_table(rows) -> str:
    head = f"{'benchmark':<18} {'mode':<4} {'verdict':<15} " \
           f"{'tdd_time':>8} {'time':>8} {'nodes':>8} {'m_nodes':>8}"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(f"{r['benchmark']:<18} {r['mode']:<4} "
                     f"{r['verdict']:<15} {r['tdd_time']:>8.2f} {r['time']:>8.2f} "
                     f"{str(r['nodes']):>8} {str(r['m_nodes']):>8}")
    return "\n".join(lines)


def _eps(text: str) -> float:
    try:
        return valid_eps(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tddeq",
                                 description="equivalence checking of dynamic "
                                             "quantum circuits with tensor "
                                             "decision diagrams")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("check", help="compare two circuit files")
    pc.add_argument("file_a")
    pc.add_argument("file_b")
    pc.add_argument("--mode", choices=["m", "q", "full"], default="m")
    pc.add_argument("--eps", type=_eps, default=None)
    pc.set_defaults(fn=cmd_check)

    pb = sub.add_parser("bench", help="run benchmark suites")
    pb.add_argument("--suite", choices=["qft", "pe", "qec", "all"], required=True)
    pb.add_argument("--max-n", type=int, default=12, dest="max_n")
    pb.add_argument("--eps", type=_eps, default=None)
    pb.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
