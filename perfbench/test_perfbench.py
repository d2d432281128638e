"""Tests of the benchmark itself: its known answers, its gate, its counts.

    python3 -m pytest perfbench -q

The answers that ``qft_fixed`` and ``peel_heavy`` take from construction
are confirmed here against the dense oracle at sizes within its cap.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tddeq import benchmarks, oracle  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_qft_fixed_inputs_are_m_equivalent_by_oracle(seed):
    rng = random.Random(seed)
    for n, top in ((4, 2), (5, 3), (6, 4), (6, 5)):
        bits = W._qft_inputs(rng, n, top)
        assert bits.count("+") == 2 and bits[top] == "+"
        assert oracle.oracle_m_eq(benchmarks.qft(n, bits), benchmarks.dyn_qft(n, bits))


@pytest.mark.parametrize("bits", [5, 6, 8])
def test_peel_heavy_answers_match_oracle(bits):
    rng = random.Random(bits)
    for _ in range(3):
        chain, bare = W.injection_chain(rng, bits)
        assert chain.bits == bits
        assert oracle.oracle_q_eq(chain.spec(), bare)
        for kind, positions in chain.corrections.items():
            for drop in positions:
                assert not oracle.oracle_q_eq(chain.spec(drop), bare), (kind, drop)


def test_peel_heavy_dispatch_survives_text_round_trip():
    chain, bare = W.injection_chain(random.Random(0), 6)
    from tddeq import textfmt
    from tddeq.circuits import Branch, flatten, lower_controls
    spec = textfmt.parse(textfmt.print_spec(chain.spec()))
    steps = flatten(lower_controls(spec.circuit))
    assert sum(isinstance(s, Branch) for s in steps) == 2


def test_operator_build_expects_closed_form():
    wl = W.operator_build(3, rounds=1)
    assert sorted(op.expected for op in wl.ops) == [(1 << (n + 1)) - 1
                                                    for n in W.BUILD_SIZES]


def test_gate_grades_a_wrong_answer_as_wrong():
    wl = W.mixed_small(4, rounds=1)
    for op in wl.ops:
        assert W.run_op(op, "basic").status == W.RIGHT
        flipped = W.NEQ if op.expected == W.EQ else W.EQ
        bad = W.Op(op.label, op.mode, op.a, op.b, flipped)
        assert W.run_op(bad, "basic").status == W.WRONG
    build = W.operator_build(4, rounds=1).ops[0]
    off = W.Op(build.label, build.mode, build.a, None, build.expected + 1)
    assert W.run_op(off, "basic").status == W.WRONG


def test_unparsable_input_is_undecided():
    op = W.Op("broken", "m", "qubits q\ngate NOPE q\n", "qubits q\n", W.EQ)
    out = W.run_op(op, "basic")
    assert out.status == W.UNDECIDED and "ParseError" in out.error


def test_tail_percentile_leaves_ten_samples_beyond():
    vals = sorted(float(k) for k in range(1, 101))
    assert run._tail(vals, 99.0) == (90.0, 90.0)
    assert run._tail(vals, 75.0) == (75.0, 75.0)
    assert run._tail(vals[:15], 99.0) == (50.0, 8.0)


def test_benchmark_json_lists_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert list(W.BUILDERS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_units()
    assert doc["command"] == ["python3", "perfbench/run.py"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _counts(stdout: str) -> dict:
    metrics = json.loads(stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith(".self_s") and k != "trace.overhead"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1")
    first, second = _run(ROOT, *args), _run(ROOT, *args)
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    assert json.loads(first.stdout.splitlines()[-1])["correct"]
    assert _counts(first.stdout) == _counts(second.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "mixed_small", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
