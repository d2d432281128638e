"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest -s``).  Tolerances are fixed here and nowhere else.
"""

import random
import sys
import time

import numpy as np

from tddeq import benchmarks as B
from tddeq.circuits import validate
from tddeq.encode import compile_spec, evaluate, prepare
from tddeq.equivalence import check
from tddeq.oracle import (identity_choi, oracle_m_eq, oracle_q_eq,
                          outcome_distribution, superoperator)
from tddeq.tdd import KIND_WIRE, TddManager

from dense_ref import dense_add, dense_contract, dense_slice

ROW_TIME_LIMIT = 30.0


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {tag}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def _timed_check(spec_a, spec_b, mode, **kw):
    t0 = time.perf_counter()
    v, rep = check(spec_a, spec_b, mode, **kw)
    dt = time.perf_counter() - t0
    return v, rep, dt


def test_criterion_1_benchmark_verdicts():
    failures = []
    slow = []
    for n in range(2, 13):
        v, _, dt = _timed_check(B.qft(n), B.dyn_qft(n), "m")
        if v.status != "equivalent":
            failures.append(f"qft_{n}: {v.status}")
        if dt > ROW_TIME_LIMIT:
            slow.append(f"qft_{n}: {dt:.1f}s")
    for n in range(2, 8):
        phi = B._default_phi(n)
        v, _, dt = _timed_check(B.pe(n, phi), B.dyn_pe(n, phi), "m")
        if v.status != "equivalent":
            failures.append(f"PE_{n}: {v.status}")
        if dt > ROW_TIME_LIMIT:
            slow.append(f"PE_{n}: {dt:.1f}s")
    q_rows = ([B.bitflip_pair(e) for e in (None, "q0", "q1", "q2")]
              + [B.phaseflip_pair(e) for e in (None, "q0", "q1", "q2")]
              + [B.teleport_pair(), B.state_inject_pair("S"), B.state_inject_pair("T")])
    for pair in q_rows:
        v, _, dt = _timed_check(pair.spec_a, pair.spec_b, "q")
        if v.status != "equivalent":
            failures.append(f"{pair.name}: {v.status}")
        if dt > ROW_TIME_LIMIT:
            slow.append(f"{pair.name}: {dt:.1f}s")
    _report(1, "benchmark equivalence verdicts", not failures and not slow,
            "; ".join(failures + slow) or "qft 2..12, PE 2..7, QEC rows all equivalent")


def test_criterion_2_qft_node_counts():
    got = {}
    for n in range(2, 10):
        r = compile_spec(B.qft(n), order="interleaved", open_inputs=True)
        got[n] = r.stats.final_nodes
    expected = {n: (1 << (n + 1)) - 1 for n in range(2, 10)}
    _report(2, "conventional qft node counts", got == expected,
            f"got {[got[n] for n in range(2, 10)]}")


def test_criterion_3_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(20240811)
    total, disagreements = 0, []
    while total < 200:
        mode = "m" if total % 2 == 0 else "q"
        base = B.random_dqc(rng, mode)
        if total % 2 == 0:
            other = B.rewrite(rng, base)
            label = "rewrite"
        else:
            try:
                label, other = next(B.mutations(base, rng))
            except StopIteration:
                continue
        if validate(other):
            continue
        oracle = oracle_m_eq(base, other) if mode == "m" else oracle_q_eq(base, other)
        v, rep = check(base, other, mode)
        if (v.status == "equivalent") != oracle:
            disagreements.append((mode, label, v.status, oracle))
        total += 1
    dt = time.perf_counter() - t0
    ok = not disagreements and dt < 300.0
    _report(3, "verdict agreement with the dense oracle", ok,
            f"{total} pairs, {len(disagreements)} disagreements, {dt:.1f}s")


def test_criterion_4_semantics_checks():
    choi = superoperator(B.teleport())
    tele_ok = float(np.max(np.abs(choi - identity_choi(1)))) <= 1e-10
    dist = outcome_distribution(B.dyn_pe(2, 0.25))
    pe_ok = abs(dist.get("01", 0.0) - 1.0) <= 1e-9
    _report(4, "teleport Choi and dyn_pe(2, 1/4) distribution",
            tele_ok and pe_ok,
            f"choi-dev={float(np.max(np.abs(choi - identity_choi(1)))):.2e}, "
            f"p(01)={dist.get('01', 0.0):.12f}")


def test_criterion_5_partition_optimisation():
    bad = []
    # fixed inputs with "+" on two of the top qubits: compiled whole, the
    # outcome diagram's peak doubles with n; every check discards the
    # per-qubit pieces the two sides share and stays small
    whole = []
    for n in range(8, 13):
        pair = B.qft_pair(n, "0" * (n - 3) + "+0+")
        v, rep, _ = _timed_check(pair.spec_a, pair.spec_b, "m")
        if v.status != "equivalent":
            bad.append(f"qft_{n}: {v.status}")
        if rep.max_nodes > 8:
            bad.append(f"qft_{n}: peak {rep.max_nodes} > 8")
        mgr, nets = prepare([pair.spec_a, pair.spec_b], mode="m")
        whole.append(max(evaluate(mgr, net).stats.max_nodes for net in nets))
    if not (whole[0] >= 253 and whole[-1] <= 4093
            and all(b >= 2 * a for a, b in zip(whole, whole[1:]))):
        bad.append(f"undiscarded peaks {whole} do not double from 253 to 4093")
    # every other benchmark pair is decided equivalent
    rows = ([(B.qft(n), B.dyn_qft(n), "m") for n in range(2, 8)]
            + [(B.pe(n, B._default_phi(n)), B.dyn_pe(n, B._default_phi(n)), "m")
               for n in range(2, 8)]
            + [(p.spec_a, p.spec_b, p.mode) for p in B.qec_suite()])
    for a, b, mode in rows:
        v, _, _ = _timed_check(a, b, mode)
        if v.status != "equivalent":
            bad.append(f"{mode}-row {v.status}")
    _report(5, "discarded qft pairs stay small and verdict-stable",
            not bad, "; ".join(bad) or f"qft 8..12 peak <= 8, undiscarded {whole}")


def test_criterion_6_engine_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(611)
    mgr = TddManager([(f"x{k}", KIND_WIRE) for k in range(6)])
    names = [mgr.index(f"x{k}") for k in range(6)]
    problems = []
    # canonicity on 500 random grid-valued tensors
    for trial in range(500):
        n = int(rng.integers(1, 7))
        idx = names[:n]
        a = np.round(rng.standard_normal((2,) * n) * 4) / 4 \
            + 1j * np.round(rng.standard_normal((2,) * n) * 4) / 4
        if rng.random() < 0.5:
            b = a.copy()
        else:
            b = a.copy()
            pos = tuple(rng.integers(0, 2, size=n))
            b[pos] += 0.25
        ta, tb = mgr.from_dense(a, idx), mgr.from_dense(b, idx)
        if mgr.identical(ta, tb) != bool(np.array_equal(a, b)):
            problems.append(f"canonicity broke at trial {trial}")
            break
    # contraction / addition / slicing against the dense oracle
    for trial in range(60):
        na = sorted(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        nb = sorted(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        an, bn = [names[k] for k in na], [names[k] for k in nb]
        a = rng.standard_normal((2,) * len(an)) + 1j * rng.standard_normal((2,) * len(an))
        b = rng.standard_normal((2,) * len(bn)) + 1j * rng.standard_normal((2,) * len(bn))
        ta, tb = mgr.from_dense(a, an), mgr.from_dense(b, bn)
        common = [x for x in an if x in bn]
        shared = common[:int(rng.integers(0, len(common) + 1))] if common else []
        ref, keep = dense_contract(a, an, b, bn, shared)
        got = mgr.to_dense(mgr.contract(ta, tb, shared))
        if keep:
            perm = [keep.index(i) for i in mgr.contract(ta, tb, shared).indices]
            dev = float(np.max(np.abs(got - np.transpose(ref, perm))))
        else:
            dev = abs(complex(got) - complex(ref))
        if dev > 1e-8:
            problems.append(f"contract deviation {dev:.2e}")
            break
        refa, union = dense_add(a, an, b, bn)
        ts = mgr.add(ta, tb)
        perm = [union.index(i) for i in ts.indices]
        dev = float(np.max(np.abs(mgr.to_dense(ts) - np.transpose(refa, perm))))
        if dev > 1e-8:
            problems.append(f"add deviation {dev:.2e}")
            break
        x = an[0]
        c = int(rng.integers(0, 2))
        refs, _ = dense_slice(a, an, x, c)
        dev = float(np.max(np.abs(mgr.to_dense(mgr.slice(ta, x, c)) - refs)))
        if dev > 1e-8:
            problems.append(f"slice deviation {dev:.2e}")
            break
    # compiled normalised states have unit norm
    prng = random.Random(612)
    for _ in range(20):
        spec = B.random_dqc(prng, "m", n_qubits=3)
        r = compile_spec(spec)
        norm = r.mgr.norm(r.tdd)
        if abs(norm - 1.0) > 1e-9:
            problems.append(f"compiled norm {norm!r}")
            break
    dt = time.perf_counter() - t0
    ok = not problems and dt < 120.0
    _report(6, "engine canonicity and dense agreement", ok,
            "; ".join(problems) or f"500 canonicity + 60 op trials, {dt:.1f}s")


def _mutation_rows():
    return [
        ("qft_3", "m", B.qft(3, "011"), B.dyn_qft(3, "011"), oracle_m_eq),
        ("PE_3", "m", B.pe(3, 0.625), B.dyn_pe(3, 0.625), oracle_m_eq),
        ("Teleportation", "q", B.teleport(), B.swap_teleport(), oracle_q_eq),
        ("Bitflip", "q", B.bitflip_code(), B.identity_on("q0"), oracle_q_eq),
        ("Phaseflip", "q", B.phaseflip_code(), B.identity_on("q0"), oracle_q_eq),
        ("State_inject_S", "q", B.state_inject("S"), B.bare_gate("S"), oracle_q_eq),
        ("State_inject_T", "q", B.state_inject("T"), B.bare_gate("T"), oracle_q_eq),
    ]


def test_criterion_7_mutation_sensitivity():
    rng = random.Random(777)
    problems = []
    for name, mode, spec_a, spec_b, oracle in _mutation_rows():
        confirmed = 0
        candidates = list(B.mutations(spec_a, rng, count=120)) + \
            [(f"(b-side) {d}", m) for d, m in B.mutations(spec_b, rng, count=60)]
        for desc, mutated in candidates:
            b_side = desc.startswith("(b-side)")
            if confirmed >= 10:
                break
            if validate(mutated):
                continue
            pair = (spec_a, mutated) if b_side else (mutated, spec_b)
            if oracle(*pair):
                continue  # semantics-preserving candidate; not a usable mutant
            v, _ = check(*pair, mode)
            if v.status != "not-equivalent":
                problems.append(f"{name}: checker missed `{desc}`")
                continue
            confirmed += 1
        if confirmed < 10:
            problems.append(f"{name}: only {confirmed} breaking mutations found")
    _report(7, "mutation sensitivity (10 per benchmark)", not problems,
            "; ".join(problems) or "70 oracle-confirmed mutants all rejected")
