import random

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import validate
from tddeq.encode import compile_spec
from tddeq.equivalence import check
from tddeq.oracle import (identity_choi, oracle_m_eq, oracle_q_eq,
                          outcome_distribution, superoperator)


def test_all_generated_specs_validate():
    specs = [B.qft(5), B.dyn_qft(5), B.pe(3, 0.625), B.dyn_pe(3, 0.625),
             B.teleport(), B.swap_teleport(), B.bitflip_code("q1"),
             B.phaseflip_code("q2"), B.state_inject("S"), B.bare_gate("T"),
             B.identity_on()]
    for spec in specs:
        assert validate(spec) == [], spec


def test_qft_generator_range_checks():
    with pytest.raises(ValueError):
        B.qft(1)
    with pytest.raises(ValueError):
        B.qft(17)
    with pytest.raises(ValueError):
        B.pe(2, 1.5)


def test_qft_node_count_sequence():
    # conventional-circuit construction: 2^(n+1) - 1 nodes for n = 2..10
    for n in range(2, 11):
        r = compile_spec(B.qft(n), order="interleaved", open_inputs=True)
        assert r.stats.final_nodes == (1 << (n + 1)) - 1, n


def test_qft_pairs_equivalent_and_oracle_confirmed_small():
    for n in (2, 3, 4):
        pair = B.qft_pair(n)
        v, _ = check(pair.spec_a, pair.spec_b, "m")
        assert v.status == "equivalent"
        assert oracle_m_eq(pair.spec_a, pair.spec_b)


def test_pe_distribution_examples():
    assert abs(outcome_distribution(B.dyn_pe(2, 0.25)).get("01", 0) - 1) < 1e-9
    assert abs(outcome_distribution(B.pe(2, 0.0)).get("00", 0) - 1) < 1e-9
    d = outcome_distribution(B.pe(4, 0.3125))  # 0.0101b
    assert abs(d.get("0101", 0) - 1) < 1e-9
    assert oracle_m_eq(B.pe(4, 0.3125), B.dyn_pe(4, 0.3125))


def test_teleport_pair_and_superoperator():
    pair = B.teleport_pair()
    v, _ = check(pair.spec_a, pair.spec_b, "q")
    assert v.status == "equivalent"
    choi = superoperator(pair.spec_a)
    assert np.max(np.abs(choi - identity_choi(1))) < 1e-10


def test_bitflip_all_single_errors():
    for err in (None, "q0", "q1", "q2"):
        pair = B.bitflip_pair(err)
        v, _ = check(pair.spec_a, pair.spec_b, "q")
        assert v.status == "equivalent", err
        assert oracle_q_eq(pair.spec_a, pair.spec_b), err


def test_phaseflip_all_single_errors():
    for err in (None, "q0", "q1", "q2"):
        pair = B.phaseflip_pair(err)
        v, _ = check(pair.spec_a, pair.spec_b, "q")
        assert v.status == "equivalent", err
        assert oracle_q_eq(pair.spec_a, pair.spec_b), err


def test_state_injection_choi_matches():
    for g in ("S", "T"):
        pair = B.state_inject_pair(g)
        v, _ = check(pair.spec_a, pair.spec_b, "q")
        assert v.status == "equivalent"
        ca = superoperator(pair.spec_a)
        cb = superoperator(pair.spec_b)
        assert np.max(np.abs(ca - cb)) < 1e-10


def test_mutated_teleport_not_equivalent():
    rng = random.Random(7)
    found = 0
    for desc, mut in B.mutations(B.teleport(), rng, count=20):
        if validate(mut):
            continue
        if oracle_q_eq(mut, B.swap_teleport()):
            continue
        v, _ = check(mut, B.swap_teleport(), "q")
        assert v.status == "not-equivalent", desc
        found += 1
        if found >= 5:
            break
    assert found >= 5


def test_suites_compose():
    assert len(B.suite("qft", 5)) == 4
    assert len(B.suite("pe", 7)) == 6
    names = [p.name for p in B.suite("qec")]
    assert names == ["Bitflip", "Phaseflip", "Teleportation",
                     "State_inject_S", "State_inject_T"]
    with pytest.raises(ValueError):
        B.suite("nope")
    # a sized suite that would hold no pair is refused; qec has no size
    for name, max_n in (("qft", 1), ("pe", 0), ("all", -3)):
        with pytest.raises(ValueError, match="max_n >= 2"):
            B.suite(name, max_n)
    assert [p.name for p in B.suite("qec", 0)] == names


def test_random_dqc_within_bounds():
    rng = random.Random(5)
    for _ in range(30):
        for mode in ("m", "q"):
            spec = B.random_dqc(rng, mode)
            assert validate(spec) == []
            assert len(spec.qubits) <= 4


def test_default_phi_is_exactly_representable():
    for n in range(2, 8):
        phi = B._default_phi(n)
        assert 0 < phi < 1
        assert phi * (1 << n) == int(phi * (1 << n))
