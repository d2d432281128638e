import json
import pathlib
import re

import pytest

from tddeq.circuits import validate
from tddeq.cli import main
from tddeq.equivalence import check
from tddeq.oracle import oracle_m_eq, oracle_q_eq
from tddeq.textfmt import parse, print_spec

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, records


def test_check_qft4_exit_zero_and_nodes(capsys):
    code, recs = run(capsys, "check", str(GOLDEN / "qft_4.dqc"),
                     str(GOLDEN / "dyn_qft_4.dqc"), "--mode", "m")
    assert code == 0
    assert recs[0]["verdict"] == "equivalent"
    assert recs[0]["nodes"] == 31  # conventional-side construction size


def test_check_teleport_q_mode(capsys):
    code, recs = run(capsys, "check", str(GOLDEN / "teleport.dqc"),
                     str(GOLDEN / "swap_teleport.dqc"), "--mode", "q")
    assert code == 0
    assert recs[0]["verdict"] == "equivalent"


def test_check_full_mode_oracle(capsys):
    code, recs = run(capsys, "check", str(GOLDEN / "state_inject_t.dqc"),
                     str(GOLDEN / "bare_t.dqc"), "--mode", "full")
    assert code == 0


def test_check_mutated_exits_one(tmp_path, capsys):
    import random
    from tddeq import benchmarks as B
    from tddeq.oracle import oracle_q_eq
    from tddeq.textfmt import print_spec
    rng = random.Random(2)
    for desc, mut in B.mutations(B.teleport(), rng, count=30):
        from tddeq.circuits import validate
        if validate(mut) or oracle_q_eq(mut, B.swap_teleport()):
            continue
        f = tmp_path / "mutated.dqc"
        f.write_text(print_spec(mut))
        code, recs = run(capsys, "check", str(f),
                         str(GOLDEN / "swap_teleport.dqc"), "--mode", "q")
        assert code == 1
        assert recs[0]["verdict"] == "not-equivalent"
        assert "witness" in recs[0]
        return
    pytest.fail("no breaking mutation found")


def test_check_parse_error_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.dqc"
    f.write_text("qubits q0\ngate NOPE q0\n")
    code, _ = run(capsys, "check", str(f), str(GOLDEN / "bare_t.dqc"),
                  "--mode", "q")
    assert code == 2


def test_check_missing_file_exits_two(capsys):
    code, _ = run(capsys, "check", "/nonexistent/a.dqc", "/nonexistent/b.dqc")
    assert code == 2


def test_bench_qec_rows(capsys):
    code, recs = run(capsys, "bench", "--suite", "qec")
    assert code == 0
    names = [r["benchmark"] for r in recs]
    assert names == ["Bitflip", "Phaseflip", "State_inject_S",
                     "State_inject_T", "Teleportation"]
    for r in recs:
        assert r["verdict"] == "equivalent"
        for field in ("benchmark", "mode", "verdict", "tdd_time",
                      "time", "nodes", "m_nodes"):
            assert field in r


def test_bench_qft_small(capsys):
    code, recs = run(capsys, "bench", "--suite", "qft", "--max-n", "4")
    assert code == 0
    assert len(recs) == 3
    by_name = {r["benchmark"]: r for r in recs}
    assert by_name["qft_4"]["nodes"] == 31
    assert by_name["qft_3"]["nodes"] == 15
    assert by_name["qft_2"]["nodes"] == 7


def test_bench_partitioned_plan(capsys):
    # every check runs the discard pass, so no option selects it any more
    code, recs = run(capsys, "bench", "--suite", "qft", "--max-n", "3")
    assert code == 0
    assert all(r["verdict"] == "equivalent" and "plan" not in r for r in recs)
    for argv in (["bench", "--suite", "qft", "--plan", "partitioned"],
                 ["check", str(GOLDEN / "pe_2.dqc"), str(GOLDEN / "dyn_pe_2.dqc"),
                  "--plan", "partitioned"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error


def test_bench_requires_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2  # argparse usage error


def test_exit_codes_are_verdict_function(tmp_path, capsys):
    args = ["check", str(GOLDEN / "pe_2.dqc"), str(GOLDEN / "dyn_pe_2.dqc"),
            "--mode", "m"]
    code, recs = run(capsys, *args)
    assert code == 0 and recs[0]["verdict"] == "equivalent"


def test_long_circuit_needs_no_recursion(tmp_path, capsys):
    # 3000 steps, deeper than the interpreter's recursion limit
    head = "qubits q0 q1\noutbits c0\ninit q0=0\ninit q1=0\n"
    body = "".join("gate H q0\n" if k % 2 == 0 else "gate CX q0 q1\n"
                   for k in range(3000))
    text = head + body + "measure q0 -> c0\n"
    text_z = head + body + "gate Z q0\nmeasure q0 -> c0\n"
    spec = parse(text)
    assert validate(spec) == []
    assert print_spec(spec) == text
    assert oracle_m_eq(spec, parse(text_z))
    fa, fb = tmp_path / "a.dqc", tmp_path / "b.dqc"
    fa.write_text(text)
    fb.write_text(text_z)
    code, recs = run(capsys, "check", str(fa), str(fb), "--mode", "m")
    assert code == 0
    assert recs[0]["verdict"] == "equivalent"


def test_deep_negation_exits_two(tmp_path, capsys):
    f = tmp_path / "deep.dqc"
    f.write_text("qubits q t\ninit q=+\ninit t=0\nmeasure q -> c0\n"
                 f"ifc {'!' * 1200}c0 apply X t\n")
    code, _ = run(capsys, "check", str(f), str(f), "--mode", "q")
    assert code == 2


IFC_IN_BODY = ("qubits a t\noutputs t\ninit a=+\ninit t=0\nmeasure a -> c0\n"
               "dispatch c0 { 0: s0 1: s1 }\n"
               "subcircuit s0 {\n}\nsubcircuit s1 {\n  ifc c0 apply X t\n}\n")


def test_engine_error_exits_two(monkeypatch, capsys):
    from tddeq.tdd import TddManager

    def deep(*a, **k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(TddManager, "from_dense", deep)
    code, recs = run(capsys, "check", str(GOLDEN / "teleport.dqc"),
                     str(GOLDEN / "swap_teleport.dqc"), "--mode", "q")
    assert code == 2
    assert recs[0]["verdict"] == "inconclusive"
    assert recs[0]["reason"].startswith("engine error")


def test_full_mode_reads_ifc_inside_a_body(tmp_path, capsys):
    f = tmp_path / "ifc_body.dqc"
    f.write_text(IFC_IN_BODY)
    code, recs = run(capsys, "check", str(f), str(f), "--mode", "full")
    assert code == 0
    assert recs[0]["verdict"] == "equivalent"


def test_measuring_body_is_decided(tmp_path, capsys):
    # t is flipped only when body 1 runs and measures d = 1, so the output
    # depends on the record: not q-equivalent even to itself
    text = ("qubits a b t\noutputs t\ninit a=+\ninit b=+\ninit t=0\n"
            "measure a -> c0\ndispatch c0 { 0: s0 1: s1 }\n"
            "subcircuit s0 {\n}\nsubcircuit s1 {\n  measure b -> d\n"
            "  ifc d apply X t\n}\n")
    head = ("qubits q a r\ninputs r\noutputs r\ninit q=+\ninit a=0\n"
            "measure q -> c0\n")
    # body 0 measures a qubit that nothing reads: r is untouched on every path
    independent = head + ("dispatch c0 { 0: m0 1: m1 }\nsubcircuit m0 {\n"
                          "  gate H a\n  measure a -> c1\n}\nsubcircuit m1 {\n}\n")
    cases = [(text, text, 1), (independent, head, 0)]
    for k, (a, b, want) in enumerate(cases):
        fa, fb = tmp_path / f"a{k}.dqc", tmp_path / f"b{k}.dqc"
        fa.write_text(a)
        fb.write_text(b)
        assert oracle_q_eq(parse(a), parse(b)) == (want == 0)
        code, recs = run(capsys, "check", str(fa), str(fb), "--mode", "q")
        assert code == want, k
        assert recs[0]["verdict"] == ("equivalent", "not-equivalent")[want]


def test_measuring_body_m_mode_distance():
    # both read b after body 0's ifc on its own bit; only B flips b in body 1,
    # which moves the c0 = 1 half of the mass from o = 0 to o = 1
    text = ("qubits q a b\noutbits c0 o\ninit q=+\ninit a=+\ninit b=0\n"
            "measure q -> c0\ndispatch c0 { 0: s0 1: s1 }\nmeasure b -> o\n"
            "subcircuit s0 {\n  measure a -> c1\n  ifc c1 apply X b\n}\n"
            "subcircuit s1 {\n")
    a, b = parse(text + "}\n"), parse(text + "  gate X b\n}\n")
    assert not oracle_m_eq(a, b)
    v, report = check(a, b, "m")
    assert v.status == "not-equivalent"
    assert abs(report.tv - 0.5) < 1e-9
    assert check(a, a, "m")[0].status == "equivalent"


REPRO_A = "qubits q\noutbits c0\ninit q=0\nmeasure q -> c0\n"
REPRO_B = "qubits q\noutbits c0\ninit q=0\ngate X q\nmeasure q -> c0\n"


def _repro_files(tmp_path):
    fa, fb = tmp_path / "a.dqc", tmp_path / "b.dqc"
    fa.write_text(REPRO_A)
    fb.write_text(REPRO_B)
    return str(fa), str(fb)


def test_fixed_input_m_check_is_not_opened(tmp_path, capsys):
    # |0> measured vs X|0> measured: summing output masses over every basis
    # input would call these equivalent; as specified they are not
    assert not oracle_m_eq(parse(REPRO_A), parse(REPRO_B))
    fa, fb = _repro_files(tmp_path)
    code, recs = run(capsys, "check", fa, fb, "--mode", "m")
    assert code == 1
    assert recs[0]["verdict"] == "not-equivalent"
    with pytest.raises(SystemExit) as exc:
        main(["check", fa, fb, "--mode", "m", "--open-inputs"])
    assert exc.value.code == 2  # no such option


@pytest.mark.parametrize("eps", ["inf", "nan", "-1", "1"])
def test_eps_outside_unit_interval_is_usage_error(tmp_path, capsys, eps):
    fa, fb = _repro_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["check", fa, fb, "--mode", "m", "--eps", eps])
    assert exc.value.code == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("token,message", [
    ("P(inf)", "P: parameter inf is not finite"), ("P(nan)", "P: parameter nan is not finite"),
    ("CP(-inf)", "CP: parameter -inf is not finite"), ("P(1,2)", "P takes 1 parameter, got 2"),
    ("P", "P takes 1 parameter, got 0")])
def test_bad_gate_parameter_exits_two_with_its_line(tmp_path, capsys, token, message):
    # a nan phase used to pass the unitarity check and end in a traceback
    f = tmp_path / "bad.dqc"
    qubits = "q r" if token.startswith("CP") else "q"
    f.write_text(f"qubits q r\ninputs q r\noutputs q r\ngate H q\ngate {token} {qubits}\n")
    assert main(["check", str(f), str(f), "--mode", "q"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: line 5: {message}\n"


@pytest.mark.parametrize("text,reason", [
    ("qubits q\ninit q=+\noutbits c0 c0\nmeasure q -> c0\n", "duplicate output bit ['c0']"),
    ("qubits q r\ninputs q r\noutputs q q\ngate H q\n", "duplicate principal output ['q']"),
    ("qubits q r\ninputs q q r\noutputs q r\ngate H q\n", "duplicate principal input ['q']"),
])
@pytest.mark.parametrize("mode", ["m", "q"])
def test_duplicate_header_names_exit_two(tmp_path, capsys, text, reason, mode):
    # outbits c0 c0 used to end in KeyError: 'outbit:1' with exit 1
    f = tmp_path / "dup.dqc"
    f.write_text(text)
    code, recs = run(capsys, "check", str(f), str(f), "--mode", mode)
    assert code == 2
    assert recs[0]["verdict"] == "inconclusive"
    assert recs[0]["reason"].startswith(f"a: {reason}")


@pytest.mark.parametrize("mode", ["m", "q"])
def test_second_init_of_a_qubit_exits_two_with_its_line(tmp_path, capsys, mode):
    f = tmp_path / "init.dqc"
    f.write_text("qubits q\ninit q=0\noutbits c\ninit q=1\nmeasure q -> c\n")
    assert main(["check", str(f), str(f), "--mode", mode]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: line 4: qubit 'q' initialised twice\n"


BIASED = ("qubits q a\ninputs q\noutputs q\ninit a=0\n"
          "gate H a\ngate P(0.7) a\ngate H a\nmeasure a -> c\n")


def test_biased_outcome_is_q_equivalent_to_itself(tmp_path, capsys):
    # outcomes of probability 0.12 and 0.88 leave q as it was: q-mode asks
    # the branch maps to be proportional, not of one weight
    f = tmp_path / "biased.dqc"
    f.write_text(BIASED)
    assert oracle_q_eq(parse(BIASED), parse(BIASED))
    code, recs = run(capsys, "check", str(f), str(f), "--mode", "q")
    assert code == 0 and recs[0]["verdict"] == "equivalent"
    with pytest.raises(SystemExit) as exc:
        main(["check", str(f), str(f), "--mode", "q", "--strict-q"])
    assert exc.value.code == 2  # no such option


@pytest.mark.parametrize("suite,max_n", [("qft", "0"), ("qft", "-3"), ("pe", "1"), ("all", "1")])
def test_bench_that_would_check_no_pair_exits_two(capsys, suite, max_n):
    # these used to print an empty table and exit 0
    assert main(["bench", "--suite", suite, "--max-n", max_n]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: suite {suite!r} needs max_n >= 2, got {max_n}\n"


@pytest.mark.parametrize("suite,max_n,err", [("qft", "17", "qft size out of range (2..16)"),
                                             ("pe", "30", "pe size out of range (2..7)")])
def test_bench_past_a_generator_cap_exits_two(capsys, suite, max_n, err):
    # the pe suite used to stop at PE_7 without a word and exit 0
    assert main(["bench", "--suite", suite, "--max-n", max_n]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {err}\n"


def test_bench_all_caps_pe_at_its_generator_limit():
    from tddeq import benchmarks as B
    names = [p.name for p in B.suite("all", 9)]
    assert [n for n in names if n.startswith("PE_")] == [f"PE_{n}" for n in range(2, 8)]
    assert names[:8] == [f"qft_{n}" for n in range(2, 10)]


def _help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_readme_synopsis_lists_the_options_argparse_accepts(capsys):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed: dict[str, set] = {}
    for line in block.splitlines():
        if line.startswith("tddeq "):
            options = listed.setdefault(line.split()[1], set())
        options.update(re.findall(r"--[a-z][a-z-]*", line))
    commands = re.search(r"\{([a-z,]+)\}", _help_text(capsys)).group(1).split(",")
    assert sorted(listed) == sorted(commands)
    for cmd in commands:
        accepted = set(re.findall(r"--[a-z][a-z-]*", _help_text(capsys, cmd)))
        assert listed[cmd] == accepted - {"--help"}, cmd
