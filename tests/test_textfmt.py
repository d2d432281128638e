import itertools
import operator
import pathlib
import random

import numpy as np
import pytest

from tddeq import benchmarks as B
from tddeq.circuits import (CircuitSpec, CondGate, Conventional, Gate, flatten,
                            validate)
from tddeq.equivalence import check
from tddeq.oracle import oracle_full_eq, superoperator
from tddeq.textfmt import ParseError, expr_from_func, parse, parse_expr, print_spec

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_golden_teleport_matches_generator():
    spec = parse(golden("teleport.dqc"))
    assert validate(spec) == []
    ref = B.teleport()
    assert spec.qubits == ref.qubits
    assert spec.inputs == ref.inputs and spec.outputs == ref.outputs
    assert np.max(np.abs(superoperator(spec) - superoperator(ref))) < 1e-12
    assert print_spec(spec) == print_spec(ref)


@pytest.mark.parametrize("name", [p.name for p in sorted(GOLDEN.glob("*.dqc"))])
def test_golden_roundtrip(name):
    text = golden(name)
    spec = parse(text)
    assert validate(spec) == []
    assert print_spec(spec) == text  # canonical files reproduce exactly


def test_parse_undeclared_qubit_is_positioned():
    text = "qubits q0\ngate H q1\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "line 2" in str(exc.value)
    assert "q1" in str(exc.value)


@pytest.mark.parametrize("token,message", [
    ("P(inf)", "P: parameter inf is not finite"), ("P(nan)", "P: parameter nan is not finite"),
    ("P(1e400)", "P: parameter inf is not finite"), ("P(1,2)", "P takes 1 parameter, got 2"),
    ("CP()", "CP takes 1 parameter, got 0")])
def test_parse_bad_gate_parameters_are_positioned(token, message):
    qubits = "q0 q1" if token.startswith("CP") else "q0"
    with pytest.raises(ParseError) as exc:
        parse(f"qubits q0 q1\ngate H q0\ngate {token} {qubits}\n")
    assert str(exc.value) == f"line 3: {message}"


def test_nan_gate_matrix_is_not_unitary():
    # nan > UNITARY_TOL is false: the check must read not (err <= tol)
    g = Gate("U", (), ("q",), np.diag([1.0, complex("nan")]))
    spec = CircuitSpec(qubits=("q",), circuit=Conventional((g,)), inputs=("q",),
                       outputs=("q",))
    assert any("not unitary" in e for e in validate(spec))


def test_parse_bad_measure():
    with pytest.raises(ParseError):
        parse("qubits q0\nmeasure q0 c\n")


def test_parse_double_measure_bit():
    with pytest.raises(ParseError):
        parse("qubits q0 q1\nmeasure q0 -> c\nmeasure q1 -> c\n")


def test_parse_ifc_expressions():
    text = ("qubits q0 q1 q2\n"
            "init q0=0\ninit q1=0\ninit q2=0\n"
            "measure q0 -> a\nmeasure q1 -> b\n"
            "ifc a&!b apply X q2\n"
            "ifc (a|b)^1 == 0 apply Z q2\n")
    spec = parse(text)
    assert validate(spec) == []
    steps = [s for s in print_spec(spec).splitlines() if s.startswith("ifc")]
    assert steps[0] == "ifc a&!b apply X q2"
    conds = [s for s in flatten(spec.circuit) if isinstance(s, CondGate)]
    for vals in itertools.product((0, 1), repeat=2):
        a, b = vals
        assert conds[0].func(vals) == a & (1 - b)
        assert conds[1].func(vals) == a | b      # ((a|b)^1) == 0


BITS8 = ("qubits " + " ".join(f"q{k}" for k in range(8)) + " t\noutbits r\n"
         + "".join(f"init q{k}=+\n" for k in range(8)) + "init t=0\n"
         + "".join(f"measure q{k} -> c{k}\n" for k in range(8)))


def test_long_operator_chain_parses_and_checks():
    # 1200 operands, more than the interpreter's recursion limit
    chain = "&".join(f"c{k % 8}" for k in range(1200))
    spec = parse(BITS8 + f"ifc {chain} apply X t\nmeasure t -> r\n")
    assert validate(spec) == []
    assert f"ifc {chain} apply X t" in print_spec(spec).splitlines()
    short = "&".join(f"c{k}" for k in range(8))
    same = parse(BITS8 + f"ifc {short} apply X t\nmeasure t -> r\n")
    other = parse(BITS8 + f"ifc {short} apply Z t\nmeasure t -> r\n")
    assert check(spec, same, "m")[0].status == "equivalent"
    assert check(spec, other, "m")[0].status == "not-equivalent"


@pytest.mark.parametrize("expr", ["!" * 1200 + "c0", "(" * 400 + "c0" + ")" * 400],
                         ids=["negation", "parentheses"])
def test_deep_nesting_is_a_parse_error(expr):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(BITS8 + f"ifc {expr} apply X t\nmeasure t -> r\n")


def test_wide_flat_xor_names_the_bdd_build_not_nesting():
    # a flat chain has no nesting; the BDD of a 1200-bit XOR is 1200 levels
    # deep and its apply recurses once per level
    n = 1200
    text = ("qubits q t\ninit q=+\ninit t=0\n"
            + "".join(f"measure q -> c{k}\n" for k in range(n))
            + "ifc " + "^".join(f"c{k}" for k in range(n)) + " apply X t\n")
    with pytest.raises(ParseError, match=f"over {n} bits: building its BDD") as err:
        parse(text)
    assert "nested" not in str(err.value)


def test_parse_ifc_unmeasured_bit():
    with pytest.raises(ParseError):
        parse("qubits q0 q1\nifc c apply X q1\n")


def test_parse_dispatch_requires_adjacent_measures():
    text = ("qubits q0 q1 q2\ninit q0=0\ninit q1=0\ninit q2=0\n"
            "measure q0 -> a\n"
            "gate H q1\n"
            "measure q1 -> b\n"
            "dispatch a, b { 0: s 1: s 2: s 3: s }\n"
            "subcircuit s {\n}\n")
    with pytest.raises(ParseError):
        parse(text)


def test_parse_dispatch_table_must_be_total():
    text = ("qubits q0 q1\ninit q0=0\ninit q1=0\n"
            "measure q0 -> a\n"
            "dispatch a { 0: s }\n"
            "subcircuit s {\n}\n")
    with pytest.raises(ParseError):
        parse(text)


def test_parse_totality_fuzz():
    rng = random.Random(123)
    corpus = [golden("teleport.dqc"), golden("qft_4.dqc")]
    fine = 0
    for trial in range(300):
        if trial % 3 == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        else:
            base = corpus[trial % len(corpus)]
            chars = list(base)
            for _ in range(rng.randrange(1, 8)):
                pos = rng.randrange(len(chars))
                chars[pos] = chr(rng.randrange(32, 127))
            blob = "".join(chars)
        try:
            spec = parse(blob)
            fine += 1
        except ParseError:
            pass
    assert fine >= 0  # never crashed with anything but ParseError


def random_expr(rng, bits, depth=3):
    """(text, reference evaluator) of a random control expression."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            v = rng.randint(0, 1)
            return str(v), lambda env: v
        b = rng.choice(bits)
        return b, lambda env: env[b]
    op = rng.choice("!&|^")
    if op == "!":
        text, f = random_expr(rng, bits, depth - 1)
        return f"!({text})", lambda env: 1 - f(env)
    ta, fa = random_expr(rng, bits, depth - 1)
    tb, fb = random_expr(rng, bits, depth - 1)
    fn = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[op]
    return f"({ta}{op}{tb})", lambda env: fn(fa(env), fb(env))


def test_expr_from_func_roundtrips():
    # random functions from random expression trees: the parsed BDD agrees
    # with the tree, and so does the parse of its printed 1-paths
    rng = random.Random(17)
    for _ in range(60):
        names = tuple(f"c{k}" for k in range(rng.randint(1, 4)))
        text, ref = random_expr(rng, names)
        bits, f, _ = parse_expr(text)
        got_bits, got_f, _ = parse_expr(expr_from_func(bits, f))
        for vals in itertools.product((0, 1), repeat=len(names)):
            env = dict(zip(names, vals))
            assert f([env[b] for b in bits]) == ref(env), text
            assert got_f([env[b] for b in got_bits]) == ref(env), text


def test_golden_full_equivalence_teleport_vs_swap():
    a = parse(golden("teleport.dqc"))
    b = parse(golden("swap_teleport.dqc"))
    assert oracle_full_eq(a, b)
