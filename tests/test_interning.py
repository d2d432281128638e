"""Interned library gates and control expressions.

``circuits.gate`` returns one shared ``Gate`` per distinct (name, qubits,
params), and the parser parses each distinct gate token and control
expression once.  These tests pin what sharing must not change: labels,
matrices, error lines, the unmeasured-bit check, the gate's own copy of its
matrix, the cache bounds and an empty cache at import.
"""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from tddeq import circuits, encode, tdd, textfmt
from tddeq.circuits import CircuitSpec, Conventional, Gate, gate, validate
from tddeq.tdd import DENSE_CACHE
from tddeq.textfmt import ParseError, parse, parse_expr, print_spec

NEW_CACHES = {"tddeq.circuits": ["_library_gate"],
              "tddeq.textfmt": ["_token_gate", "_parsed_expr", "_lifted_expr"]}


def _caches():
    return [getattr(mod, name) for mod in (circuits, encode, tdd, textfmt)
            for name, v in vars(mod).items()
            if hasattr(v, "cache_info") and v.__module__ == mod.__name__]


def _one_gate_spec(g):
    return CircuitSpec(qubits=("q0",), circuit=Conventional((g,)), inputs=("q0",),
                       outputs=("q0",))


def test_library_gates_are_shared_and_immutable():
    a = gate("p", ["q0"], [0.25])
    assert a is gate("P", ("q0",), (0.25,))
    assert a is not gate("P", ["q1"], [0.25]) and a is not gate("P", ["q0"], [0.5])
    assert not a.matrix.flags.writeable
    with pytest.raises(ValueError):
        a.matrix[1, 1] = 0
    assert a.data == a.matrix.tobytes()


def test_signed_zero_angles_keep_their_labels():
    text = "qubits q\ninputs q\noutputs q\ngate P(0.0) q\ngate P(-0.0) q\n"
    spec = parse(text)
    g0, g1 = (st.gates[0] for st in spec.circuit.steps)
    assert g0 is not g1
    assert (g0.label(), g1.label()) == ("P(0.0)", "P(-0.0)")
    assert print_spec(spec) == text
    for g in (g0, g1):
        assert np.array_equal(g.matrix, np.eye(2))
    assert print_spec(parse(text)) == text   # the second parse hits the caches


def test_parameter_slots_must_not_be_empty():
    for tok in ("H(,)", "P(1,)", "P(,1)", "CP( )"):
        qubits = "q r" if tok.startswith("CP") else "q"
        with pytest.raises(ParseError) as exc:
            parse(f"qubits q r\ngate H q\ngate {tok} {qubits}\n")
        assert str(exc.value).startswith("line 3: ")
    assert parse("qubits q\ngate H q\n").circuit.gates[0].label() == "H"
    assert parse("qubits q\ngate P(0.5) q\n").circuit.gates[0].label() == "P(0.5)"


@pytest.mark.parametrize("line,message", [
    ("gate Q(1) q", "unknown gate 'Q'"),
    ("gate P(x) q", "bad gate parameters in 'P(x)'"),
    ("ifc c0 & apply X q", "unexpected token None in control expression"),
    ("ifc c0 $ c0 apply X q", "bad control expression near"),
])
def test_the_same_error_raises_on_every_line(line, message):
    head = "qubits q r\ninit q=+\ninit r=0\nmeasure r -> c0\n"
    for pad in (0, 3, 0):
        text = head + "gate H q\n" * pad + line + "\n"
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse(text)
        assert exc.value.line == 5 + pad
        assert str(exc.value).startswith(f"line {5 + pad}: ")


def test_cached_expression_still_needs_its_bits_measured():
    good = "qubits q r\ninit q=+\ninit r=0\nmeasure q -> a\nifc a & !a apply X r\n"
    parse(good)
    late = "qubits q r\ninit q=+\ninit r=0\nifc a & !a apply X r\nmeasure q -> a\n"
    with pytest.raises(ParseError, match="unmeasured bit 'a'") as exc:
        parse(late)
    assert exc.value.line == 4
    with pytest.raises(ParseError, match="unmeasured bit 'a'"):
        parse_expr("a & !a", set())
    bits, func, norm = parse_expr("a & !a", {"a"})
    assert bits == ("a",) and norm == "a&!a" and func((1,)) == 0


def test_hand_built_gate_owns_a_copy_of_its_matrix():
    src = np.eye(2)
    g = Gate("U", (), ("q0",), src)
    src[1, 1] = 2.0                       # not unitary, but not g's matrix
    assert g.matrix is not src and not g.matrix.flags.writeable
    assert g.data == np.eye(2, dtype=complex).tobytes()
    assert validate(_one_gate_spec(g)) == []
    bad_src = np.diag([1.0, 2.0])
    bad = Gate("V", (), ("q0",), bad_src)
    bad_src[1, 1] = 1.0                   # mending the source mends nothing
    assert any("V: matrix is not unitary" in e for e in validate(_one_gate_spec(bad)))


def test_caches_stay_bounded():
    angles = 3 * DENSE_CACHE
    text = ("qubits q\ninputs q\noutputs q\n"
            + "".join(f"gate P({k / angles!r}) q\n" for k in range(angles)))
    steps = parse(text).circuit.steps
    assert len(steps) == angles and steps[-1].gates[0].params == ((angles - 1) / angles,)
    names = [f"b{k}" for k in range(16)]
    for k in range(angles):
        parse_expr("&".join(names[(k >> s) & 15] for s in (0, 4, 8, 12)), set(names))
    for cache in _caches():
        assert cache.cache_info().maxsize == DENSE_CACHE
        assert cache.cache_info().currsize <= DENSE_CACHE
    for mod, names in NEW_CACHES.items():   # each of them was filled to its bound
        for name in names:
            assert getattr(sys.modules[mod], name).cache_info().currsize == DENSE_CACHE


def test_import_fills_no_cache():
    # work done at import lands in every run's set-up time
    code = ("import json, sys, tddeq\n"
            "out = {}\n"
            "for name, mod in list(sys.modules.items()):\n"
            "    if name.startswith('tddeq'):\n"
            "        for a, v in vars(mod).items():\n"
            "            if hasattr(v, 'cache_info') and v.__module__ == name:\n"
            "                out[f'{name}.{a}'] = v.cache_info().currsize\n"
            "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    sizes = json.loads(proc.stdout)
    for mod, names in NEW_CACHES.items():
        for name in names:
            assert f"{mod}.{name}" in sizes
    assert sizes and all(n == 0 for n in sizes.values()), sizes
