"""Ratchet on self-recursive functions in the engine and the compiler.

A function that calls itself recurses once per diagram level or BDD
variable, so deep inputs end in ``RecursionError``.  The ones that are left
are listed here; a new one fails the test, and one rewritten with an
explicit stack must leave the list.
"""

import ast
from pathlib import Path

import tddeq

MODULES = ("tdd", "logic", "equivalence", "encode")

RECURSIVE = {
    "tdd.TddManager._add",
    "tdd.TddManager._cont",
    "tdd.TddManager._from_dense_rec",
    "tdd.TddManager.to_dense.rec",
    "logic.apply",
    "logic._restrict",
    "logic.BoolFunc.relabel.go",
    "logic.func_to_tensor.lift",
}


def _self_calls(func, in_class: bool) -> bool:
    """Whether ``func`` calls itself: by bare name, or as ``self.<name>``
    for a method (a bare name in a method is a module-level function)."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if in_class:
            if (isinstance(f, ast.Attribute) and f.attr == func.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
        elif isinstance(f, ast.Name) and f.id == func.name:
            return True
    return False


def _recursive_functions(source: str, module: str) -> set[str]:
    found = set()

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _self_calls(child, in_class):
                    found.add(name)
                visit(child, name, False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), module, False)
    return found


def test_no_new_self_recursive_function():
    pkg = Path(tddeq.__file__).parent
    found = set().union(*(_recursive_functions((pkg / f"{m}.py").read_text(), m)
                          for m in MODULES))
    assert not found - RECURSIVE, "new self-recursive function"
    assert not RECURSIVE - found, "no longer recursive: drop it from RECURSIVE"


def test_detector_sees_nested_and_method_recursion():
    src = ("def f(n):\n    return f(n - 1)\n"
           "class C:\n"
           "    def m(self):\n        return self.m()\n"
           "    def wkey(self):\n        return wkey(0)\n"
           "    def outer(self):\n"
           "        def walk(x):\n            return walk(x)\n"
           "        return walk\n")
    assert _recursive_functions(src, "probe") == {
        "probe.f", "probe.C.m", "probe.C.outer.walk"}
