"""Span tracing of tddeq from outside the program.

The tracer replaces public entry points at the names their callers look
up (a module attribute such as ``tddeq.equivalence.evaluate``, or a method
of ``TddManager``) with a wrapper that records one span per call: name,
start, end, parent span and operation number.  Spans stay in memory until
the run ends.  A layer's self time is its spans' durations minus the time
covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time

# (layer name, [(owner, attribute), ...]); an owner is a module or
# "module:Class".  A layer is wrapped at every name through which some
# caller reaches it.
LAYERS = (
    ("textfmt.parse", [("tddeq.textfmt", "parse")]),
    ("circuits.validate", [("tddeq.equivalence", "validate")]),
    ("encode.prepare", [("tddeq.equivalence", "prepare"), ("tddeq.encode", "prepare")]),
    ("encode.compile_spec", [("tddeq.encode", "compile_spec")]),
    ("encode.evaluate", [("tddeq.equivalence", "evaluate"), ("tddeq.encode", "evaluate")]),
    ("logic.func_to_tensor", [("tddeq.encode", "func_to_tensor")]),
    ("tdd.from_dense", [("tddeq.tdd:TddManager", "from_dense")]),
    ("tdd.contract", [("tddeq.tdd:TddManager", "contract")]),
    ("tdd.add", [("tddeq.tdd:TddManager", "add")]),
    ("tdd.slice", [("tddeq.tdd:TddManager", "slice")]),
    ("tdd.node_count", [("tddeq.tdd:TddManager", "node_count")]),
    ("tdd.norm_edge", [("tddeq.tdd:TddManager", "norm_edge")]),
    ("equivalence.check", [("tddeq.equivalence", "check")]),
    ("equivalence.m_eq", [("tddeq.equivalence", "m_eq")]),
    ("equivalence.q_eq", [("tddeq.equivalence", "q_eq")]),
    ("equivalence.get_nodes", [("tddeq.equivalence", "get_nodes")]),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.op = 0
        self.managers: list = []        # managers made by encode.prepare
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self):
        for name, sites in LAYERS:
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, orig))
                self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_mgr = name == "encode.prepare"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep_mgr:
                self.managers.append(out[0])
            return out

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (summed self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: (0.0, 0) for name, _ in LAYERS}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            s, c = out[name]
            out[name] = (s + (end - start) - child[k], c + 1)
        return out

    def write(self, path, first_ops: int):
        """Spans of operations ``0 .. first_ops-1`` as JSON lines."""
        with open(path, "w") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                if op < first_ops:
                    fh.write(json.dumps({"id": k, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op}) + "\n")
