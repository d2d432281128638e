"""Every entry point the benchmark tracer wraps still exists, and the
benchmark's set-up, which generates circuits and prints them, does none of
the builder's work."""

from pathlib import Path

import tddeq
from tddeq import benchmarks as B
from tddeq import encode, tdd
from tddeq.textfmt import print_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    # run the tracer's source in a fresh namespace: nothing is installed,
    # and no bytecode is written beside it
    ns = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), ns)
    for layer, sites in ns["LAYERS"]:
        for owner, attr in sites:
            assert callable(getattr(ns["_resolve"](owner), attr, None)), (layer, owner, attr)


def test_generation_does_no_builder_work():
    # the builder's caches are lazy: generating circuits and their text,
    # as a benchmark set-up does, fills none of them
    caches = (encode._diagonal_data, encode._sliced, tdd._recipe)
    for c in caches:
        c.cache_clear()
    bits = "01+0110+10+001"
    for spec in (B.qft(14, bits), B.dyn_qft(14, bits)):
        assert print_spec(spec)
    assert tddeq.encode is encode
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0]
