"""Every entry point the benchmark tracer wraps still exists."""

from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    # run the tracer's source in a fresh namespace: nothing is installed,
    # and no bytecode is written beside it
    ns = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), ns)
    for layer, sites in ns["LAYERS"]:
        for owner, attr in sites:
            assert callable(getattr(ns["_resolve"](owner), attr, None)), (layer, owner, attr)
