"""The traced benchmark run wraps library functions by owner and name."""

import importlib.util

from conftest import ROOT


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location(
        "layer_trace", ROOT / "perfbench" / "layer_trace.py")
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    assert layer_trace.TARGETS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _span, _observer in layer_trace.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
