"""The benchmark's tracer wraps program attributes by name; each must exist,
or `bench/run.py --trace 1` stops with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = _load_spans()
    names = [(module, attr) for module, attr, *_ in spans._SPANS + spans._COUNTERS]
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert missing == []
