"""The benchmark's tracer wraps program attributes by name; each must exist,
or `bench/run.py --trace 1` stops with an AttributeError.  An import kept in
`src/edgesub` only for the tracer (`# noqa: F401`) must name one of them."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_every_unused_import_is_a_traced_attribute():
    spans = _load_spans()
    traced = {(module, attr) for module, attr, *_ in spans._SPANS + spans._COUNTERS}
    pinned = []
    for path in sorted((ROOT / "src" / "edgesub").glob("*.py")):
        module, lines = f"edgesub.{path.stem}", path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.end_lineno - 1]:
                pinned += [(module, alias.asname or alias.name) for alias in node.names]
    assert pinned
    assert [f"{module}.{attr}" for module, attr in pinned if (module, attr) not in traced] == []
