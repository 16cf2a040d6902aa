"""Tooling guard: no public callable of edgesub takes a tolerance or
behaviour knob.  Every tolerance is a module constant (README, Tolerances),
so a multiplicity cannot change with a per-call argument, and the README
table names exactly those constants, with their values."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import edgesub

KNOBS = {
    "tol",
    "cluster_tol",
    "guard",
    "cap",
    "root",
    "raise_on_failure",
    # a values-only eigen is the default, not a caller flag
    "vectors",
    "compute_vectors",
    "eigvals_only",
    "lazy",
    # the bipartite eigenvalue path is chosen from the graph, not by the caller
    "bipartite",
    "method",
    "solver",
    "use_svd",
}


def _public_callables():
    for info in pkgutil.iter_modules(edgesub.__path__):
        module = importlib.import_module(f"edgesub.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_walk_sees_the_library():
    names = {name for name, _ in _public_callables()}
    assert "edgesub.assemble.assemble" in names
    assert "edgesub.operators.EigenDecomposition.cluster_near" in names
    assert "edgesub.algebra.RationalFunction.eval_float" in names


def test_no_public_callable_takes_a_knob():
    found = [
        f"{name}({param})"
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param in KNOBS
    ]
    assert found == []


def _tolerance_constants() -> dict[str, float]:
    """Every module-level `*_TOL` and `*_GUARD` assigned in edgesub's
    modules, with its value."""
    found = {}
    for info in pkgutil.iter_modules(edgesub.__path__):
        module = importlib.import_module(f"edgesub.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.search(r"_(TOL|GUARD)$", target.id):
                    found[target.id] = getattr(module, target.id)
    return found


def _readme_tolerance_rows() -> dict[str, str]:
    """Named constant -> value cell of the README "Tolerances" table."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 2:
            rows[cells[0].strip("`")] = cells[1].strip("`")
    return rows


def test_readme_tolerance_table_names_every_constant():
    constants = _tolerance_constants()
    rows = _readme_tolerance_rows()
    assert "CLUSTER_TOL" in constants
    assert sorted(rows) == sorted(constants)
    assert all(float(rows[name]) == value for name, value in constants.items())
