"""Tooling guard: no public callable of edgesub takes a tolerance or
behaviour knob.  Every tolerance is a module constant (README, Tolerances),
so a multiplicity cannot change with a per-call argument."""

import importlib
import inspect
import pkgutil

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
