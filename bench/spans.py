"""Spans and counts around the layer boundaries of edgesub.

`Tracer.install` replaces module attributes that `assemble`, `transfer`,
`algebra` and `oracle` resolve at call time with timing wrappers, and
`Tracer.restore` puts the originals back.  The benchmark calls the public
functions through their modules (`sys.modules["edgesub.assemble"]`, not the
`edgesub.assemble` attribute, which the package rebinds to the function), so
its own calls are wrapped the same way.  Spans stay in memory as
[name, start, end, parent index, instance id]; a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _grid_of(fn):
    """Number of grid cells a root scan evaluates, or None if it has no grid."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return None
    if "grid" not in params:
        return None
    default = params["grid"].default
    names = list(params)
    pos = names.index("grid")

    def grid(args, kwargs):
        if "grid" in kwargs:
            return kwargs["grid"]
        return args[pos] if len(args) > pos else default

    return grid


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.instance = None
        self.host = None  # graph objects of the current instance, to name eigen spans
        self.subgraph = None
        self.done: list[tuple] = []  # (sweep tag, spans) of finished sweeps
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def set_instance(self, iid, host=None, subgraph=None) -> None:
        self.instance, self.host, self.subgraph = iid, host, subgraph

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(tracer, args) if callable(name) else name
            rec = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name, hook in _SPANS:
            self._replace(module, attr, lambda fn: self._wrap(fn, name, hook(fn)))
        for module, attr, key in _COUNTERS:
            self._replace(module, attr, lambda fn: self._counter(fn, key))

    def _replace(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:  # a per-layer metric would read 0 without any work behind it
            self.restore()
            raise AttributeError(f"cannot trace {module}.{attr}: the program has no such attribute")
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- results -----------------------------------------------------------

    def finish_sweep(self, tag) -> dict[str, float]:
        """Per-layer values of the sweep that just ended: `<span>_s` self times
        (`assemble.self_s` for the top-level call) and the counts.  The
        sweep's spans are kept, tagged, for `dump`."""
        values = {
            ("assemble.self" if name == "assemble" else name) + "_s": t
            for name, t in self_times(self.spans).items()
        }
        values.update(self.counts)
        self.done.append((tag, self.spans))
        self.spans = []
        self.counts.clear()
        return values

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tag, spans in self.done:
                for name, start, end, parent, inst in spans:
                    rec = {"sweep": tag, "name": name, "start": start, "end": end, "parent": parent, "instance": inst}
                    fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


# -- what to wrap -------------------------------------------------------------
# Hooks are made per wrapped function (`hook(fn)`) and called after it returns.


def _eigen_name(tracer, args) -> str:
    graph = args[0].graph
    if graph is tracer.host:
        return "operators.eigen_host"
    if graph is tracer.subgraph:
        return "operators.eigen_sub"
    return "operators.eigen_full"


def _after_eigen(fn):
    def after(tracer, args, kwargs, dec) -> None:
        mults = dec.multiplicities
        tracer.count("operators.eigen_calls")
        tracer.count("operators.gs_pairs", sum(k * (k - 1) // 2 for k in mults))
        tracer.maximum("operators.max_cluster", max(mults, default=0))
        if args[0].graph is tracer.host:
            tracer.count("operators.host_clusters", len(mults))

    return after


def _after_transfer(fn):
    def after(tracer, args, kwargs, tf) -> None:
        tracer.count("transfer.interior_dim", args[0].graph.n - 2)
        tracer.count("transfer.deg_phi_num", tf.phi.num.degree)
        tracer.count("transfer.deg_phi_den", tf.phi.den.degree)

    return after


def _after_roots(fn):
    grid = _grid_of(fn)

    def after(tracer, args, kwargs, roots) -> None:
        tracer.count("algebra.roots_calls")
        if grid is not None:
            tracer.count("algebra.grid_evals", grid(args, kwargs) + 1)

    return after


def _after_classify(fn):
    def after(tracer, args, kwargs, typed) -> None:
        tracer.count("classify.ambiguous", sum(1 for t in typed if t.ambiguous))

    return after


def _counted(key, size):
    def hook(fn):
        def after(tracer, args, kwargs, result) -> None:
            tracer.count(key, size(result))

        return after

    return hook


def _none(fn):
    return None


# (module, attribute, span name or function of (tracer, args) giving it, hook)
_SPANS = [
    ("edgesub.assemble", "assemble", "assemble", _none),
    ("edgesub.assemble", "validate_substituent", "graph.validate", _none),
    ("edgesub.assemble", "substitute", "substitution.substitute", _counted("substitution.vertices", lambda r: r.graph.n)),
    ("edgesub.assemble", "compute_transfer", "transfer.compute", _after_transfer),
    ("edgesub.assemble", "fundamental_cycle_base", "graph.cycle_base", _counted("graph.cycles", lambda r: len(r.cycles))),
    ("edgesub.assemble", "eigen", _eigen_name, _after_eigen),
    ("edgesub.assemble", "classify_Q", "classify.classify", _after_classify),
    ("edgesub.assemble", "classify_Qinterior", "classify.classify", _after_classify),
    ("edgesub.assemble", "solve_S1", "assemble.solve_S1", _counted("assemble.s1_roots", len)),
    ("edgesub.assemble", "solve_S2", "assemble.solve_S2", _none),
    ("edgesub.assemble", "exceptional_set", "assemble.exceptional", _none),
    ("edgesub.assemble", "spectral_gap", "assemble.gap", _none),
    ("edgesub.assemble", "real_roots_in_interval", "algebra.roots", _after_roots),
    ("edgesub.assemble", "nodal_from_interior", "extensions.nodal", _counted("extensions.nodal_functions", len)),
    ("edgesub.transfer", "boundary_kernels", "transfer.kernels", _none),
    ("edgesub.transfer", "resolvent_matrix", "algebra.resolvent", _none),
    ("edgesub.transfer", "eigen", _eigen_name, _after_eigen),
    ("edgesub.extensions", "transfer_extension", "extensions.transfer_ext", _counted("extensions.transfer_ext_functions", lambda r: 1)),
    ("edgesub.extensions", "embed_specQ", "extensions.embed", _counted("extensions.embed_functions", len)),
    ("edgesub.oracle", "direct_spectrum", "oracle.direct", _none),
    ("edgesub.oracle", "eigen", _eigen_name, _after_eigen),
]

# (module, attribute, count key): calls counted without a span
_COUNTERS = [("edgesub.algebra", "poly_gcd", "algebra.gcd_calls")]
