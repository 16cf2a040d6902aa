#!/usr/bin/env python3
"""Benchmark of edgesub: the spectrum of X[V] without diagonalizing X[V].

    python3 bench/run.py --workload host-large --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1   # each workload in its own process

Workloads are defined in `instances.py` and listed with their reasons in
`BENCHMARK.json`.  `--seconds` defaults to the `run_seconds` there.  A run of
one workload

1. generates its inputs from the seed and serializes them with
   `edgesub.fileformat`;
2. parses the inputs, warms BLAS up with one untimed `eigh`;
3. sweeps over the instances again and again until `--seconds` have passed
   since the first sweep started; the first sweep is always whole and checks
   every answer outside the timed regions, the last stops at the deadline.
   In a sweep each program call, and each oracle call (`direct_spectrum`)
   where the instance has one, is repeated until it has run for
   MIN_SAMPLE_S, every repetition one sample.  Between calls, whenever
   SETUP_EVERY_S has passed since the last one, a set-up probe times a fresh
   process from its start to edgesub imported and every input parsed.

End-to-end metrics (`--trace 0`), per workload:

- `setup_s`: median over the set-up probes of the run;
- `solve_s`: sum over instances of the median time of the timed calls, which
  are spectrum-only `assemble` on host-large and sub-long and the full
  eigenbasis pass on eigenbasis-mix; a call that raises counts until it does;
- `instance_p50_ms`, `instance_p90_ms`: percentiles of those per-instance
  medians;
- `oracle_s`: sum over oracle-timed instances of the median
  `direct_spectrum` time;
- `ok_frac`: instances that finished and passed their check, over instances;
- `peak_rss_mb`: peak resident memory of the workload's process.

With `--trace 1` no set-up probe runs, every call is made once per sweep and
sweeps are whole, so that counts repeat exactly.  After the first sweep come
pairs of an untraced and a traced sweep (see `spans.py`), at least one pair,
each only while it is expected to end in time; the spans are written to
`bench/out/`, and the per-layer metrics (medians over the traced sweeps) are
printed instead of the end-to-end ones.  `trace.overhead_s` is the median
over the pairs of the traced sweep's timed seconds minus the untraced one's,
and is negative when the overhead is below the noise between sweeps.  The
last line of standard output is one JSON object with the keys `correct` (no
instance gave a wrong answer), `attempted` (instances), `failed` (instances
that raised or failed their check) and `metrics`.
"""

from __future__ import annotations

import program  # pins BLAS threads; must come before numpy  # isort: skip

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from spans import Tracer

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
MIN_SAMPLE_S = 0.05  # an untraced call is repeated in a sweep until it has run this long
SETUP_EVERY_S = 2.0  # seconds between set-up probes, so that they spread over the run
SPANS_DIR = program.BENCH_DIR / "out"
clock = time.perf_counter


def edgesub_modules() -> SimpleNamespace:
    """edgesub's modules; calls go through them so that tracing sees them.

    `import edgesub.assemble as m` would bind the function that the package
    re-exports under that name, hence `import_module`.
    """
    names = ("assemble", "extensions", "fileformat", "graph", "operators", "oracle", "substitution", "transfer")
    return SimpleNamespace(**{n: importlib.import_module(f"edgesub.{n}") for n in names})


# -- timed program calls --------------------------------------------------------


def spectrum(M, X, s):
    """Spectrum only: `assemble` without eigenfunction families."""
    result = M.assemble.assemble(X, M.graph.Orientation.default(X), s, build_families=False)
    return result, []


def eigenbasis(M, X, s):
    """A complete explicit eigenbasis of X[V].

    `assemble` with nodal families, the boundary kernels, one transfer
    extension per (S1 root, host eigenvector) pair and the embeddings of the
    S2 eigenvalues of Q.
    """
    r = M.assemble.assemble(X, M.graph.Orientation.default(X), s, build_families=True)
    kernels = M.transfer.boundary_kernels(s)
    interior = r.spec_interior.values
    fns = []
    for e in r.report.entries:
        if any(p.startswith("S1") for p in e.provenance):
            basis = r.spec_P.bases[r.spec_P.cluster_near(r.transfer.phi.eval_float(e.value))]
            for j in range(basis.shape[1]):
                fns.append(M.extensions.transfer_extension(r.substituted, kernels, basis[:, j], e.value, interior))
        if "S2" in e.provenance:
            t = next(q for q in r.classified_Q if abs(q.value - e.value) <= M.operators.CLUSTER_TOL)
            fns.extend(M.extensions.embed_specQ(r.substituted, t))
    return r, fns


CALLS = {"host-large": spectrum, "sub-long": spectrum, "eigenbasis-mix": eigenbasis}


# -- one run --------------------------------------------------------------------


@dataclass
class Record:
    """Timings of one instance over the sweeps, and its first-sweep verdict."""

    call_s: list[float] = field(default_factory=list)
    oracle_s: list[float] = field(default_factory=list)
    failure: str | None = None
    detail: str = ""


def failure_name(exc: BaseException) -> str:
    """`<module>.fail.<class>`, naming the innermost edgesub module on the stack."""
    module = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "edgesub":
            module = path.stem
    return f"{module}.fail.{type(exc).__name__}"


def probe_setup(docs: str) -> float:
    """Seconds from starting a fresh process to edgesub parsing every input."""
    start = clock()
    with subprocess.Popen(
        [sys.executable, str(program.BENCH_DIR / "probe.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdin.write(docs)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def check(inst, X, s, out, oracle) -> dict:
    """Run the instance's correctness gate; returns the errors it measured."""
    result, fns = out
    ms = result.report.multiset()
    if inst.check == "closed_form":
        return {"max_abs_err": checks.closed_form_cycle(ms, inst.ring)}
    if inst.check == "reference":
        return {"max_abs_err": checks.reference_spectrum(ms, X, s)}
    if inst.check == "moments":
        return {"moment_err": checks.moments(ms, X, s)}
    err = checks.oracle_multiset(ms, oracle.value_multiset())
    if inst.check == "oracle":
        return {"max_abs_err": err}
    families = [f for fam in result.nodal_families.values() for f in fam]
    funcs = [(f.values, f.eigenvalue) for f in families + fns]
    return {"max_abs_err": err, "max_residual": checks.eigenbasis(result, funcs, oracle)}


def gate(measured: dict):
    """First-sweep hook: record each instance's failure, or fold its check errors
    into `measured` (largest error per kind)."""

    def verdict(inst, X, s, out, exc, oracle, rec):
        if exc is not None:
            rec.failure, rec.detail = failure_name(exc), (str(exc).splitlines() or [""])[0]
            return
        try:
            for key, value in check(inst, X, s, out, oracle).items():
                measured[key] = max(measured.get(key, 0.0), value)
        except checks.CheckFailed as fail:
            rec.failure, rec.detail = f"check.fail.{fail.kind}", str(fail)

    return verdict


def prepare(M, insts):
    """Parse the documents as a CLI user would; build X[V] for the oracle.

    Returns (instance, host, substituent, X[V] or None) per instance, and the
    parse time.
    """
    start = clock()
    parsed = [(M.fileformat.load_graph(i.host), M.fileformat.load_substituent(i.sub)) for i in insts]
    load_s = clock() - start
    items = [
        (i, X, s, M.substitution.substitute(X, M.graph.Orientation.default(X), s) if i.oracle else None)
        for i, (X, s) in zip(insts, parsed)
    ]
    return items, load_s


class SetupProbes:
    """Set-up samples taken between calls, one whenever SETUP_EVERY_S has
    passed since the last, so that they spread over the run."""

    def __init__(self, docs: str):
        self.docs = docs
        self.samples: list[float] = []
        self.last = None

    def between_calls(self) -> None:
        if self.last is None or clock() - self.last >= SETUP_EVERY_S:
            self.samples.append(probe_setup(self.docs))
            self.last = clock()


def repeat(fn, min_s: float, samples: list[float]):
    """Call `fn` until its calls add up to `min_s` seconds, at least once,
    appending the time of each call to `samples`; return the last result.
    An exception ends the repetition and propagates, its call timed."""
    spent = 0.0
    while True:
        start = clock()
        try:
            result = fn()
        finally:
            samples.append(clock() - start)
        spent += samples[-1]
        if spent >= min_s:
            return result


def sweep(M, call, rows, min_s, tracer=None, gate=None, probes=None, deadline=None) -> tuple[float, float]:
    """Time the program call of each row, and the oracle where the row has
    one, each repeated until it has run for `min_s`.  `gate` checks answers
    (first sweep only); `probes` takes set-up samples between calls.  The
    sweep stops before a row that would start after `deadline`.

    Returns (seconds timed, seconds spent in checks outside the timed regions).
    """
    timed = check_s = 0.0
    for inst, X, s, oracle_sub, rec in rows:
        if deadline is not None and clock() >= deadline:
            break
        if probes is not None:
            probes.between_calls()
        gc.collect()  # no garbage of earlier rows or of the checks is collected in this row's calls
        if tracer is not None:
            tracer.set_instance(inst.id, X, s.graph)
        before = len(rec.call_s)
        try:
            out, exc = repeat(lambda: call(M, X, s), min_s, rec.call_s), None
        except Exception as err:  # a failed operation: counted by class, never fatal
            out, exc = None, err
        timed += sum(rec.call_s[before:])
        dec = None
        if oracle_sub is not None:
            before = len(rec.oracle_s)
            dec = repeat(lambda: M.oracle.direct_spectrum(oracle_sub), min_s, rec.oracle_s)
            timed += sum(rec.oracle_s[before:])
        if gate is not None:
            start = clock()
            gate(inst, X, s, out, exc, dec, rec)
            check_s += clock() - start
    return timed, check_s


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out=print) -> dict:
    import instances

    M = edgesub_modules()
    insts = instances.build(workload, seed)
    out("# provenance " + json.dumps(provenance(workload, seed)))

    items, load_s = prepare(M, insts)
    records = [Record() for _ in insts]
    measured: dict = {}

    sym = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.eigh(sym + sym.T)  # BLAS start-up, untimed

    call = CALLS[workload]
    rows = [item + (rec,) for item, rec in zip(items, records)]
    # traced sweeps call each instance once, so that their counts repeat exactly
    min_s = 0.0 if trace else MIN_SAMPLE_S
    probes = None if trace else SetupProbes(json.dumps([[i.host, i.sub] for i in insts]))
    start = clock()
    _, check_s = sweep(M, call, rows, min_s, gate=gate(measured), probes=probes)
    last = clock() - start - check_s
    sweeps, traced = 1, []
    if trace:
        tracer = Tracer()
        # pairs of an untraced and a traced sweep, at least one, both whole so
        # that counts repeat exactly; the first sweep ran cold, with checks in
        # between, so the untraced sweep of the pair is the overhead's baseline
        while not traced or clock() - start + last <= seconds:
            t0 = clock()
            plain, _ = sweep(M, call, rows, min_s)
            tracer.install()
            try:
                timed, _ = sweep(M, call, rows, min_s, tracer=tracer)
            finally:
                tracer.restore()
            last = clock() - t0
            sweeps += 2
            values = tracer.finish_sweep(sweeps)
            values["trace.timed_s"] = timed
            values["trace.overhead_s"] = timed - plain
            traced.append(values)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl")
    else:
        while clock() - start < seconds:
            sweep(M, call, rows, min_s, probes=probes, deadline=start + seconds)
            sweeps += 1

    per_call = [_median(r.call_s) for r in records]
    failures = {i.id: (r.failure, r.detail) for i, r in zip(insts, records) if r.failure}
    setup = probes.samples if probes is not None else []
    out(f"# {len(insts)} instances, {sweeps} sweeps ({len(traced)} traced), {len(setup)} set-up samples "
        + " ".join(f"{x:.4f}" for x in setup))
    for inst, rec in zip(insts, records):
        times = f"{1e3 * _median(rec.call_s):.1f} (n={len(rec.call_s)})"
        oracle = f" oracle {1e3 * _median(rec.oracle_s):.1f} (n={len(rec.oracle_s)})" if rec.oracle_s else ""
        verdict = f"FAIL {rec.failure}: {rec.detail}" if rec.failure else f"ok ({inst.check})"
        out(f"#   {inst.id}  |X[V]|={inst.size}  median ms {times}{oracle}  {verdict}")
    out("# checks: largest error " + " ".join(f"{k}={v:.3g}" for k, v in sorted(measured.items())))
    if workload == "host-large":
        rungs = [(i, r) for i, r in zip(insts, records) if r.oracle_s]
        ratio = sum(_median(r.oracle_s) for _, r in rungs) / sum(_median(r.call_s) for _, r in rungs)
        out(f"# oracle crossover: direct_spectrum / assemble = {ratio:.3f} on "
            + ", ".join(i.id for i, _ in rungs) + " (reported, not gated)")

    fails: dict[str, float] = {}
    for name, _ in failures.values():
        fails[name] = fails.get(name, 0) + 1
    if trace:
        layer = layer_metrics(traced, measured, load_s, fails)
        values = select(SPEC["per_layer"], layer, out)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": sum(per_call),
            "instance_p50_ms": 1e3 * statistics.median(per_call),
            "instance_p90_ms": 1e3 * statistics.quantiles(per_call, n=10, method="inclusive")[8],
            "oracle_s": sum(_median(r.oracle_s) for r in records),
            "ok_frac": 1.0 - len(failures) / len(insts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        label = "spectrum_s" if call is spectrum else "eigenbasis_s"
        out(f"# solve_s is this workload's {label}; percentiles over {len(insts)} instances")
        values = select(SPEC["end_to_end"], metrics, out)
    return {
        "correct": not any(name.startswith("check.") for name, _ in failures.values()),
        "attempted": len(insts),
        "failed": len(failures),
        "metrics": values,
    }


def layer_metrics(traced, measured, load_s, fails) -> dict:
    """Medians over the traced sweeps, plus what the checks and parse measured."""
    keys = {k for p in traced for k in p}
    layer = {k: statistics.median(p.get(k, 0.0) for p in traced) for k in keys}
    layer["extensions.max_residual"] = measured.get("max_residual", 0.0)
    layer["oracle.max_abs_err"] = measured.get("max_abs_err", 0.0)
    layer["fileformat.load_s"] = load_s
    declared = {m["name"] for m in SPEC["per_layer"]}
    for name, n in fails.items():
        key = name if name in declared else "fail.other"
        layer[key] = layer.get(key, 0) + n
    return layer


def select(declared, values: dict, out) -> dict:
    """The declared metrics, in declared order, each with its unit; 0 for a
    layer that did no work in this run (`Tracer.install` fails instead when
    a function it should wrap is missing)."""
    chosen = {}
    for m in declared:
        value = float(values.get(m["name"], 0.0))
        chosen[m["name"]] = {"value": value, "unit": m["unit"]}
        out(f"{m['name']} = {value:.6g} {m['unit']}")
    return chosen


# -- entry points -------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{w}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{w}] exited with code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return code


def smoke() -> list[tuple[str, str, str | None]]:
    """Smallest instance of each workload, timed once and checked."""
    program.import_edgesub()
    import instances

    M = edgesub_modules()
    verdicts = []
    for w in WORKLOADS:
        inst = min(instances.build(w, 1), key=lambda i: i.size)
        items, _ = prepare(M, [inst])
        rec = Record()
        sweep(M, CALLS[w], [items[0] + (rec,)], 0.0, gate=gate({}))
        verdicts.append((w, inst.id, rec.failure))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        program.import_edgesub()
    except program.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    lines = []
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out=lines.append)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
