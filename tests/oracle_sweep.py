"""Oracle sweep of `assemble` over random instances of the `randinst` recipe.

For each seed, takes the first `--count` pairs of
`randinst.sweep_instances(seed, ...)`, by default with |V| <= 10, |V°| >= 1
and conductances p/q with 1 <= p, q <= 4; `--max-v`, `--min-interior` and
`--max-weight` choose another regime.  It runs `assemble` and compares the
report with `direct_spectrum`, and the rank of each interior eigenvalue's
nodal family with the oracle's `nodal_dimension` there (`NodalRankMismatch`);
then it checks that every nodal function, and every `embed_specQ` function
of every eigenvalue of Q, has a relative residual of at most TOL
(`FamilyResidual`).
Prints each mismatching (seed, index, error class) and exits non-zero if
there is any.  Not collected by pytest; run it as

    PYTHONPATH=src python tests/oracle_sweep.py --seeds 1-4 --count 338
    PYTHONPATH=src python tests/oracle_sweep.py --seeds 1-2 --count 40 --max-v 22 --min-interior 14
"""

from __future__ import annotations

import argparse
import sys

from edgesub.assemble import assemble
from edgesub.errors import EdgeSubError, NoSuchCluster
from edgesub.extensions import embed_specQ, independence_rank, residual
from edgesub.graph import Orientation
from edgesub.oracle import direct_spectrum, nodal_dimension

from randinst import sweep_instances

TOL = 1e-8  # eigenvalue tolerance of the acceptance suite


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def mismatch(X, s) -> str | None:
    """None if assemble agrees with the oracle, else the error class."""
    try:
        result = assemble(X, Orientation.default(X), s)
    except EdgeSubError as exc:
        return type(exc).__name__
    oracle = direct_spectrum(result.substituted)
    got = sorted(result.report.multiset())
    want = sorted(oracle.value_multiset())
    if len(got) != len(want) or any(
        abs(gv - wv) > TOL or gn != wn for (gv, gn), (wv, wn) in zip(got, want)
    ):
        return "OracleDisagreement"
    for t in result.classified_interior:
        try:
            dim = nodal_dimension(oracle, t.value, X.n)
        except NoSuchCluster:  # the interior value is not in the spectrum at all
            dim = 0
        if independence_rank(result.nodal_families[t.value]) != dim:
            return "NodalRankMismatch"
    sub = result.substituted
    glued = [f for family in result.nodal_families.values() for f in family]
    glued += [f for t in result.classified_Q for f in embed_specQ(sub, t)]
    if not all(residual(sub, f) <= TOL for f in glued):  # an all-zero function reads NaN
        return "FamilyResidual"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-4"), help="e.g. 1-4 or 2")
    parser.add_argument("--count", type=int, default=338, help="instances per seed")
    parser.add_argument("--max-v", type=int, default=10, help="largest |V|")
    parser.add_argument("--min-interior", type=int, default=1, help="smallest |V°|")
    parser.add_argument("--max-weight", type=int, default=4, help="largest p and q of a conductance p/q")
    args = parser.parse_args(argv)
    regime = {"max_v": args.max_v, "min_interior": args.min_interior, "max_weight": args.max_weight}
    bad = 0
    for seed in args.seeds:
        for index, (X, s) in enumerate(sweep_instances(seed, args.count, **regime)):
            error = mismatch(X, s)
            if error is not None:
                bad += 1
                print(f"seed {seed} index {index}: {error}", flush=True)
    total = len(args.seeds) * args.count
    print(f"{bad} of {total} instances mismatch")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
