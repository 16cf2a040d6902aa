"""Exactness of the transfer series in the heavy regimes, against the
interpolation reference.

For the first 20 substituents of `randinst.sweep_instances(1, ...)` at
(max_v, min_interior, max_weight) = (14, 6, 100) and (22, 14, 100), compares
`compute_transfer`'s series det, theta_n and psi_n, and its reduced phi, with
`reference.transfer_series_by_interpolation` and phi reduced by Euclid over
Fraction.  Prints each unequal (regime, index) and exits non-zero if there is
any.  Not collected by pytest; it takes tens of seconds, mostly the
reference.  `test_transfer.py` runs `unequal` on the first two substituents
of (14, 6, 100), so that this script's imports and comparison stay working.
Run it as

    PYTHONPATH=src:tests python tests/heavy_exactness.py
"""

from __future__ import annotations

import sys
import time

from edgesub.transfer import compute_transfer

from randinst import sweep_instances
from reference import euclid_reduced, poly_sub, transfer_series_by_interpolation

REGIMES = [(14, 6, 100), (22, 14, 100)]  # (max_v, min_interior, max_weight)
COUNT = 20


def unequal(regime: tuple[int, int, int], count: int) -> list[int]:
    """Indices among the first `count` sweep substituents of `regime` whose
    series or phi differ from the reference."""
    max_v, min_interior, max_weight = regime
    bad = []
    for index, (_, s) in enumerate(
        sweep_instances(1, count, max_v=max_v, min_interior=min_interior, max_weight=max_weight)
    ):
        tf = compute_transfer(s)
        det, theta_num, psi_num = transfer_series_by_interpolation(s)
        phi = euclid_reduced(poly_sub([0, *det.coeffs], theta_num.coeffs), psi_num.coeffs)
        if (tf.det, tf.theta_num, tf.psi_num, tf.phi) != (det, theta_num, psi_num, phi):
            bad.append(index)
    return bad


def main() -> int:
    bad = 0
    for regime in REGIMES:
        start = time.perf_counter()
        for index in unequal(regime, COUNT):
            print(f"regime {regime} index {index}: unequal", flush=True)
            bad += 1
        seconds = time.perf_counter() - start
        print(f"regime {regime}: {COUNT} substituents in {seconds:.1f} s", flush=True)
    print(f"{bad} of {len(REGIMES) * COUNT} substituents unequal")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
