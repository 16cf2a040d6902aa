"""Test-side checks that the library does not need: boundary data of a
classified basis, row sums of an operator, and the orientation independence
of the spectrum of X[V]."""

from __future__ import annotations

import random

import numpy as np

from edgesub.classify import TypedEigenvalue, _boundary_map
from edgesub.graph import Orientation, Substituent, WeightedGraph
from edgesub.operators import ReversibleOperator, eigen
from edgesub.substitution import substitute


def boundary_data(s: Substituent, t: TypedEigenvalue) -> np.ndarray:
    """Boundary rows (at a, at b) of the normal-form basis."""
    support = tuple(range(s.graph.n)) if t.source == "Q" else tuple(sorted(s.interior))
    return _boundary_map(s, t.source, support) @ t.basis


def is_stochastic(op: ReversibleOperator) -> bool:
    """Every row of the operator sums to exactly one."""
    return all(sum(op.entry(i, j) for j in range(op.dim)) == 1 for i in range(op.dim))


def reorient_equivalence_check(X: WeightedGraph, s: Substituent, trials: int, seed: int) -> bool:
    """Spectra of X[V] agree as multisets, to 1e-8, across random orientations.

    A sanity check, not a proof of isomorphism.
    """
    rng = random.Random(seed)
    reference = None
    for _ in range(trials):
        sub = substitute(X, Orientation.random(X, rng), s)
        vals = np.sort(np.array(eigen(ReversibleOperator.full(sub.graph)).all_values()))
        if reference is None:
            reference = vals
        elif len(vals) != len(reference) or np.max(np.abs(vals - reference)) > 1e-8:
            return False
    return True
