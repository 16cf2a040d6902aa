"""Ground truth by brute force, independent of the compositional pipeline."""

from __future__ import annotations

import numpy as np

from .errors import NoSuchCluster, TooLarge
from .operators import EigenDecomposition, ReversibleOperator, eigen
from .substitution import SubstitutedGraph

SIZE_CAP = 4000


def direct_spectrum(sub: SubstitutedGraph) -> EigenDecomposition:
    if sub.n > SIZE_CAP:
        raise TooLarge(f"{sub.n} vertices exceeds the cap {SIZE_CAP}")
    return eigen(ReversibleOperator.full(sub.graph))


def nodal_dimension(decomp: EigenDecomposition, lam_star: float, host_count: int) -> int:
    """Dimension of the lambda*-eigenspace part vanishing on the host vertices:
    the cluster within 1e-7 of lambda*, less the rank of its host rows
    (singular values above 1e-8 * max(1, largest))."""
    k = decomp.cluster_near(lam_star)
    if k is None:
        raise NoSuchCluster(f"no eigenvalue cluster near {lam_star}")
    basis = decomp.bases[k]
    host_rows = basis[:host_count, :]
    sing = np.linalg.svd(host_rows, compute_uv=False)
    rank = int(np.sum(sing > 1e-8 * max(1.0, sing[0] if len(sing) else 0.0)))
    return basis.shape[1] - rank
