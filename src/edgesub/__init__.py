"""Compositional spectra of edge-substituted weighted graphs."""

from .assemble import (
    PipelineResult,
    SpectrumEntry,
    SpectrumReport,
    assemble,
    exceptional_set,
    interior_multiplicity,
    solve_S1,
    solve_S2,
    spectral_gap,
)
from .classify import TypedEigenvalue, classify_Q, classify_Qinterior
from .extensions import (
    ExtensionFunction,
    balance,
    embed_specQ,
    independence_rank,
    nodal_from_interior,
    transfer_extension,
)
from .graph import (
    CycleBase,
    Orientation,
    Substituent,
    WeightedGraph,
    bfs_spanning_tree,
    find_gamma,
    fundamental_cycle_base,
    validate_substituent,
)
from .operators import (
    CLUSTER_TOL,
    EigenDecomposition,
    ReversibleOperator,
    eigen,
    spectral_radius,
)
from .fixtures import fixture_circle
from .oracle import direct_spectrum, nodal_dimension
from .substitution import SubstitutedGraph, substitute
from .transfer import (
    BoundaryKernels,
    TransferFunctions,
    boundary_kernels,
    compute_transfer,
    solve_boundary,
    verify_resolvent_identity,
)

__version__ = "0.1.0"
