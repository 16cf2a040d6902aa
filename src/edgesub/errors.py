"""Exception types shared across the package."""


class EdgeSubError(Exception):
    """Base class for all library errors."""


class GraphFormatError(EdgeSubError):
    """A graph document could not be parsed or violates basic invariants."""


class GraphInvariantError(EdgeSubError):
    """A WeightedGraph invariant (positivity, no loops, an edge, connectivity) fails."""


class SubstituentInvalid(EdgeSubError):
    """Base class for substituent validation failures."""


class GammaNotAutomorphism(SubstituentInvalid):
    pass


class GammaDoesNotSwapAB(SubstituentInvalid):
    pass


class VMinusBDisconnected(SubstituentInvalid):
    pass


class EmptyInterior(SubstituentInvalid):
    pass


class KernelPole(EdgeSubError):
    """Boundary kernels evaluated within POLE_GUARD of one of their poles."""


class InvalidTypeCombination(EdgeSubError):
    """Multiplicity table queried at an impossible type pair, or giving a
    negative count; or a simple eigenvalue typed IV."""


class TotalMismatch(EdgeSubError):
    """Assembled multiplicities do not sum to |X[V]|."""


class TooLarge(EdgeSubError):
    """Brute-force eigendecomposition refused above the size cap."""


class NoSuchCluster(EdgeSubError):
    """Requested eigenvalue is not close to any cluster."""


class PreconditionNotMet(EdgeSubError):
    """Operation preconditions (e.g. for the spectral gap) do not hold."""
