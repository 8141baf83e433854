"""Exception types shared across the package."""


class DegenerateInput(ValueError):
    """Raised when an operation requires a simple spectrum but the input
    lies on (or too close to) a degeneracy surface, where eigenvector
    phases and mixing are not determined."""


class UnderResolvedPath(ValueError):
    """Raised when a discretized path or surface is too coarse for its
    result to be trusted: consecutive eigenvector overlaps along a loop fall
    below the resolution guard, so the discrete geometric phase is
    unreliable, or the monopole-flux quadrature reaches its order cap
    without two refinements agreeing within the tolerance."""
