"""Exception types shared across the package."""


class CatspecError(Exception):
    """Base class for all package errors."""


class ConfigError(CatspecError):
    """Invalid or unparseable run configuration."""


class NonConvergence(CatspecError):
    """An iterative procedure failed to reach its tolerance."""


class DegenerateSeed(CatspecError):
    """Seed direction lies (numerically) in the excluded subspace."""


class QuadratureFailure(CatspecError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class TruncationTooSmall(CatspecError):
    """Requested truncation cannot support the discretization."""


class WeightOverflow(CatspecError):
    """A diagonal weight entry would overflow double precision."""


class UnresolvedState(CatspecError):
    """Wave packet is not resolved by the truncated mode basis."""


class UnresolvedWindow(CatspecError):
    """Truncation cannot cover the requested spectral window."""


class UnmatchedEntry(CatspecError):
    """Spectral matching failed to pair all entries."""


class MultiplicityMismatch(CatspecError):
    """Matched eigenvalues disagree in multiplicity."""
