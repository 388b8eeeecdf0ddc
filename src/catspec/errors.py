"""Exception types shared across the package."""


class CatspecError(Exception):
    """Base class for all package errors."""


class ConfigError(CatspecError):
    """Invalid or unparseable run configuration."""


class NonConvergence(CatspecError):
    """An iterative procedure failed to reach its tolerance."""


class TruncationTooLarge(CatspecError):
    """A dense block past `operator.DENSE_DIM_CEILING`, or an orbit window past doubles."""


class WeightOverflow(CatspecError):
    """A diagonal weight entry would overflow double precision."""


class UnresolvedState(CatspecError):
    """Wave packet is not resolved by the truncated mode basis."""


class MultiplicityMismatch(CatspecError):
    """Matched eigenvalues disagree in multiplicity."""
