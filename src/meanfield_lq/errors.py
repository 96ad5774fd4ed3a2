"""Exception types shared across the toolkit."""


class MeanfieldLQError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(MeanfieldLQError):
    """An input matrix or vector contains NaN or infinity."""


class NonSquare(MeanfieldLQError):
    """A square matrix was required."""


class DimensionMismatch(MeanfieldLQError):
    """Array shapes do not line up with the declared problem dimensions."""


class HorizonMismatch(MeanfieldLQError):
    """A process or tree does not cover the requested time range."""


class EpsilonNonPositive(MeanfieldLQError):
    """The regularisation weight must be strictly positive."""


class EmptyConfig(MeanfieldLQError):
    """A simulation configuration asked for zero work."""


class ProblemFormatError(MeanfieldLQError):
    """A problem file could not be parsed or failed validation."""


class NumericalBreakdown(MeanfieldLQError):
    """A recursion produced a non-finite entry (overflow or NaN)."""
