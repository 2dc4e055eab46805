"""Exception hierarchy shared by all pseudosun modules."""


class PseudosunError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PseudosunError, ValueError):
    """Invalid input: bad grid, bad parameters, bad configuration."""


class FieldError(ValidationError):
    """Invalid input whose message starts with the path of the bad field, such as
    "initial.gain: ...", within the object being built; the config reader puts
    the path of the block it was building in front.
    """


class NumericalError(PseudosunError, RuntimeError):
    """A computation failed numerically (divergence, NaN, degenerate data)."""


class FitDivergedError(NumericalError):
    """The spectral fit hit a non-finite objective value.

    Carries the offending parameter set so the caller can inspect where the
    search left the well-behaved region.
    """

    def __init__(self, message: str, params=None):
        super().__init__(message)
        self.params = params


class NormalizationError(NumericalError):
    """A trajectory cannot be normalized (reference entry is zero or negative)."""
