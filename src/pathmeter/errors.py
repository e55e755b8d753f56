"""Exception types shared across the package.

Every named failure mode of the public API lives here so callers (and the
CLI exit-code mapping) can catch them without importing compute modules.
"""


class PathMeterError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(PathMeterError):
    """Matrix fails the hermiticity test beyond the allowed tolerance."""


class DegenerateSpectrum(PathMeterError):
    """Observable has (near-)degenerate eigenvalues and cannot label eigenpaths."""


class DegenerateSpectrumWarning(UserWarning):
    """Non-fatal flag: a decomposed operator has eigenvalue gaps below tolerance."""


class DimensionMismatch(PathMeterError):
    """Operands live in Hilbert spaces of different dimension."""


class ImpulseOutOfRange(PathMeterError):
    """Impulse switching time lies outside the evolution window."""


class LengthMismatch(PathMeterError):
    """Per-slice data does not match the time grid's slice count."""


class CapExceeded(PathMeterError):
    """A path sum would hold more path classes than pathsum.PATH_CAP.

    Carries (requested, cap): the candidate (key, end label) classes of
    the next slice, which are the paths themselves when nothing merges.
    Reduce the slice count or switch to the pointer-variable Fourier
    route, which does not sum paths.
    """

    def __init__(self, requested, cap):
        self.requested = int(requested)
        self.cap = int(cap)
        super().__init__(
            f"{self.requested} path classes exceed the cap {self.cap}; "
            "reduce N or use the lambda route"
        )


class QuadratureBudgetExceeded(PathMeterError):
    """A jump-series term would need more recursion cells than the budget.

    The nested time-integral recursion holds order * nodes * dim^2 complex
    cells; the check runs before anything is allocated.
    """


class AllZeroSubstates(PathMeterError):
    """Cannot normalise weights: every substate has zero norm."""


class NyquistViolation(PathMeterError):
    """Lambda-grid spacing too coarse for the per-slice coupling increments."""


class GridTooSmall(PathMeterError):
    """Readout grid does not cover (or resolve) the attainable functional values."""


class GridMismatch(PathMeterError):
    """Two grid-sampled objects do not share the same grid."""


class FineFieldNotNormalizable(PathMeterError):
    """Fine-grained amplitude fields are delta combs; coarse-grain before
    forming probabilities."""


class NonPositiveAlpha(PathMeterError):
    """Resolution rescale factor must be > 0."""


class EmptyRecordSet(PathMeterError):
    """Record scan needs at least one readout record."""


class ImpulseNotSquareIntegrable(PathMeterError):
    """The square integral of an impulse switching function is undefined."""


class ConfigInvalid(PathMeterError):
    """Experiment configuration failed validation.

    The message names the offending field path.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
