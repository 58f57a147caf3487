"""Exception types shared across the package."""


class CombScatterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(CombScatterError, ValueError):
    """An argument violates a documented precondition."""


class InternalConsistencyError(CombScatterError):
    """Objects that must be constructed against the same grid do not match."""


class AboveThresholdError(CombScatterError):
    """The linear model diverged: pump strength at or past parametric oscillation.

    Carries the condition estimate when the condition cap raised it (None
    for a dynamically unstable system, found before any inversion) and,
    when raised inside a phase sweep, the offending phase value.
    """

    def __init__(self, message, condition_estimate=None, phase=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate
        self.phase = phase


class BasisInconsistencyError(CombScatterError):
    """A matrix claimed to be in the interleaved (a, a*) basis is malformed."""


class DegenerateNormalizationError(CombScatterError):
    """The pump-off reference has (near-)zero reflection on some mode."""


class FitInfeasibleError(CombScatterError):
    """Every cell of the fit surface sits above the oscillation threshold."""


class DataFormatError(CombScatterError):
    """A data file violates its declared container format."""


class ConfigError(CombScatterError):
    """Configuration text failed validation.

    ``issues`` holds every problem found, not just the first.
    """

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues) or "invalid configuration")
