"""Exception types shared across the package."""


class KgError(Exception):
    """Base class for all kgorbit errors."""


class AssumptionViolated(KgError):
    """Model parameters outside the admissible range."""


class DimensionMismatch(KgError):
    """Array shape, mode count, or exponent disagrees with the spectrum table."""


class NonFiniteState(KgError):
    """A state vector picked up NaN or Inf entries (blow-up or too-large step)."""


class NoCrossing(KgError):
    """Bracketing states do not straddle the section, or the side constraint fails.

    ``reason`` names the check that failed: 'no_sign_change' (also for
    bracketing states out of time order), 'stalled' or 'sign_constraint'.
    """

    def __init__(self, message: str, reason: str):
        self.reason = reason
        super().__init__(message)


class NoReturn(KgError):
    """No admissible section crossing was found within the time budget."""


class OutOfRange(KgError):
    """Scalar argument outside its admissible interval."""


class ProjectionUndefined(KgError):
    """The level-set projection has no real solution for this state."""


class EmptyModeSet(KgError):
    """A nonzero perturbation was requested without any target modes."""


class InsufficientSamples(KgError):
    """A ``Trajectory`` whose pages went to a reader was asked for its samples
    or their times."""


class ValidationError(KgError):
    """Configuration is well-formed but violates a model or schema constraint."""


class ParseError(KgError):
    """Config text could not be parsed.  Carries the offending line and key."""

    def __init__(self, line: int, key: str, reason: str):
        self.line = line
        self.key = key
        self.reason = reason
        super().__init__(f"line {line}: key '{key}': {reason}")
