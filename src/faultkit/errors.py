"""Exception types shared across the toolkit."""


class FaultkitError(Exception):
    """Base class for all toolkit errors."""


class ExpressionError(FaultkitError):
    """Malformed boolean expression, or a reference to an unknown atom."""


class ModelFormatError(FaultkitError):
    """An input file cannot be read or does not conform to its format."""


class TraceError(FaultkitError):
    """A state sequence is not a trace of the given model."""


class ObservationError(FaultkitError):
    """An observation sequence cannot be consumed; carries the failing step."""

    def __init__(self, step, message):
        self.step = step
        super().__init__(message)


class SizeGuardExceeded(FaultkitError):
    """An exhaustive enumeration would exceed the configured work bound."""
