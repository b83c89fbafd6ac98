"""Exception types shared across the engine; `exit_code` is the CLI's exit status for each."""


class PartschedError(Exception):
    """Base class for all errors raised by this package."""
    exit_code: int


class InsufficientDataError(PartschedError):
    """Too few (or degenerate) samples to fit a density."""
    exit_code = 3


class InvalidRangeError(PartschedError, ValueError):
    """A histogram support with hi <= lo or otherwise unusable bounds."""
    exit_code = 3


class InvalidActionError(PartschedError):
    """An action referencing a part that is not available in this state."""
    exit_code = 3


class InvalidStateError(PartschedError):
    """A (mask, belief) pair outside a policy's state space."""
    exit_code = 4


class CapacityError(PartschedError):
    """Problem size exceeds the supported table or enumeration budget."""
    exit_code = 2


class ConfigurationError(PartschedError):
    """Mismatched components wired together (policy vs. model, etc.)."""
    exit_code = 5


class ArityMismatchError(ConfigurationError):
    """Part counts disagree between artifacts that must share them."""
    exit_code = 5


class FormatError(PartschedError, ValueError):
    """A persisted artifact does not parse against its schema."""
    exit_code = 3


class InvalidParameterError(PartschedError, ValueError):
    """A parameter outside its documented domain (e.g. non-positive cost)."""
    exit_code = 4


class InsufficientScriptError(PartschedError):
    """A scripted score sequence ran out before the policy stopped."""
    exit_code = 4


class ProviderError(PartschedError):
    """A response provider failed while serving a (location, part) request."""
    exit_code = 3


class UndefinedMetricError(PartschedError):
    """A metric that needs at least one positive example is undefined."""
    exit_code = 4
