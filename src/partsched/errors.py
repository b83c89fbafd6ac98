"""Exception types shared across the engine; `exit_code` is the CLI's exit status for each.

One class per exit code, or per error a caller catches on its own: policy loading catches
InvalidParameterError, fitting and synthesis InvalidRangeError, the provider fetch ProviderError.
"""


class PartschedError(Exception):
    """Base class for all errors raised by this package."""
    exit_code: int


class InvalidRangeError(PartschedError, ValueError):
    """A histogram support with hi <= lo or otherwise unusable bounds, or samples too few or
    too degenerate (zero spread) to fit a density on one."""
    exit_code = 3


class CapacityError(PartschedError):
    """Problem size exceeds the supported table or enumeration budget."""
    exit_code = 2


class ConfigurationError(PartschedError):
    """Mismatched components wired together, e.g. part counts that disagree between
    the policy, the model, the likelihoods and the responses."""
    exit_code = 5


class FormatError(PartschedError, ValueError):
    """A persisted artifact does not parse against its schema."""
    exit_code = 3


class InvalidParameterError(PartschedError, ValueError):
    """A parameter outside its documented domain: a non-positive cost, an action code out of
    range or naming a used part, a score script that runs out, a metric with no positive."""
    exit_code = 4


class ProviderError(PartschedError):
    """A response provider failed while serving a (location, part) request."""
    exit_code = 3

