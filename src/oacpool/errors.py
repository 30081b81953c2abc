"""Exception types shared across the library.

The CLI maps these onto process exit codes: data and parse problems exit
with 2, numerical failures with 3 (see ``oacpool.cli``).
"""


class ShapeMismatchError(ValueError):
    """Inputs whose lengths or dimensionalities do not agree."""


class TooShortSequenceError(ValueError):
    """A sequence has fewer frames than the operation requires."""


class ParseError(ValueError):
    """A data file (features, manifest, partition, checkpoint) is malformed."""


class MissingClassError(ValueError):
    """A declared class has no training vectors."""


class InvalidTargetError(ValueError):
    """A reduction target dimensionality the data cannot support."""


class SumOverflowError(ValueError):
    """Finite data values whose sum leaves the float64 range."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite parameters."""


class StaleCacheError(RuntimeError):
    """A forward cache was reused after the model's parameters changed."""
