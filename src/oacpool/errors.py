"""Exception types shared across the library.

The hierarchy decides the CLI's exit code (see ``oacpool.cli.main``)::

    ValueError                  exit 1: a bad argument value
        DataError               exit 2: the input data is at fault
            ParseError
            ShapeMismatchError
            TooShortSequenceError
            MissingClassError
            InvalidTargetError
            SumOverflowError
    OSError                     exit 2: a file that cannot be read or written
    RuntimeError
        DivergenceError         exit 3: a numerical failure
        StaleCacheError         (a programming error; never caught)
"""


class DataError(ValueError):
    """Input data that the library cannot use; the CLI exits 2 on it."""


class ShapeMismatchError(DataError):
    """Inputs whose lengths or dimensionalities do not agree."""


class TooShortSequenceError(DataError):
    """A sequence has fewer frames than the operation requires."""


class ParseError(DataError):
    """A data file (features, manifest, partition, checkpoint) is malformed."""


class MissingClassError(DataError):
    """A declared class has no training vectors."""


class InvalidTargetError(DataError):
    """A reduction target dimensionality the data cannot support."""


class SumOverflowError(DataError):
    """Finite data values whose sum leaves the float64 range."""


class DivergenceError(RuntimeError):
    """Training or evaluation produced non-finite pooled responses or logits.

    Training also raises it for non-finite parameters.
    """


class StaleCacheError(RuntimeError):
    """A forward cache was reused after the model's parameters changed."""
