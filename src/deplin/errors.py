"""Exception types raised across the library."""


class DeplinError(Exception):
    """Base class for all library errors.  An error that a file reader found
    carries the 1-based line of its sentence as `line_no`, and the file."""

    line_no = None
    _path = None


class TreeValidationError(DeplinError, ValueError):
    """A head vector or edge list does not encode a valid tree."""


class NoRootError(TreeValidationError):
    pass


class MultipleRootsError(TreeValidationError):
    pass


class SelfHeadError(TreeValidationError):
    pass


class OutOfRangeError(TreeValidationError):
    pass


class CycleError(TreeValidationError):
    pass


class NotATreeError(TreeValidationError):
    pass


class DuplicateEdgeError(TreeValidationError):
    pass


class SelfLoopError(TreeValidationError):
    pass


class SizeMismatchError(DeplinError, ValueError):
    """Tree and arrangement are not over the same vertex set."""


class TooSmallError(DeplinError, ValueError):
    """Metric undefined below a minimum vertex count; a feature of such a
    tree is None, an empty CSV cell."""


class NoEdgesError(TooSmallError):
    """Metric undefined on a single-vertex tree, which has no edges."""


class SizeLimitExceededError(DeplinError, ValueError):
    """Exhaustive computation requested beyond the configured bound."""


class EnsembleTooLargeError(DeplinError, ValueError):
    """Exact estimation requested over an ensemble beyond the configured bound."""


class UnknownMetricError(DeplinError, KeyError):
    """Metric name not present in the feature registry; printed unquoted."""

    __str__ = BaseException.__str__  # a KeyError's str() is the repr of its key


class KindMismatchError(DeplinError, ValueError):
    """A free tree (or tree kind) was given where a root or orientation is read."""


class MalformedLineError(DeplinError, ValueError):
    """An input line could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class NonContiguousIdsError(MalformedLineError):
    pass


class HeadOutOfRangeError(MalformedLineError):
    pass


def _describe(exc: Exception) -> str:
    """The one form of every skip reason and error message: `<ErrorClass>: <message>`."""
    return f"{type(exc).__name__}: {exc}"


def _skip_or_fail(exc: DeplinError, line_no: int, path: str, error_policy: str) -> str:
    """Locate an invalid sentence's error at `line_no` of `path`; raise it
    under "fail_fast", otherwise return its skip reason."""
    exc.line_no, exc._path = line_no, path
    if error_policy == "fail_fast":
        raise exc
    return _describe(exc)
