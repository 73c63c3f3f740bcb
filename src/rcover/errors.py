"""Exception hierarchy shared across the package."""


class RcoverError(Exception):
    """Base class for all package-specific errors."""


class InvalidPairError(RcoverError):
    """A pair query was made with two identical vertices."""


class NotAnEdgeError(RcoverError):
    """An operation expected an edge of the host hypergraph."""


class CleanupExhaustedError(RcoverError):
    """Iterative cleanup deleted every vertex; carries the cleanup report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BranchInapplicableError(RcoverError):
    """A precondition of ``residual_component`` or ``dissolve_matching`` failed."""


class UndefinedDensityError(RcoverError):
    """Density requested over an empty triangle set."""


class InstanceTooLargeError(RcoverError):
    """Input exceeds a hard size cap of an exact search."""


class FormatError(RcoverError):
    """Malformed instance or result file."""
