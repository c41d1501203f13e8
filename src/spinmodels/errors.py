"""Exception types shared across the package."""


class SpinModelError(Exception):
    """Base class for every package-specific error.  ``exit_code`` is the
    command line's exit status for it: 2 spec or input error, 3 resource cap,
    4 solver or numerics failure."""

    exit_code = 4


class DomainError(SpinModelError, ValueError):
    """A parameter lies outside the domain an operation is defined on."""

    exit_code = 2


class DimensionMismatchError(SpinModelError, ValueError):
    """Operands act on Hilbert spaces of different dimensions."""

    exit_code = 2


class ResourceCapError(SpinModelError, RuntimeError):
    """A requested object exceeds the configured Hilbert-space caps."""

    exit_code = 3


class SolverError(SpinModelError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the best residual norm reached before giving up, when known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class RangeLimitError(SpinModelError, ValueError):
    """An exponent exceeds the overflow-safe range for exp()."""


class DegenerateInputError(SpinModelError, ValueError):
    """Input is degenerate for the requested operation (vanishing weight, empty fit)."""


class SpecFileError(SpinModelError, ValueError):
    """A run-spec file failed to parse or validate."""

    exit_code = 2
