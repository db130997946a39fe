"""Exception types shared across the package."""


class OrderTooSmallError(ValueError):
    """A graph family was requested below its minimum order."""


class OrderTooLargeError(ValueError):
    """An order beyond what the requested computation can represent."""


class LengthMismatchError(ValueError):
    """Two spectra of different lengths were compared."""


class NonSymmetricMatrixError(ValueError):
    """The eigensolver was given a matrix that is not exactly symmetric."""


class ConvergenceError(RuntimeError):
    """The Jacobi sweeps exhausted their budget before converging."""


class ResidueMismatchError(ValueError):
    """An order outside the class a pair or scan takes: odd for cz, or not
    the requested residue mod 4."""


class InsufficientSamplesError(ValueError):
    """Extrapolation was attempted with too few samples."""
