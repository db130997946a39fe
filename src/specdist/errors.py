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
    """An order outside the class a pair takes (odd for cz), or a scan of pz,
    wz or pw without a residue 0..3."""


class InsufficientSamplesError(ValueError):
    """Extrapolation was attempted with too few samples."""


class UsageError(ValueError):
    """A command-line request that the program cannot serve as asked."""
