"""Exception types shared across the package.

UsageError is every request the program cannot serve as asked: the command
line's misuses and the order, residue and sample errors that subclass it, all
of which the CLI turns into exit 2.  LengthMismatchError and
NonSymmetricMatrixError stay plain ValueErrors, since no CLI request raises
them; ConvergenceError is the CLI's exit 4.
"""


class UsageError(ValueError):
    """A request that the program cannot serve as asked."""


class OrderTooSmallError(UsageError):
    """A graph family was requested below its minimum order."""


class OrderTooLargeError(UsageError):
    """An order beyond what the requested computation can represent."""


class LengthMismatchError(ValueError):
    """Two spectra of different lengths were compared."""


class NonSymmetricMatrixError(ValueError):
    """The eigensolver was given a matrix that is not exactly symmetric."""


class ConvergenceError(RuntimeError):
    """The Jacobi sweeps exhausted their budget before converging."""


class ResidueMismatchError(UsageError):
    """An order outside the class a pair takes (odd for cz), or a scan of pz,
    wz or pw without a residue 0..3."""


class InsufficientSamplesError(UsageError):
    """Extrapolation was attempted with too few samples."""
