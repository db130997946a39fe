"""Dense symmetric eigensolver built on cyclic Jacobi sweeps.

The compiled C kernel (``_jacobi.c``) is preferred.  A pure numpy fallback
(``_jacobi_py.py``) is selected when the extension is unavailable or when
SPECTRA_NO_EXT=1 is set; it uses the kernel's per-rotation formulas, skip
threshold and convergence test, but the round-robin rotation ordering, with
its working copy stored in each round's pair order, so the two agree to
rounding, not bitwise.  Both return the eigenvalues in the input's index
order, unsorted.  Convergence: off-diagonal Frobenius
norm below 1e-12 * n, within a budget of SWEEP_BUDGET (100) sweeps.
"""

import os

import numpy as np

from .errors import ConvergenceError, NonSymmetricMatrixError

SWEEP_BUDGET = 100
TOL_PER_DIM = 1e-12

try:
    from ._jacobi import jacobi_sweeps as _compiled_sweeps
except ImportError:  # extension not built
    _compiled_sweeps = None

from ._jacobi_py import jacobi_sweeps as _pure_sweeps

if _compiled_sweeps is not None and os.environ.get("SPECTRA_NO_EXT") != "1":
    ACTIVE_BACKEND = "compiled"
else:
    ACTIVE_BACKEND = "pure"


def available_backends():
    backends = ["pure"]
    if _compiled_sweeps is not None:
        backends.insert(0, "compiled")
    return backends


def symmetric_eigenvalues(m, max_sweeps=None, backend=None):
    """Eigenvalues of an exactly symmetric matrix, unsorted.

    max_sweeps defaults to SWEEP_BUDGET, read at call time.  Raises
    NonSymmetricMatrixError for asymmetric input and ConvergenceError if the
    sweep budget is exhausted.
    """
    if max_sweeps is None:
        max_sweeps = SWEEP_BUDGET
    a = np.array(m, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise NonSymmetricMatrixError("matrix is not symmetric")

    n = a.shape[0]
    if backend is None:
        backend = ACTIVE_BACKEND
    if backend == "compiled":
        if _compiled_sweeps is None:
            raise RuntimeError("compiled Jacobi kernel is not available")
        sweeps = _compiled_sweeps
    elif backend == "pure":
        sweeps = _pure_sweeps
    else:
        raise ValueError(f"unknown backend {backend!r}")

    converged, used = sweeps(a, max_sweeps, TOL_PER_DIM * n)
    if not converged:
        raise ConvergenceError(
            f"off-diagonal norm still above {TOL_PER_DIM * n:g} after {used} sweeps"
        )
    return np.diagonal(a).copy()
