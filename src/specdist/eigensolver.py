"""Dense symmetric eigensolver built on cyclic Jacobi sweeps.

The kernel is chosen once, at import, and bound to ``jacobi_sweeps``, which
symmetric_eigenvalues reads at each call.  The compiled C kernel
(``_jacobi.c``) is preferred.  A pure numpy fallback (``_jacobi_py.py``) is
bound when the extension is unavailable or when SPECTRA_NO_EXT=1 is set; it
uses the kernel's per-rotation formulas, skip threshold and convergence test,
but the round-robin rotation ordering, with its working copy stored in each
round's pair order, so the two agree to rounding, not bitwise.  Both return
the eigenvalues in the input's index order, unsorted.  Convergence:
off-diagonal Frobenius norm below 1e-12 * n, within a budget of SWEEP_BUDGET
(100) sweeps, read at call time.
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
    ACTIVE_BACKEND, jacobi_sweeps = "compiled", _compiled_sweeps
else:
    ACTIVE_BACKEND, jacobi_sweeps = "pure", _pure_sweeps


def symmetric_eigenvalues(m):
    """Eigenvalues of an exactly symmetric matrix, unsorted.

    Raises NonSymmetricMatrixError for asymmetric input and ConvergenceError
    if the sweep budget is exhausted.
    """
    a = np.array(m, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise NonSymmetricMatrixError("matrix is not symmetric")

    tol = TOL_PER_DIM * a.shape[0]
    converged, used = jacobi_sweeps(a, SWEEP_BUDGET, tol)
    if not converged:
        raise ConvergenceError(f"off-diagonal norm still above {tol:g} after {used} sweeps")
    return np.diagonal(a).copy()
