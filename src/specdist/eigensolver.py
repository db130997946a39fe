"""Dense symmetric eigensolver built on cyclic Jacobi sweeps.

The sweeps run in one compiled kernel, the CPython extension
``specdist._jacobi``, loaded at the first numeric call and not at import, so
the closed-form paths never need it.  In a source checkout, where
``_jacobi.c`` sits beside this module, a kernel that is missing for this
interpreter or older than ``_jacobi.c`` is first built by the C compiler
Python was configured with (``$CC`` if set), under a temporary name that is
then moved into place.  An installed package ships the built kernel and no
``_jacobi.c``, and only imports it.  A failed build, compiler flags that shlex
cannot split included, raises one OSError naming the cause.  numpy and
sysconfig, which names the kernel's file and the compiler's flags, are imported
at the first numeric call too; shlex and subprocess only when a build runs.

``jacobi_sweeps`` is read by symmetric_eigenvalues at each call; the kernel
rotates in place and leaves the eigenvalues on the diagonal, in the input's
index order, unsorted.  Each sweep visits the pairs in round-robin order
(Brent & Luk, 1985): n + n % 2 - 1 rounds of disjoint pairs, each round's
pivots taken before its rotations.  Convergence: off-diagonal Frobenius
norm below 1e-12 * n, within a budget of SWEEP_BUDGET (100) sweeps, read at
call time.
"""

import _thread
import contextlib
import functools
import importlib
import os

from .errors import ConvergenceError, NonSymmetricMatrixError

SWEEP_BUDGET = 100
TOL_PER_DIM = 1e-12
ACTIVE_BACKEND = "compiled"

# os.path, not pathlib, which importing the package would load
_SOURCE = os.path.join(os.path.dirname(__file__), "_jacobi.c")


def _compile(target):
    """Compile _SOURCE to target; every failure raises one OSError naming it."""
    # imported here, so that importing the package does not load them
    import shlex
    import subprocess
    import sysconfig

    var = sysconfig.get_config_var
    flags = f"{os.environ.get('CC') or var('CC')} {var('CFLAGS')} {var('CCSHARED')}"
    tmp = os.path.join(os.path.dirname(target), f"_jacobi-{os.getpid()}.tmp")
    try:
        command = [*shlex.split(flags), "-I", var("INCLUDEPY"), "-shared", _SOURCE,
                   "-o", tmp, "-lm"]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            said = (proc.stderr or proc.stdout).strip().splitlines()
            raise OSError(f"{command[0]} exited with status {proc.returncode}"
                          + (f": {said[0]}" if said else ""))
        os.replace(tmp, target)
    except (OSError, ValueError) as exc:  # shlex.split raises ValueError
        raise OSError(
            f"cannot build the Jacobi kernel {os.path.basename(target)}: {exc}; numeric "
            "spectra need a C compiler, or a package built by pip install -e ."
        ) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


# held around _kernel's check, build and import: functools.cache does not stop
# two threads from making the first call at once, and sysconfig, half set up
# by one, gives the other None for EXT_SUFFIX.  _thread is already loaded,
# where threading would be a new import.
_KERNEL_LOCK = _thread.allocate_lock()


@functools.cache
def _kernel():
    """The compiled jacobi_sweeps, built first when the source is newer."""
    with _KERNEL_LOCK:
        import sysconfig

        if os.path.exists(_SOURCE):
            target = os.path.join(os.path.dirname(_SOURCE),
                                  "_jacobi" + sysconfig.get_config_var("EXT_SUFFIX"))
            if not os.path.exists(target) or os.path.getmtime(target) < os.path.getmtime(_SOURCE):
                _compile(target)
                importlib.invalidate_caches()
        from ._jacobi import jacobi_sweeps

        return jacobi_sweeps


# a plain function, bound at import before any kernel is loaded, so that
# callers can find, rebind or wrap it without loading the kernel
def jacobi_sweeps(a, max_sweeps, tol):
    """Rotate a in place until converged: (converged, sweeps used)."""
    return _kernel()(a, max_sweeps, tol)


def symmetric_eigenvalues(m):
    """Eigenvalues of an exactly symmetric matrix, unsorted.

    Raises NonSymmetricMatrixError for asymmetric input, ConvergenceError if
    the sweep budget is exhausted and OSError if the kernel cannot be built.
    """
    import numpy as np

    a = np.array(m, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not (a == a.T).all():
        raise NonSymmetricMatrixError("matrix is not symmetric")

    tol = TOL_PER_DIM * a.shape[0]
    converged, used = jacobi_sweeps(a, SWEEP_BUDGET, tol)
    if not converged:
        raise ConvergenceError(f"off-diagonal norm still above {tol:g} after {used} sweeps")
    return a.diagonal().copy()
