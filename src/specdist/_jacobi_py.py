"""Pure numpy fallback for the cyclic Jacobi sweeps.

Same contract as the compiled kernel in _jacobi.c: rotate in place until
the off-diagonal Frobenius norm falls below tol, return (converged, sweeps).
Row/column updates are vectorized; the rotation loop itself stays in Python,
so this path is an order of magnitude slower (README.md shows how to compare
the two backends).
"""

import math

import numpy as np


def _off_norm(a):
    n = a.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return math.sqrt(float(np.sum(a[mask] ** 2)))


def jacobi_sweeps(a, max_sweeps, tol):
    n = a.shape[0]
    if n == 1:
        return True, 0
    skip = 0.1 * tol / n

    for sweep in range(max_sweeps):
        if _off_norm(a) < tol:
            return True, sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0

    return _off_norm(a) < tol, max_sweeps
