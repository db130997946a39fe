"""Pure numpy fallback for the cyclic Jacobi sweeps.

Same contract as the compiled kernel in _jacobi.c: rotate in place until
the off-diagonal Frobenius norm falls below tol, return (converged, sweeps).
The per-rotation formulas, the skip threshold and the convergence test are
the kernel's, but the rotations run in the round-robin ("parallel") ordering
of Brent & Luk (SIAM J. Sci. Stat. Comput. 6 (1985) 69-84), not row by row:
a sweep is n - 1 rounds (n for odd n) of floor(n/2) disjoint rotations, and
disjoint rotations commute, so each round is one vectorised O(n^2) update.
The eigenvalues agree with the kernel's to rounding, not bitwise.  The
fallback is still several times slower than the kernel; README.md gives the
measured ratio and shows how to compare the two.
"""

import math

import numpy as np


def _rounds(n):
    """Brent & Luk's round-robin pairings of 0..n-1, as (P, Q, PQ, QP) with
    P < Q elementwise, PQ = P then Q and QP = Q then P, one per round.

    Round 0 pairs 0-1, 2-3, ...; index 0 stays put and the others move one
    place round a ring each round, so over m - 1 rounds (m = n + n % 2)
    every pair meets once.  For odd n, index n is a dummy "bye" and its
    partner sits the round out.
    """
    m = n + n % 2
    ring = np.concatenate([np.arange(2, m, 2), np.arange(m - 1, 0, -2)])
    shift = np.arange(m - 1)
    rings = ring[(shift[None, :] - shift[:, None]) % (m - 1)]
    top = np.hstack([np.zeros((m - 1, 1), dtype=ring.dtype), rings[:, : m // 2 - 1]])
    bottom = rings[:, m // 2 - 1 :][:, ::-1]
    rounds = []
    for u, v in zip(top, bottom):
        p, q = np.minimum(u, v), np.maximum(u, v)
        p, q = p[q < n], q[q < n]
        rounds.append((p, q, np.concatenate([p, q]), np.concatenate([q, p])))
    return rounds


def jacobi_sweeps(a, max_sweeps, tol):
    n = a.shape[0]
    if n == 1:
        return True, 0
    skip = 0.1 * tol / n
    off = ~np.eye(n, dtype=bool)
    rounds = _rounds(n)

    def off_norm():
        return math.sqrt(float(np.sum(a[off] ** 2)))

    # a huge theta overflows theta * theta to inf, which gives t = 0
    with np.errstate(over="ignore"):
        for sweep in range(max_sweeps):
            if off_norm() < tol:
                return True, sweep
            for p, q, pq, qp in rounds:
                apq = a[p, q]
                if np.abs(apq).min() <= skip:
                    live = np.abs(apq) > skip
                    if not live.any():
                        continue
                    p, q, apq = p[live], q[live], apq[live]
                    pq, qp = np.concatenate([p, q]), np.concatenate([q, p])
                app = a[p, p]
                aqq = a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                # the kernel's 1/(theta + r) for theta >= 0, else -1/(-theta + r);
                # theta + 0.0 turns -0.0, which counts as >= 0, into +0.0
                r = np.sqrt(theta * theta + 1.0)
                t = np.copysign(1.0 / (np.abs(theta) + r), theta + 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cc = np.concatenate([c, c])
                ss = np.concatenate([-s, s])  # row p: c a_p - s a_q; row q: c a_q + s a_p

                # rows P and Q of J^T A; A is symmetric, so transposed they are
                # also columns P and Q of A J, and only their P∪Q block needs
                # the second rotation.  It leaves the block's two sides apart
                # in the last bit: their mean is exactly symmetric.
                rows = cc[:, None] * a.take(pq, 0) + ss[:, None] * a.take(qp, 0)
                block = rows.take(pq, 1) * cc + rows.take(qp, 1) * ss
                rows[:, pq] = (block + block.T) * 0.5
                a[pq] = rows
                a[:, pq] = rows.T
                tapq = t * apq
                a[pq, pq] = np.concatenate([app - tapq, aqq + tapq])
                a[pq, qp] = 0.0

    return off_norm() < tol, max_sweeps
