"""Pure numpy fallback for the cyclic Jacobi sweeps.

Same contract as the compiled kernel in _jacobi.c: rotate in place until
the off-diagonal Frobenius norm falls below tol, return (converged, sweeps).
The per-rotation formulas, the skip threshold and the convergence test are
the kernel's, but the rotations run in the round-robin ("parallel") ordering
of Brent & Luk (SIAM J. Sci. Stat. Comput. 6 (1985) 69-84), not row by row:
a sweep is m - 1 rounds of m/2 disjoint rotations (m = n + n % 2), and
disjoint rotations commute, so each round is one vectorised O(n^2) update.

The working copy is stored in the current round's pair order: pair k sits at
rows and columns 2k and 2k + 1, so a round's pivots are strided views and its
rotation is two batched 2x2 matmuls, one per side.  Odd n gets a zero dummy
row and column; the dummy's pair, like every pair at or below the skip
threshold, gets the identity rotation.  After each round, one row take and
one column take move the storage to the next round's order.  Round 0's pair
order is the input's order, so after each sweep the storage is back in it.
The eigenvalues agree with the kernel's to rounding, not bitwise.  The
fallback is still several times slower than the kernel; README.md gives the
measured ratio and shows how to compare the two.
"""

import math

import numpy as np


def _schedule(n):
    """Brent & Luk's round-robin schedule for n indices, as (orders, moves).

    orders[r] lists round r's pairs side by side: pair k is
    (orders[r, 2k], orders[r, 2k + 1]) with the smaller label first, and
    label n is the dummy of odd n.  moves[r] takes round r's storage to the
    next round's, cyclically: orders[r][moves[r]] == orders[(r + 1) % rounds].

    Round 0 pairs 0-1, 2-3, ...; index 0 stays put and the others move one
    place round a ring each round, so over m - 1 rounds every pair meets once.
    """
    m = n + n % 2
    ring = np.concatenate([np.arange(2, m, 2), np.arange(m - 1, 0, -2)])
    shift = np.arange(m - 1)
    rings = ring[(shift[None, :] - shift[:, None]) % (m - 1)]
    top = np.hstack([np.zeros((m - 1, 1), dtype=ring.dtype), rings[:, : m // 2 - 1]])
    bottom = rings[:, m // 2 - 1 :][:, ::-1]
    orders = np.stack([np.minimum(top, bottom), np.maximum(top, bottom)], axis=2)
    orders = orders.reshape(m - 1, m)
    position = np.argsort(orders, axis=1)
    moves = np.take_along_axis(position, np.roll(orders, -1, axis=0), axis=1)
    return orders, moves


def _rotate(b, moves, max_sweeps, tol, skip):
    """The sweeps on b, stored in round 0's pair order, in place."""
    m = b.shape[0]
    h = m // 2
    stride = 2 * m + 2  # from pair k's pivot block to pair k + 1's in the flat storage
    flat = b.reshape(m * m)
    app, apq, aqp, aqq = (flat[i::stride] for i in (0, 1, m, m + 1))
    g = np.empty((h, 2, 2))  # each pair's J^T
    rows, both, moved = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    off = ~np.eye(m, dtype=bool)

    def off_norm():
        return math.sqrt(float(np.sum(b[off] ** 2)))

    # a huge theta overflows theta * theta to inf, which gives t = 0; a
    # skipped pair's theta may be inf or nan, and its t is then set to 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sweep in range(max_sweeps):
            if off_norm() < tol:
                return True, sweep
            for move in moves:
                live = np.abs(apq) > skip
                if live.any():
                    theta = (aqq - app) / (2.0 * apq)
                    # the kernel's 1/(theta + r) for theta >= 0, else -1/(-theta + r);
                    # theta + 0.0 turns -0.0, which counts as >= 0, into +0.0
                    r = np.sqrt(theta * theta + 1.0)
                    t = np.copysign(1.0 / (np.abs(theta) + r), theta + 0.0)
                    t = np.where(live, t, 0.0)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    # row p: c a_p - s a_q; row q: c a_q + s a_p
                    g[:, 0, 0] = g[:, 1, 1] = c
                    g[:, 0, 1] = -s
                    g[:, 1, 0] = s
                    tapq = t * apq
                    pivots = app - tapq, aqq + tapq, np.where(live, 0.0, apq)

                    # J^T A, then J^T (J^T A)^T = (A J)^T: the two sides of
                    # J^T A J differ in the last bit, and their mean is
                    # exactly symmetric
                    np.matmul(g, b.reshape(h, 2, m), out=rows.reshape(h, 2, m))
                    np.matmul(g, rows.T.reshape(h, 2, m), out=both.reshape(h, 2, m))
                    np.add(both, both.T, out=b)
                    b *= 0.5
                    app[...], aqq[...], apq[...] = pivots
                    aqp[...] = apq
                b.take(move, 0, out=moved)
                moved.take(move, 1, out=b)
    return off_norm() < tol, max_sweeps


def jacobi_sweeps(a, max_sweeps, tol):
    n = a.shape[0]
    if n == 1:
        return True, 0
    moves = _schedule(n)[1]
    # round 0 pairs 0-1, 2-3, ...: its pair order is the label order
    m = moves.shape[1]
    b = np.zeros((m, m))
    b[:n, :n] = a
    result = _rotate(b, moves, max_sweeps, tol, 0.1 * tol / n)
    a[...] = b[:n, :n]
    return result
