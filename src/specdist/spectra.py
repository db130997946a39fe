"""Adjacency spectra of the four families, two independent ways.

angle_progressions states each family's spectrum once, as exact angles
pi num/den; closed_spectrum writes them out as cosines.  The closed forms and
the Jacobi eigensolver act as mutual oracles; spectrum_deviation measures
their sup-norm disagreement.  Every function but angle_progressions imports
numpy when called.
"""

import io
import math

from .errors import LengthMismatchError
from .eigensolver import symmetric_eigenvalues
from .graphs import Family, FamilySpec


def closed_spectrum(spec: FamilySpec):
    """Closed-form eigenvalues of the family member, descending, with
    multiplicities as repeated entries: angle_progressions written out as
    2 cos(pi num / den), the numerators turned into angles and cosines in
    place.  An angle of exactly pi/2 gives an exact 0.0.
    """
    if not isinstance(spec, FamilySpec):
        raise TypeError("closed_spectrum expects a FamilySpec")
    import numpy as np

    pieces, den = angle_progressions(spec.family, spec.n)
    # np.empty raises MemoryError for an order too large to hold, where
    # np.arange near MAX_ORDER rounds its stop up and raises a plain ValueError
    values = np.empty(spec.n)
    zeros = []
    for first, last, step, a, b in pieces:
        values[first - 1 : last : step] = (
            np.arange(a + b * first, a + b * last + 1, b * step) if b else a)
        # the k where 2 (a + b k) = den, an angle of pi/2: each k of a constant piece
        # (two at most), else the one k = (den - 2a) / 2b when it lies in the piece
        ks = range(first, last + 1, step)
        zeros += [k for k in (ks if b == 0 else ((den - 2 * a) // (2 * b),))
                  if k in ks and 2 * (a + b * k) == den]
    values *= math.pi
    values /= den
    np.cos(values, out=values)
    values *= 2.0
    for k in zeros:
        values[k - 1] = 0.0
    return values


def angle_progressions(family, n: int):
    """The closed spectrum as exact angles in O(1), the one statement of
    their layout: (pieces, den), where a piece (first, last, step, a, b) gives
    lambda_k = 2 cos(pi (a + b k) / den) for k = first, first + step, ...,
    last, in closed_spectrum's descending order, and the pieces cover
    k = 1..n once.  Plain ints, so any order works; it takes no FamilySpec,
    whose order stops at graphs.MAX_ORDER, and checks no order.  The cycle's
    numerators 2 floor(k/2) take one piece per parity of k, so both its
    pieces have step 2; every other piece has step 1.
    """
    if family == Family.PATH:
        return ((1, n, 1, 0, 1),), n + 1
    if family == Family.CYCLE:
        return ((1, n - 1 + n % 2, 2, -1, 1), (2, n - n % 2, 2, 0, 1)), n
    if family == Family.Z_TREE:
        # the odd 2k-1 up to k = n/2, the inserted n-1, the odd ones after it
        h = n // 2
        pieces = ((1, h, 1, -1, 2), (h + 1, h + 1, 1, n - 1, 0), (h + 2, n, 1, -3, 2))
        return pieces, 2 * n - 2
    # w: 0 and the evens below n-3, n-3 twice, the evens above it and 2n-6
    e = (n - 4) // 2
    pieces = ((1, e + 1, 1, -2, 2), (e + 2, e + 3, 1, n - 3, 0), (e + 4, n, 1, -6, 2))
    return pieces, 2 * n - 6


def numeric_spectrum(m):
    """Eigenvalues of a symmetric matrix via Jacobi sweeps, sorted descending."""
    import numpy as np

    values = symmetric_eigenvalues(m)
    return np.sort(values)[::-1].copy()


def spectrum_deviation(a, b) -> float:
    """Sup-norm distance between two equal-length spectra."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatchError(f"spectra have lengths {a.size} and {b.size}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def spectrum_to_csv(values) -> str:
    """CSV export with columns index,eigenvalue at 17 significant digits."""
    import numpy as np

    buf = io.StringIO()
    buf.write("index,eigenvalue\n")
    for i, v in enumerate(np.asarray(values, dtype=float), start=1):
        buf.write(f"{i},{v:.17g}\n")
    return buf.getvalue()
