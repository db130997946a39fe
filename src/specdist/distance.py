"""Spectral distance sigma, its per-residue closed-form sums, and the
interlacing sign patterns between the family pairs.

Pairs are two-letter codes naming (G1, G2): "pz", "wz", "pw", "cz".
The cz pair always compares C_n with Z_n at even order n.  Only the
functions that build or read float spectra import numpy, when called.
"""

import json
import math
from collections import namedtuple

from .errors import (
    LengthMismatchError,
    OrderTooLargeError,
    OrderTooSmallError,
    ResidueMismatchError,
)
from .graphs import MIN_ORDER, Family, FamilySpec
from .spectra import angle_progressions, closed_spectrum

PAIRS = ("pz", "wz", "pw", "cz")

_PAIR_FAMILIES = {
    "pz": (Family.PATH, Family.Z_TREE),
    "wz": (Family.W_TREE, Family.Z_TREE),
    "pw": (Family.PATH, Family.W_TREE),
    "cz": (Family.CYCLE, Family.Z_TREE),
}

_PAIR_MIN_ORDER = {
    pair: max(MIN_ORDER[f] for f in families) for pair, families in _PAIR_FAMILIES.items()
}

# Largest order the O(1) closed forms take: up to it every intermediate is a
# normal double (the smallest, pi/(2(n^2-1)), is about 1.6e-300 there); near
# n = 1e154 the squared order no longer converts to a float.
MAX_CLOSED_ORDER = 10**150


def pair_min_order(pair: str) -> int:
    """Smallest order of the pair; ValueError for an unknown pair."""
    if pair not in PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    return _PAIR_MIN_ORDER[pair]


def check_pair_order(pair: str, n: int, closed: bool = False):
    """Raise unless n is a valid order of the pair: at least its minimum
    (OrderTooSmallError); even for cz (ResidueMismatchError); at most
    MAX_CLOSED_ORDER for the closed forms (OrderTooLargeError)."""
    minimum = pair_min_order(pair)
    if n < minimum:
        raise OrderTooSmallError(f"pair {pair} requires n >= {minimum}")
    if pair == "cz" and n % 2 != 0:
        raise ResidueMismatchError("pair cz requires an even order")
    if closed and n > MAX_CLOSED_ORDER:
        raise OrderTooLargeError(f"pair {pair} requires n <= {MAX_CLOSED_ORDER:.0e}")


def first_pair_order(pair: str, lo: int, residue=None) -> int:
    """The smallest order at least lo that check_pair_order accepts (the
    closed-form bound aside); with a residue, the smallest = residue (mod 4).
    For cz, the smallest even order; a residue is not used."""
    start = max(lo, pair_min_order(pair))
    if pair == "cz":
        return start + start % 2
    if residue is None:
        return start
    return start + (residue - start) % 4


def pair_orders(pair: str, lo: int, hi: int, residue=None) -> range:
    """The orders in lo..hi that check_pair_order accepts (the closed-form
    bound aside), ascending, from first_pair_order: every even order for cz,
    every fourth with a residue, else every order."""
    step = 2 if pair == "cz" else 1 if residue is None else 4
    return range(first_pair_order(pair, lo, residue), hi + 1, step)


def pair_spectra(pair: str, n: int):
    """Closed-form spectra (G1, G2) for a pair at order n."""
    check_pair_order(pair, n)
    f1, f2 = _PAIR_FAMILIES[pair]
    return closed_spectrum(FamilySpec(f1, n)), closed_spectrum(FamilySpec(f2, n))


def _l1(d) -> float:
    # l1 norm of a difference of two spectra; d is overwritten by |d|
    import numpy as np

    return float(np.add.reduce(np.abs(d, out=d)))


def sigma(a, b) -> float:
    """l1 distance between two spectra after descending sorts."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatchError(f"spectra have lengths {a.size} and {b.size}")
    return _l1(np.sort(a)[::-1] - np.sort(b)[::-1])


def sigma_direct(pair: str, n: int) -> float:
    """sigma from the two closed-form spectra, no case analysis; they come
    sorted, so nothing is sorted again."""
    s1, s2 = pair_spectra(pair, n)
    return _l1(s1 - s2)


def crossover_index(n: int) -> int:
    """n* for even n: n/4 when n = 0 (mod 4), (n-2)/4 when n = 2 (mod 4)."""
    if n % 4 == 0:
        return n // 4
    if n % 4 == 2:
        return (n - 2) // 4
    raise ValueError(f"crossover index is defined for even n only, got {n}")


def _residue_bounds(pair: str, n: int):
    """(k1_hi, k2_lo, k2_hi, equal_ks) of the case analysis for pz or wz.

    G2 dominates k = 1..k1_hi for pz (G1 for wz), the other graph dominates
    k = k2_lo..k2_hi, and the upper-half eigenvalues at the equal indices
    coincide.
    """
    r = n % 4
    if r == 1:
        return (n - 1) // 4, (n + 3) // 4, (n - 1) // 2, ((n + 1) // 2,)
    if r == 3:
        return (n - 3) // 4, (n + 5) // 4, (n - 1) // 2, ((n + 1) // 4, (n + 1) // 2)
    n_star = crossover_index(n)
    if pair == "pz":
        return n_star, n_star + 1, n // 2, ()
    return n_star, n_star + 1, n // 2 - 1, (n // 2,)


def _sigma_from_prefix(pair, n):
    """sigma of pz or wz, 4 [g(k1_hi) + g(k2_lo - 1) - g(k2_hi)] on _residue_bounds, where
    g(K) sums g_k - h_k over k <= K, upper-half eigenvalues over 2 of the dominant-first
    families G, H (Z, P for pz; W, Z for wz).  By Lagrange's identity, the first angle piece
    (a, b over den) of spectra.angle_progressions sums over k <= K to sin(x) / (2 sin alpha)
    + c, with x = pi (2a + b(2K + 1)) / (2 den), alpha = pi b / (2 den), c = -1/2, 0, 1/2 for
    P, Z, W.  So g(K) = 1/2 + (1/(2 sin alpha) - 1/(2 sin beta)) sin x + (sin x - sin y) /
    (2 sin beta): each part is O(1), each angle difference one exact integer over 2 den_G den_H,
    and each sine difference sin u - sin v = 2 cos((u + v)/2) sin((u - v)/2), so nothing
    cancels.  For n != 3 (mod 4), k2_lo - 1 = k1_hi, and the sum is the two-term
    4 [2 g(k1_hi) - g(k2_hi)], computed as g(k1_hi) + g(k1_hi) - g(k2_hi)."""
    if pair == "pz":
        (ag, bg, dg), (ah, bh, dh) = (-1, 2, 2 * n - 2), (0, 1, n + 1)
    else:
        (ag, bg, dg), (ah, bh, dh) = (-2, 2, 2 * n - 6), (-1, 2, 2 * n - 2)
    dg2, dh2 = 2 * dg, 2 * dh
    d = dg2 * dh
    alpha, beta = bg * math.pi / dg2, bh * math.pi / dh2
    sin_a, sin_b = math.sin(alpha), math.sin(beta)
    sin_b2 = 2.0 * sin_b
    coeff_gap = (2.0 * math.cos(0.5 * (beta + alpha))
                 * math.sin(0.5 * ((bh * dg - bg * dh) * math.pi / d)) / (2.0 * sin_a * sin_b))
    k1_hi, k2_lo, k2_hi, _ = _residue_bounds(pair, n)
    g = []
    for K in (k1_hi, k2_hi) if k2_lo - 1 == k1_hi else (k1_hi, k2_lo - 1, k2_hi):
        ug, uh = 2 * ag + bg * (2 * K + 1), 2 * ah + bh * (2 * K + 1)
        x, y = ug * math.pi / dg2, uh * math.pi / dh2
        x_minus_y = (ug * dh - uh * dg) * math.pi / d
        sin_diff = 2.0 * math.cos(0.5 * (x + y)) * math.sin(0.5 * x_minus_y)
        g.append(0.5 + (coeff_gap * math.sin(x) + sin_diff / sin_b2))
    return 4.0 * (g[0] + g[-2] - g[-1])  # g[-2] is g[0] when the two terms are one


def sigma_closed(pair: str, n: int) -> float:
    """Closed-form sigma for a pair at order n, in O(1) (pw uses additivity).

    pz and wz sum the per-residue-class cosine gaps by prefix sums.  For cz,
    n = 2m, 4 + 4 sum_{k=1}^{m-1} (-1)^k cos((2k-1) x) with x = pi/(4m-2)
    telescopes to 4 - 2/cos x + 2 (-1)^(m-1) tan x.
    """
    check_pair_order(pair, n, closed=True)
    if pair in ("pz", "wz"):
        return _sigma_from_prefix(pair, n)
    if pair == "pw":
        return _sigma_from_prefix("pz", n) + _sigma_from_prefix("wz", n)
    m = n // 2
    x = math.pi / (4 * m - 2)
    twice_sign = 2.0 if m % 2 == 1 else -2.0
    return 4.0 - 2.0 / math.cos(x) + twice_sign * math.tan(x)


def check_additivity(n: int) -> float:
    """Residual |sigma(P,W) - sigma(P,Z) - sigma(W,Z)| from closed spectra,
    each built once; the three |differences| are summed row by row at once."""
    import numpy as np

    check_pair_order("pw", n)
    p, z, w = (closed_spectrum(FamilySpec(f, n)) for f in "pzw")
    diffs = np.empty((3, n))
    for row, (a, b) in zip(diffs, ((p, w), (p, z), (w, z))):
        np.subtract(a, b, out=row)
    s_pw, s_pz, s_wz = np.add.reduce(np.abs(diffs, out=diffs), axis=1).tolist()
    return abs(s_pw - s_pz - s_wz)


# pattern names indexed by sign code: 0 equal, 1 G1 above, -1 (the last) G2 above
_CODE_NAMES = ("equal", "G1_above", "G2_above")


class DistanceReport(namedtuple("DistanceReport", "pair n sigma diffs pattern")):
    """Per-index comparison of a pair's spectra at one order: float diffs and
    pattern names, one per index."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict())


# Sign patterns as runs: a pattern is a tuple of run lists, one per class
# of k modulo the tuple's length (class i holds k = i + 1, i + 1 + step, ...),
# and a run (first, last, code) gives one code to every k of its class in
# first..last: +1 G1 above, -1 G2 above, 0 equal.  The runs of a class tile
# its k = 1..n in ascending order, and neighbours differ in code, so two
# patterns agree when their runs are equal.


def _write_runs(classes, n: int):
    """A pattern's runs written out as n int8 codes, one slice per run."""
    import numpy as np

    codes = np.zeros(n, dtype=np.int8)
    for runs in classes:
        for first, last, code in runs:
            codes[first - 1 : last : len(classes)] = code
    return codes


def expected_pattern_codes(pair: str, n: int):
    """The sign pattern asserted by the case analysis, expected_pattern_runs
    written out."""
    return _write_runs(expected_pattern_runs(pair, n), n)


def _overlaps(xs, ys):
    """(first, last, x, y) for each overlap of two ascending lists of
    (first, last, ...) items that tile the same k of one class."""
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        first = x[0] if x[0] > y[0] else y[0]
        if x[1] < y[1]:
            yield first, x[1], x, y
            i += 1
        else:
            yield first, y[1], x, y
            i += x[1] == y[1]
            j += 1


def _sign_runs(c0, c1, first, last, step):
    """Runs of sign(c0 + c1 k) over k = first, first + step, ..., last: a
    line changes sign only at its root -c0/c1, so three runs at most."""
    if c1 == 0:
        return [(first, last, (c0 > 0) - (c0 < 0))]
    s = 1 if c1 > 0 else -1
    root, rest = divmod(-c0, c1)  # -c0/c1 = root + rest/c1, 0 <= rest/c1 < 1
    # the largest k of the class below -c0/c1 and the smallest one above it
    below = root - (rest == 0)
    below -= (below - first) % step
    above = root + 1 + (first - root - 1) % step
    runs = []
    if below >= first:
        runs.append((first, below if below < last else last, -s))
    if rest == 0 and first <= root <= last and (root - first) % step == 0:
        runs.append((root, root, 0))
    if above <= last:
        runs.append((above if above > first else first, last, s))
    return runs


def _on_class(pieces, start, step):
    """Angle pieces (first, last, piece step, a, b) cut down to the k = start
    (mod step) they hold, for a step that each piece step divides."""
    if step == 1:
        return pieces
    on_class = []
    for first, last, piece_step, a, b in pieces:
        if (start - first) % piece_step == 0:
            first += (start - first) % step
            last -= (last - start) % step
            if first <= last:
                on_class.append((first, last, step, a, b))
    return on_class


def _pattern_runs(pieces1, den1, pieces2, den2):
    """Exact sign pattern of lambda_k(G1) - lambda_k(G2) from two angle
    progressions of one order.  Each eigenvalue is 2 cos(pi num/den), which
    falls as num/den rises, so the sign is that of num2 den1 - num1 den2; no
    tolerance enters.  Where both numerators are linear in k, so is that
    cross-product, and its sign changes once at most.  The classes are those
    of the pieces' largest step, so the cycle's odd and even k are two."""
    step = max(pieces1[0][2], pieces2[0][2])
    classes = []
    for start in range(1, step + 1):
        runs = []
        for first, last, x, y in _overlaps(_on_class(pieces1, start, step),
                                           _on_class(pieces2, start, step)):
            for run in _sign_runs(y[3] * den1 - x[3] * den2, y[4] * den1 - x[4] * den2,
                                  first, last, step):
                if runs and runs[-1][2] == run[2]:  # one run per stretch of one sign
                    runs[-1] = (runs[-1][0], run[1], run[2])
                else:
                    runs.append(run)
        classes.append(runs)
    return tuple(classes)


def observed_pattern_runs(pair: str, n: int):
    """Exact sign pattern of lambda_k(G1) - lambda_k(G2) at order n."""
    check_pair_order(pair, n, closed=True)
    f1, f2 = _PAIR_FAMILIES[pair]
    return _pattern_runs(*angle_progressions(f1, n), *angle_progressions(f2, n))


def symmetry_mismatch(family, n: int) -> int | None:
    """1-based index of the first k where lambda_k != -lambda_{n+1-k} in the
    family's closed spectrum at order n, or None when it is symmetric about 0,
    as a bipartite graph's spectrum is.  Exact, for any order, in O(1)."""
    pieces, den = angle_progressions(family, n)
    # -lambda_{n+1-k} = 2 cos(pi (den - num_{n+1-k}) / den): the negated
    # mirror of a piece (first, last, step, a, b) is linear in k again
    mirror = tuple((n + 1 - last, n + 1 - first, step, den - a - b * (n + 1), b)
                   for first, last, step, a, b in reversed(pieces))
    return min((first for runs in _pattern_runs(pieces, den, mirror, den)
                for first, _, code in runs if code), default=None)


def expected_pattern_runs(pair: str, n: int):
    """The case analysis's sign pattern as runs, which expected_pattern_codes
    writes out: one class from _residue_bounds for pz and wz (the lower half
    mirrors the upper, sign flipped), the odd and the even k for cz."""
    check_pair_order(pair, n, closed=True)
    half = n // 2
    if pair == "cz":
        if half % 2:
            return [(1, n - 1, 1)], [(2, n, -1)]
        odd = [(1, half - 1, 1), (half + 1, half + 1, 0), (half + 3, n - 1, 1)]
        even = [(2, half - 2, -1), (half, half, 0), (half + 2, n, -1)]
        return tuple([run for run in runs if run[0] <= run[1]] for runs in (odd, even))
    if pair not in ("pz", "wz"):
        raise ValueError(f"no asserted pattern for pair {pair!r}")
    first = -1 if pair == "pz" else 1
    k1_hi, k2_lo, k2_hi, equal_ks = _residue_bounds(pair, n)
    # these runs tile k = 1..n - half, and the lower half mirrors k <= half
    upper = sorted([(1, k1_hi, first), (k2_lo, k2_hi, -first)] + [(k, k, 0) for k in equal_ks])
    lower = [(n + 1 - hi, n + 1 - lo, -code) for lo, hi, code in reversed(upper) if hi <= half]
    runs = upper + lower
    if upper[-1][2] == lower[0][2]:  # wz at even n: the equal middle pair, one run
        runs[len(upper) - 1 : len(upper) + 1] = [(upper[-1][0], lower[0][1], 0)]
    return (runs,)


def pattern_mismatch(pair: str, n: int) -> int | None:
    """1-based index of the first k where the observed sign pattern departs
    from the asserted one, or None when the proof's pattern holds at order n
    (pairs pz, wz and cz; ValueError for pw, which has no asserted pattern).

    Compares the run forms in O(1) with Python ints, so it decides any order
    up to MAX_CLOSED_ORDER exactly and builds nothing of size n."""
    expected = expected_pattern_runs(pair, n)
    observed = observed_pattern_runs(pair, n)
    if observed == expected:
        return None
    return min((first for runs in zip(observed, expected)
                for first, _, x, y in _overlaps(*runs) if x[2] != y[2]), default=None)


def distance_report(pair: str, n: int) -> DistanceReport:
    """Per-index diffs and observed sign pattern for any pair at order n."""
    s1, s2 = pair_spectra(pair, n)
    classes = observed_pattern_runs(pair, n)
    # the names of the observed runs, written as _write_runs writes their codes
    pattern, step = [None] * n, len(classes)
    for runs in classes:
        for first, last, code in runs:
            pattern[first - 1 : last : step] = (_CODE_NAMES[code],) * ((last - first) // step + 1)
    d = s1 - s2  # one subtraction for the diffs and for sigma
    diffs = tuple(d.tolist())
    return DistanceReport(
        pair=pair,
        n=n,
        sigma=_l1(d),
        diffs=diffs,
        pattern=tuple(pattern),
    )

