"""Spectral distance sigma, its per-residue closed-form sums, and the
interlacing sign patterns between the family pairs.

Pairs are two-letter codes naming (G1, G2): "pz", "wz", "pw", "cz".
The cz pair always compares C_n with Z_n at even order n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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


def pair_orders(pair: str, lo: int, hi: int, residue=None) -> range:
    """The orders in lo..hi that check_pair_order accepts (the closed-form
    bound aside), ascending; with a residue, only those = residue (mod 4)."""
    start = max(lo, pair_min_order(pair))
    if pair == "cz":
        return range(start + start % 2, hi + 1, 2)
    if residue is None:
        return range(start, hi + 1)
    return range(start + (residue - start) % 4, hi + 1, 4)


def pair_spectra(pair: str, n: int):
    """Closed-form spectra (G1, G2) for a pair at order n."""
    check_pair_order(pair, n)
    f1, f2 = _PAIR_FAMILIES[pair]
    return closed_spectrum(FamilySpec(f1, n)), closed_spectrum(FamilySpec(f2, n))


def _sorted_sigma(a, b) -> float:
    # l1 distance of two spectra that are already sorted descending
    return float(np.sum(np.abs(a - b)))


def sigma(a, b) -> float:
    """l1 distance between two spectra after descending sorts."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatchError(f"spectra have lengths {a.size} and {b.size}")
    return _sorted_sigma(np.sort(a)[::-1], np.sort(b)[::-1])


def sigma_direct(pair: str, n: int) -> float:
    """sigma from the two closed-form spectra, no case analysis; they come
    sorted, so nothing is sorted again."""
    return _sorted_sigma(*pair_spectra(pair, n))


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


def _sin_diff(x, y, x_minus_y):
    """sin x - sin y, with x - y passed in so that nothing cancels."""
    return 2.0 * math.cos(0.5 * (x + y)) * math.sin(0.5 * x_minus_y)


def _dirichlet_gap(alpha, beta, beta_minus_alpha, x, y, x_minus_y):
    """sin(x) / (2 sin alpha) - sin(y) / (2 sin beta) for nearby angles.

    Both quotients grow like n; split as (1/(2 sin alpha) - 1/(2 sin beta))
    sin x + (sin x - sin y) / (2 sin beta), where each part is O(1) and its
    difference comes from an exactly known angle difference.
    """
    sin_a, sin_b = math.sin(alpha), math.sin(beta)
    coeff_gap = _sin_diff(beta, alpha, beta_minus_alpha) / (2.0 * sin_a * sin_b)
    return coeff_gap * math.sin(x) + _sin_diff(x, y, x_minus_y) / (2.0 * sin_b)


# Prefix sums by Lagrange's identity (z_k, p_k, w_k are the upper-half
# eigenvalues over 2 of Z_n, P_n and W_n):
#   sum_{k<=K} cos((2k-1) pi/(2n-2)) = sin(K pi/(n-1)) / (2 sin(pi/(2n-2)))
#   sum_{k<=K} cos(k pi/(n+1)) = sin((2K+1) pi/(2n+2)) / (2 sin(pi/(2n+2))) - 1/2
#   sum_{k<=K} cos((k-1) pi/(n-3)) = sin((2K-1) pi/(2n-6)) / (2 sin(pi/(2n-6))) + 1/2


def _prefix_pz(K, n):
    """sum_{k=1}^{K} (z_k - p_k) for the pz pair at order n."""
    # angle differences over the exact integer d: -pi/(n^2-1) between the
    # half-steps, pi(4K-n+1)/(2(n^2-1)) between the sine arguments
    d = 2 * (n * n - 1)
    return 0.5 + _dirichlet_gap(
        math.pi / (2 * n - 2),
        math.pi / (2 * n + 2),
        -2.0 * math.pi / d,
        K * math.pi / (n - 1),
        (2 * K + 1) * math.pi / (2 * n + 2),
        (4 * K - n + 1) * math.pi / d,
    )


def _prefix_wz(K, n):
    """sum_{k=1}^{K} (w_k - z_k) for the wz pair at order n."""
    # as in _prefix_pz, with d = 2(n-1)(n-3)
    d = 2 * (n - 1) * (n - 3)
    return 0.5 + _dirichlet_gap(
        math.pi / (2 * n - 6),
        math.pi / (2 * n - 2),
        -2.0 * math.pi / d,
        (2 * K - 1) * math.pi / (2 * n - 6),
        K * math.pi / (n - 1),
        (4 * K - n + 1) * math.pi / d,
    )


def _sigma_from_prefix(pair, n):
    # 4 * [sum_{k<=k1_hi} - sum_{k2_lo<=k<=k2_hi}] of the pair's cosine gaps
    k1_hi, k2_lo, k2_hi, _ = _residue_bounds(pair, n)
    prefix = _prefix_pz if pair == "pz" else _prefix_wz
    return 4.0 * (prefix(k1_hi, n) + prefix(k2_lo - 1, n) - prefix(k2_hi, n))


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
    sign = 1.0 if m % 2 == 1 else -1.0
    return 4.0 - 2.0 / math.cos(x) + 2.0 * sign * math.tan(x)


def check_additivity(n: int) -> float:
    """Residual |sigma(P,W) - sigma(P,Z) - sigma(W,Z)| from closed spectra,
    each built once."""
    check_pair_order("pw", n)
    p, z, w = (closed_spectrum(FamilySpec(f, n)) for f in "pzw")
    return abs(_sorted_sigma(p, w) - _sorted_sigma(p, z) - _sorted_sigma(w, z))


G1_ABOVE = "G1_above"
G2_ABOVE = "G2_above"
EQUAL = "equal"

# pattern names indexed by sign code: 0 equal, 1 G1 above, -1 (the last) G2 above
_CODE_NAMES = np.array([EQUAL, G1_ABOVE, G2_ABOVE], dtype=object)


@dataclass(frozen=True)
class DistanceReport:
    """Per-index comparison of a pair's spectra at one order."""

    pair: str
    n: int
    sigma: float
    diffs: tuple[float, ...]
    pattern: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"pair": self.pair, "n": self.n, "sigma": self.sigma,
             "diffs": self.diffs, "pattern": self.pattern}
        )


# Sign patterns as runs: a pattern is a tuple of run lists, one per class
# of k modulo the tuple's length (class i holds k = i + 1, i + 1 + step, ...),
# and a run (first, last, code) gives one code to every k of its class in
# first..last: +1 G1 above, -1 G2 above, 0 equal.  The runs of a class tile
# its k = 1..n in ascending order, and neighbours differ in code, so two
# patterns agree when their runs are equal.


def _write_runs(classes, n: int) -> np.ndarray:
    """A pattern's runs written out as n int8 codes, one slice per run."""
    codes = np.zeros(n, dtype=np.int8)
    for runs in classes:
        for first, last, code in runs:
            codes[first - 1 : last : len(classes)] = code
    return codes


def expected_pattern_codes(pair: str, n: int) -> np.ndarray:
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


def observed_pattern_runs(pair: str, n: int):
    """Exact sign pattern of lambda_k(G1) - lambda_k(G2), from the angles
    alone.  Each eigenvalue is 2 cos(pi num/den), which falls as num/den
    rises, so the sign is that of num2 den1 - num1 den2; no tolerance enters.
    Where both numerators are linear in k, so is that cross-product, and its
    sign changes once at most.  The classes are those of the pieces' largest
    step: the odd and the even k for cz, as the cycle's pieces step by 2."""
    check_pair_order(pair, n, closed=True)
    f1, f2 = _PAIR_FAMILIES[pair]
    (pieces1, den1), (pieces2, den2) = angle_progressions(f1, n), angle_progressions(f2, n)
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
    firsts = [first for runs in zip(observed, expected)
              for first, _, x, y in _overlaps(*runs) if x[2] != y[2]]
    return min(firsts) if firsts else None


def distance_report(pair: str, n: int) -> DistanceReport:
    """Per-index diffs and observed sign pattern for any pair at order n."""
    s1, s2 = pair_spectra(pair, n)
    diffs = s1 - s2
    return DistanceReport(
        pair=pair,
        n=n,
        sigma=_sorted_sigma(s1, s2),
        diffs=tuple(diffs.tolist()),
        pattern=tuple(_CODE_NAMES[_write_runs(observed_pattern_runs(pair, n), n)].tolist()),
    )

