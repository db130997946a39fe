import functools
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from specdist import (
    FamilySpec,
    check_additivity,
    closed_spectrum,
    crossover_index,
    distance_report,
    pattern_mismatch,
    sigma,
    sigma_closed,
    sigma_direct,
)
from specdist import distance, spectra
from specdist.distance import (
    MAX_CLOSED_ORDER,
    PAIRS,
    _residue_bounds,
    check_pair_order,
    pair_min_order,
    pair_orders,
    pair_spectra,
    symmetry_mismatch,
)
from specdist.errors import LengthMismatchError, OrderTooLargeError, OrderTooSmallError
from specdist.graphs import MIN_ORDER
from specdist.limits import SAMPLE_ULPS, default_grid

SQRT3 = math.sqrt(3.0)

# frozen by hand arithmetic from the closed-form spectra
SIGMA_C4_Z4 = 4.0 - 2.0 * SQRT3
SIGMA_P4_Z4 = 4.0 * (math.cos(math.pi / 6) - math.cos(math.pi / 5) + math.cos(2 * math.pi / 5))
SIGMA_P5_Z5 = 4.0 * (
    (math.cos(math.pi / 8) - math.cos(math.pi / 6))
    + (math.cos(math.pi / 3) - math.cos(3 * math.pi / 8))
)


class TestSigma:
    def test_zero_on_identical(self):
        s = closed_spectrum(FamilySpec("w", 12))
        assert sigma(s, s) == 0.0

    def test_c4_z4(self):
        assert abs(sigma_direct("cz", 4) - SIGMA_C4_Z4) < 1e-12

    def test_p4_z4(self):
        assert abs(sigma_direct("pz", 4) - SIGMA_P4_Z4) < 1e-12

    def test_c6_z6(self):
        assert abs(sigma_direct("cz", 6) - 2.546914943989276) < 1e-12

    def test_sorts_inputs_itself(self):
        a = closed_spectrum(FamilySpec("p", 8))
        b = closed_spectrum(FamilySpec("z", 8))
        assert sigma(a[::-1], b) == pytest.approx(sigma(a, b), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            sigma([1.0, 0.0], [1.0])

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("residue", [None, 0, 1, 2, 3])
    def test_pair_orders_are_valid(self, pair, residue):
        orders = pair_orders(pair, 1, 40, residue)
        assert orders
        for n in orders:
            check_pair_order(pair, n)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_direct_skips_the_sort_bitwise(self, pair):
        # the closed spectra come sorted: sorting them again changes no bit
        for n in pair_orders(pair, 1, 1000):
            assert sigma_direct(pair, n) == sigma(*pair_spectra(pair, n)), n


# dominant-first families (G, H) of sigma_closed's Lagrange prefix sums
_PREFIX_FAMILIES = {"pz": ("z", "p"), "wz": ("w", "z")}


def _sin_diff(x, y, x_minus_y):
    """sin x - sin y, with x - y passed in so that nothing cancels."""
    return 2.0 * math.cos(0.5 * (x + y)) * math.sin(0.5 * x_minus_y)


def _sigma_from_progressions(pair, n):
    """sigma_closed's prefix sums with every angle taken from the first piece
    (a, b over den) of each family's angle progression instead of restated:
    u = 2a + b(2K + 1) gives the sine argument u pi/(2 den) at K, and each
    angle difference is one exact integer over 2 den_G den_H."""
    if pair == "pw":
        return _sigma_from_progressions("pz", n) + _sigma_from_progressions("wz", n)
    (pieces_g, dg), (pieces_h, dh) = (
        spectra.angle_progressions(family, n) for family in _PREFIX_FAMILIES[pair]
    )
    (*_, ag, bg), (*_, ah, bh) = pieces_g[0], pieces_h[0]
    alpha, beta = bg * math.pi / (2 * dg), bh * math.pi / (2 * dh)
    coeff = _sin_diff(beta, alpha, (bh * dg - bg * dh) * math.pi / (2 * dg * dh)) / (
        2.0 * math.sin(alpha) * math.sin(beta)
    )
    offset = (2 * ah + bh) / (2 * bh) - (2 * ag + bg) / (2 * bg)

    def prefix(K):
        ug, uh = 2 * ag + bg * (2 * K + 1), 2 * ah + bh * (2 * K + 1)
        x, y = ug * math.pi / (2 * dg), uh * math.pi / (2 * dh)
        x_minus_y = (ug * dh - uh * dg) * math.pi / (2 * dg * dh)
        return offset + (coeff * math.sin(x) + _sin_diff(x, y, x_minus_y) / (2.0 * math.sin(beta)))

    k1_hi, k2_lo, k2_hi, _ = _residue_bounds(pair, n)
    return 4.0 * (prefix(k1_hi) + prefix(k2_lo - 1) - prefix(k2_hi))


class TestClosedSums:
    def test_pz_n4(self):
        assert abs(sigma_closed("pz", 4) - SIGMA_P4_Z4) < 1e-12

    def test_pz_n5(self):
        assert abs(sigma_closed("pz", 5) - SIGMA_P5_Z5) < 1e-12

    def test_pz_n7(self):
        assert abs(sigma_closed("pz", 7) - sigma_direct("pz", 7)) < 1e-12

    def test_wz_n6(self):
        assert abs(sigma_closed("wz", 6) - 0.5469149439892785) < 1e-12
        assert abs(sigma_closed("wz", 6) - sigma_direct("wz", 6)) < 1e-12

    def test_wz_n8_n9(self):
        assert abs(sigma_closed("wz", 8) - sigma_direct("wz", 8)) < 1e-12
        assert abs(sigma_closed("wz", 9) - sigma_direct("wz", 9)) < 1e-12

    def test_cz_small(self):
        assert abs(sigma_closed("cz", 4) - SIGMA_C4_Z4) < 1e-12
        expected = 4.0 - 4.0 * math.cos(math.pi / 10) + 4.0 * math.cos(3 * math.pi / 10)
        assert abs(sigma_closed("cz", 6) - expected) < 1e-12

    def test_cz_n50(self):
        assert abs(sigma_closed("cz", 100) - sigma_direct("cz", 100)) < 1e-10

    @pytest.mark.parametrize("pair,low", [("pz", 4), ("wz", 6), ("pw", 6)])
    def test_matches_direct_on_range(self, pair, low):
        for n in range(low, 400):
            assert abs(sigma_closed(pair, n) - sigma_direct(pair, n)) < 1e-9

    def test_cz_matches_direct_on_range(self):
        for n in range(4, 400, 2):
            assert abs(sigma_closed("cz", n) - sigma_direct("cz", n)) < 1e-9

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            sigma_closed("pz", 3)
        with pytest.raises(OrderTooSmallError):
            sigma_closed("wz", 5)
        with pytest.raises(OrderTooSmallError):
            sigma_closed("cz", 2)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_order_too_large(self, pair):
        with pytest.raises(OrderTooLargeError):
            sigma_closed(pair, MAX_CLOSED_ORDER + 2)

    @pytest.mark.parametrize("pair", ["pz", "wz", "pw"])
    def test_angles_are_the_progressions(self, pair):
        # sigma_closed states the first pieces' (a, b, den) again; its sine
        # arguments and angle differences are the same integers over the same
        # denominators as the progressions', so the two agree bitwise
        rng = random.Random(2010)
        orders = [*pair_orders(pair, 1, 4999)]
        orders += [rng.randrange(10**e, 10**(e + 1)) for e in range(5, 150) for _ in range(3)]
        for n in orders:
            assert sigma_closed(pair, n) == _sigma_from_progressions(pair, n), n


# Upper-half eigenvalues over 2 as mpmath functions of (k, n, pi): the terms
# of the per-residue closed sums.
_MP_TERMS = {
    "p": lambda k, n, pi: mp.cos(k * pi / (n + 1)),
    "z": lambda k, n, pi: mp.cos((2 * k - 1) * pi / (2 * n - 2)),
    "w": lambda k, n, pi: mp.cos((k - 1) * pi / (n - 3)),
}

REFERENCE_DPS = 40


@functools.lru_cache(maxsize=None)
def _mp_terms(family, n):
    """Terms k = 1..n/2 of one family at REFERENCE_DPS digits."""
    with mp.workdps(REFERENCE_DPS):
        term, pi = _MP_TERMS[family], +mp.pi
        return tuple(term(k, n, pi) for k in range(1, n // 2 + 1))


def _mp_direct(pair, n):
    """The per-residue closed sum of pz, wz, pw or cz, summed term by term
    with mp.fsum at REFERENCE_DPS digits."""
    with mp.workdps(REFERENCE_DPS):
        if pair == "pw":
            return _mp_direct("pz", n) + _mp_direct("wz", n)
        if pair == "cz":
            m = n // 2
            z = _mp_terms("z", n)  # cos((2k-1) pi/(4m-2)) for k < m
            return 4 + 4 * mp.fsum((-1) ** k * z[k - 1] for k in range(1, m))
        above, below = (_mp_terms(f, n) for f in ("zp" if pair == "pz" else "wz"))
        k1_hi, k2_lo, k2_hi, _ = _residue_bounds(pair, n)
        gaps = [above[k] - below[k] for k in range(k1_hi)]
        gaps += [below[k] - above[k] for k in range(k2_lo - 1, k2_hi)]
        return 4 * mp.fsum(gaps)


def _mp_lagrange(pair, n):
    """The same sums from the Lagrange prefix sums at the working precision;
    their cancellation costs about log10(n) digits."""
    if pair == "pw":
        return _mp_lagrange("pz", n) + _mp_lagrange("wz", n)
    if pair == "cz":
        x = mp.pi / (2 * n - 2)
        return 4 - 2 / mp.cos(x) + 2 * (-1) ** (n // 2 - 1) * mp.tan(x)
    half = mp.mpf(1) / 2
    prefix = {
        "p": lambda K: mp.sin((2 * K + 1) * mp.pi / (2 * n + 2))
        / (2 * mp.sin(mp.pi / (2 * n + 2))) - half,
        "z": lambda K: mp.sin(K * mp.pi / (n - 1)) / (2 * mp.sin(mp.pi / (2 * n - 2))),
        "w": lambda K: mp.sin((2 * K - 1) * mp.pi / (2 * n - 6))
        / (2 * mp.sin(mp.pi / (2 * n - 6))) + half,
    }
    above, below = (prefix[f] for f in ("zp" if pair == "pz" else "wz"))

    def g(K):
        return above(K) - below(K)

    k1_hi, k2_lo, k2_hi, _ = _residue_bounds(pair, n)
    return 4 * (g(k1_hi) + g(k2_lo - 1) - g(k2_hi))


def _class_orders(start):
    """One order per class from start (a multiple of 4): n mod 4 for pz, wz
    and pw, m = n/2 mod 2 for cz."""
    return [("cz", n) for n in (start, start + 2)] + [
        (pair, n) for pair in ("pz", "wz", "pw") for n in range(start, start + 4)
    ]


class TestClosedFormReference:
    """The O(1) closed forms against mpmath references, for every class of
    pz, wz, pw and cz."""

    def test_every_order_to_400(self):
        worst = 0.0
        for n in range(4, 401):
            for pair in ("pz", "wz", "pw", "cz"):
                if n < 6 and pair in ("wz", "pw") or pair == "cz" and n % 2:
                    continue
                error = abs(sigma_closed(pair, n) - _mp_direct(pair, n))
                worst = max(worst, float(error))
        assert worst <= 1e-14

    @pytest.mark.parametrize("pair,n", _class_orders(20_000))
    def test_near_2e4(self, pair, n):
        assert abs(sigma_closed(pair, n) - _mp_direct(pair, n)) <= 1e-14

    @pytest.mark.parametrize("pair,n", _class_orders(10**9) + _class_orders(10**12))
    def test_huge_orders(self, pair, n):
        with mp.workdps(50):
            assert abs(sigma_closed(pair, n) - _mp_lagrange(pair, n)) <= 1e-14

    @pytest.mark.parametrize("pair,n", _class_orders(MAX_CLOSED_ORDER - 4))
    def test_largest_orders(self, pair, n):
        # the Lagrange form cancels about 150 digits here
        with mp.workdps(200):
            assert abs(sigma_closed(pair, n) - _mp_lagrange(pair, n)) <= 1e-14

    @pytest.mark.parametrize("cls", [(p, r) for p in ("pz", "wz", "pw") for r in range(4)]
                             + [("cz", None)])
    def test_scan_samples_within_sample_ulps(self, cls):
        # the premise of the extrapolation's stop rule (limits.KAPPA): every
        # grid order to 1e20 and every eighth beyond, up to 10**150
        grid = default_grid(*cls, n_max=MAX_CLOSED_ORDER)
        orders = [n for n in grid if n <= 10**20] + [n for n in grid if n > 10**20][::8]
        for n in orders:
            v = sigma_closed(cls[0], n)
            if n < 1000:
                exact = _mp_direct(cls[0], n)
            else:
                with mp.workdps(30 + len(str(n))):
                    exact = _mp_lagrange(cls[0], n)
            assert abs(v - exact) <= SAMPLE_ULPS * math.ulp(v), n

    def test_lagrange_reference_matches_direct_sums(self):
        with mp.workdps(50):
            for pair, n in _class_orders(1000):
                assert abs(_mp_lagrange(pair, n) - _mp_direct(pair, n)) < 1e-35


class TestCzAsymptotics:
    """n (sigma(C_n, Z_n) - 2) tends to c1 = -pi at n = 0 (mod 4) and to
    c1 = +pi at n = 2 (mod 4), so a scan that samples one class sees half the
    sequence.  With x = pi/(2n - 2), sigma - 2 = 2 - 2/cos x + 2 (c1/pi) tan x,
    so n (sigma - 2) - c1 = (c1 - pi^2/4)/n + O(n^-2): -5.61/n and +0.67/n,
    below C/n for n >= 1e3."""

    C = 6.0
    # sigma_closed's absolute error at these orders, asserted against mpmath
    # below (measured at most 1.3e-16)
    SIGMA_ERR = 1e-15

    @staticmethod
    def _c1(n):
        return -math.pi if n % 4 == 0 else math.pi

    @pytest.mark.parametrize("residue", [0, 2])
    def test_limit_per_class_to_1e9(self, residue):
        orders = [int(n) - int(n) % 4 + residue for n in np.geomspace(1e3, 1e9, 61)]
        for n in orders:
            scaled = n * (sigma_closed("cz", n) - 2.0)
            assert abs(scaled - self._c1(n)) <= self.C / n + n * self.SIGMA_ERR, n

    @pytest.mark.parametrize(
        "n", [1000, 1002, 10**6, 10**6 + 2, 10**9, 10**9 + 2, 4 * 12345679, 4 * 12345679 + 2]
    )
    def test_against_mpmath(self, n):
        with mp.workdps(50):
            exact = _mp_lagrange("cz", n)
            assert abs(sigma_closed("cz", n) - exact) <= self.SIGMA_ERR
            # the 1/n bound holds for the exact values, not just the floats
            c1 = -mp.pi if n % 4 == 0 else mp.pi
            assert abs(n * (exact - 2) - c1) <= self.C / n

    def test_both_classes_near_1e6(self):
        assert round(10**6 * (sigma_closed("cz", 10**6) - 2.0), 5) == -3.14160
        n = 10**6 + 2
        assert round(n * (sigma_closed("cz", n) - 2.0), 5) == 3.14159


class TestCrossover:
    def test_mod_0(self):
        assert crossover_index(8) == 2
        assert crossover_index(100) == 25

    def test_mod_2(self):
        assert crossover_index(6) == 1
        assert crossover_index(102) == 25

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            crossover_index(7)


class TestInterlacePattern:
    def test_pz_n5(self):
        # Z dominates index 1, P index 2, zeros meet in the middle; the
        # lower half mirrors with flipped dominance (bipartite symmetry)
        assert distance_report("pz", 5).pattern == (
            "G2_above", "G1_above", "equal", "G2_above", "G1_above"
        )
        assert pattern_mismatch("pz", 5) is None

    def test_pz_n8(self):
        pattern = distance_report("pz", 8).pattern
        assert pattern[:4] == ("G2_above",) * 2 + ("G1_above",) * 2
        assert pattern_mismatch("pz", 8) is None

    def test_cz_order4(self):
        assert distance_report("cz", 4).pattern == ("G1_above", "equal", "equal", "G2_above")
        assert pattern_mismatch("cz", 4) is None

    def test_cz_order6_alternates(self):
        assert distance_report("cz", 6).pattern == ("G1_above", "G2_above") * 3
        assert pattern_mismatch("cz", 6) is None

    def test_wz_even_middle_equality(self):
        pattern = distance_report("wz", 10).pattern
        assert pattern[4] == "equal" and pattern[5] == "equal"
        assert pattern_mismatch("wz", 10) is None

    @pytest.mark.parametrize("pair,low", [("pz", 4), ("wz", 6)])
    def test_patterns_hold_up_to_500(self, pair, low):
        for n in range(low, 501):
            assert pattern_mismatch(pair, n) is None, (pair, n)

    def test_cz_patterns_hold(self):
        for n in range(4, 501, 2):
            assert pattern_mismatch("cz", n) is None, n

    def test_pw_has_no_asserted_pattern(self):
        with pytest.raises(ValueError):
            pattern_mismatch("pw", 10)
        assert len(distance_report("pw", 10).pattern) == 10

    def test_exact_codes_clear_the_float_threshold(self):
        # at these orders the float diffs sit far from the 1e-12 threshold a
        # float classifier would use: an exactly equal pair differs by less,
        # any other by more and with the exact code's sign
        signs = {"equal": 0, "G1_above": 1, "G2_above": -1}
        for pair in PAIRS:
            for n in pair_orders(pair, 1, 200):
                report = distance_report(pair, n)
                for diff, label in zip(report.diffs, report.pattern):
                    if label == "equal":
                        assert abs(diff) < 1e-12, (pair, n)
                    else:
                        assert abs(diff) > 1e-12, (pair, n)
                        assert math.copysign(1, diff) == signs[label], (pair, n)


def _angles(family, n):
    """(nums, den) of the closed spectrum straight from the cosine arguments
    of spectra.py, each 2 cos(pi num/den) folded into 0 <= num <= den and
    sorted ascending, so index k - 1 holds lambda_k of the descending order."""
    if family == "p":  # k over n + 1
        nums, den = np.arange(1, n + 1, dtype=np.int64), n + 1
    elif family == "c":  # 2k mod 2n, folded, over n
        nums, den = np.arange(2, 2 * n + 1, 2, dtype=np.int64), n
        nums[-1] = 0
        np.minimum(nums, 2 * n - nums, out=nums)
    elif family == "z":  # 2k - 1 for k < n, and n - 1, over 2n - 2
        nums, den = np.arange(1, 2 * n, 2, dtype=np.int64), 2 * n - 2
        nums[-1] = n - 1
    else:  # 2k for k <= n - 4, and 0, n - 3, n - 3, 2n - 6, over 2n - 6
        nums, den = np.arange(0, 2 * n, 2, dtype=np.int64), 2 * n - 6
        nums[-3:] = (n - 3, n - 3, 2 * n - 6)
    nums.sort(kind="stable")  # a few sorted runs, merged in linear time
    return nums, den


def _observed_codes(pair, n):
    """Exact sign of lambda_k(G1) - lambda_k(G2) for every k, by the int64
    cross-product num2 den1 - num1 den2 of the dense angles (exact while
    4n^2 < 2^63)."""
    (num1, den1), (num2, den2) = (_angles(family, n) for family in pair)
    num2 *= den1
    num1 *= den2
    num2 -= num1
    return np.sign(num2, out=num2).astype(np.int8)


# pattern labels indexed by sign code, as DistanceReport.pattern holds them
_LABELS = np.array(["equal", "G1_above", "G2_above"], dtype=object)


class TestClosedAngles:
    @pytest.mark.parametrize("family", ["p", "c", "z", "w"])
    def test_angles_give_the_closed_spectrum(self, family):
        # every order the dense pattern reference checks, to 2000
        for n in range(MIN_ORDER[family], 2001):
            nums, den = _angles(family, n)
            assert len(nums) == n and 0 <= nums[0] and nums[-1] <= den
            values = 2.0 * np.cos(nums * math.pi / den)
            assert np.max(np.abs(values - closed_spectrum(FamilySpec(family, n)))) < 1e-13

    @pytest.mark.parametrize("pair", PAIRS)
    def test_peak_memory_is_the_codes(self, pair):
        # the run writer allocates the n int8 codes and nothing of their size besides
        n = pair_orders(pair, 10**6, 10**6 + 3)[0]
        runs = distance.observed_pattern_runs(pair, n)
        tracemalloc.start()
        try:
            distance._write_runs(runs, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * n

    @pytest.mark.parametrize("family", ["p", "c", "z", "w"])
    def test_progressions_give_the_angles(self, family):
        for n in [*range(MIN_ORDER[family], 2001), 10**6, 10**6 + 1]:
            nums, den = _angles(family, n)
            pieces, piece_den = spectra.angle_progressions(family, n)
            covered = np.zeros(n, dtype=int)
            expanded = np.zeros(n, dtype=np.int64)
            for first, last, step, a, b in pieces:
                k = np.arange(first, last + 1, step)
                assert k[-1] == last
                covered[k - 1] += 1
                expanded[k - 1] = a + b * k
            assert piece_den == den
            assert np.all(covered == 1) and np.array_equal(expanded, nums), n

    @pytest.mark.parametrize("pair", ["pz", "wz", "cz"])
    def test_pattern_too_large_raises_before_allocating(self, pair, monkeypatch):
        # the O(1) verdict has no int64 bound, only the closed forms' one
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises
        with pytest.raises(OrderTooLargeError):
            pattern_mismatch(pair, MAX_CLOSED_ORDER + 2)
        assert pattern_mismatch(pair, MAX_CLOSED_ORDER) is None


def _expand(classes, n):
    """Dense codes of a run form, checking that each class's runs tile it."""
    step = len(classes)
    codes = np.zeros(n, dtype=np.int8)
    for start, runs in enumerate(classes, 1):
        ends = [start - step] + [k for lo, hi, _ in runs for k in (lo, hi)]
        assert n - step < ends[-1] <= n, runs
        assert all(b - a == step for a, b in zip(ends[::2], ends[1::2])), runs
        assert all(x[2] != y[2] for x, y in zip(runs, runs[1:])), runs
        for lo, hi, code in runs:
            assert lo <= hi and (hi - lo) % step == 0
            codes[lo - 1 : hi : step] = code
    return codes


def _dense_mismatch(observed, expected):
    bad = np.flatnonzero(observed != expected)
    return int(bad[0]) + 1 if bad.size else None


class TestO1Verdict:
    """pattern_mismatch from run forms in O(1), against the dense codes."""

    @pytest.mark.parametrize("pair", ["pz", "wz", "cz"])
    def test_every_order_to_2000(self, pair):
        step = 2 if pair == "cz" else 1
        for n in pair_orders(pair, 1, 2000):
            observed = _observed_codes(pair, n)
            expected = distance.expected_pattern_codes(pair, n)
            runs = distance.observed_pattern_runs(pair, n)
            assert len(runs) == step and np.array_equal(_expand(runs, n), observed), n
            runs = distance.expected_pattern_runs(pair, n)
            assert len(runs) == step and np.array_equal(_expand(runs, n), expected), n
            assert pattern_mismatch(pair, n) == _dense_mismatch(observed, expected)

    def test_random_orders_below_1e7(self):
        # log-uniform, so that every scale is drawn and the dense reference
        # stays affordable
        rng = random.Random(20201011)
        for i in range(500):
            pair = ("pz", "wz", "cz")[i % 3]
            n = int(math.exp(rng.uniform(math.log(4), math.log(10**7))))
            n = max(n - n % 2 if pair == "cz" else n, pair_min_order(pair))
            dense = _dense_mismatch(
                _observed_codes(pair, n),
                distance.expected_pattern_codes(pair, n),
            )
            assert pattern_mismatch(pair, n) == dense, (pair, n)

    def test_sign_runs_against_every_k(self):
        for c0 in range(-7, 8):
            for c1 in range(-3, 4):
                for step in (1, 2):
                    for first in (1, 2, 3):
                        for last in range(first, first + 9, step):
                            runs = distance._sign_runs(c0, c1, first, last, step)
                            got = [code for lo, hi, code in runs
                                   for _ in range(lo, hi + 1, step)]
                            want = [int(np.sign(c0 + c1 * k))
                                    for k in range(first, last + 1, step)]
                            assert got == want, (c0, c1, first, last, step)

    @pytest.mark.parametrize("pair", ["pz", "wz", "cz"])
    def test_huge_orders_without_numpy(self, pair, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises
        for n in (10**9, 10**12, 1518500250):  # the last has 4n^2 > 2^63
            assert pattern_mismatch(pair, n) is None, n

    def test_injected_departure_is_found(self, monkeypatch):
        # flip the asserted code at one k; the verdict must name that k
        asserted = distance.expected_pattern_runs
        rng = random.Random(7)
        for pair in ("pz", "wz", "cz"):
            for n in rng.sample(list(pair_orders(pair, 1, 400)), 40):
                classes = asserted(pair, n)
                k = rng.randrange(1, n + 1)
                step, runs = len(classes), classes[(k - 1) % len(classes)]
                i, (lo, hi, code) = next(
                    (i, run) for i, run in enumerate(runs) if run[0] <= k <= run[1]
                )
                flipped = 1 if code != 1 else -1
                split = [(lo, k - step, code), (k, k, flipped), (k + step, hi, code)]
                runs[i : i + 1] = [run for run in split if run[0] <= run[1]]
                monkeypatch.setattr(
                    distance, "expected_pattern_runs", lambda p, m, c=classes: c
                )
                assert pattern_mismatch(pair, n) == k, (pair, n, k)


class TestSymmetryVerdict:
    """symmetry_mismatch against the dense angles and the float spectra."""

    @pytest.mark.parametrize("family", ["p", "c", "z", "w"])
    def test_every_order_to_2000(self, family):
        for n in range(MIN_ORDER[family], 2001):
            nums, den = _angles(family, n)
            values = closed_spectrum(FamilySpec(family, n))
            symmetric = np.max(np.abs(values + values[::-1])) < 1e-9
            index = symmetry_mismatch(family, n)
            assert index == _dense_mismatch(nums + nums[::-1], den), n
            assert (index is None) == symmetric, n
            assert symmetric == (family != "c" or n % 2 == 0), n

    def test_injected_departure_is_found(self, monkeypatch):
        # move one piece's numerator by 1; the verdict must name the first k
        # where the dense angles, moved the same way, lose nums_k + nums_{n+1-k} = den
        progressions = spectra.angle_progressions
        rng = random.Random(9)
        for family in "pczw":
            for n in rng.sample(range(MIN_ORDER[family], 400), 30):
                pieces, den = progressions(family, n)
                i, delta = rng.randrange(len(pieces)), rng.choice((-1, 1))
                first, last, step, a, b = pieces[i]
                moved = pieces[:i] + ((first, last, step, a + delta, b),) + pieces[i + 1 :]
                monkeypatch.setattr(
                    distance, "angle_progressions", lambda f, m, p=moved: (p, den)
                )
                nums, _ = _angles(family, n)
                nums[first - 1 : last : step] += delta
                dense = _dense_mismatch(nums + nums[::-1], den)
                assert dense is not None
                assert symmetry_mismatch(family, n) == dense, (family, n, i)

    def test_huge_orders_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises
        for n in (MAX_CLOSED_ORDER, 2**60 - 1):  # the second is graphs.MAX_ORDER
            for family in "pzw":
                assert symmetry_mismatch(family, n) is None, (family, n)
            assert symmetry_mismatch("c", n) == (1 if n % 2 else None), n


class TestPatternSigma:
    @pytest.mark.parametrize("pair,low", [("pz", 4), ("wz", 6), ("cz", 4)])
    def test_halved_sum_reconstructs_sigma(self, pair, low):
        step = 2 if pair == "cz" else 1
        for n in range(low, 300, step):
            report = distance_report(pair, n)
            # the upper half of the diffs doubled by bipartite symmetry, plus
            # the middle term at odd order
            diffs = np.abs(np.asarray(report.diffs))
            halved = 2.0 * float(np.sum(diffs[: n // 2])) + (n % 2) * float(diffs[n // 2])
            assert abs(halved - report.sigma) < 1e-9


class TestCzMultiplicity:
    def test_paired_cycle_eigenvalues(self):
        for n in range(4, 600, 2):
            c = closed_spectrum(FamilySpec("c", n))
            for k in range(2, n - 1, 2):
                assert c[k - 1] == c[k]


class TestAdditivity:
    def test_n6_decomposition(self):
        pw, pz, wz = sigma_direct("pw", 6), sigma_direct("pz", 6), sigma_direct("wz", 6)
        assert abs(pw - 1.7801674716505156) < 1e-12
        assert abs(pz - 1.233252527661237) < 1e-12
        assert abs(wz - 0.5469149439892785) < 1e-12
        assert check_additivity(6) < 1e-12

    def test_small_orders(self):
        assert check_additivity(7) < 1e-12

    def test_n100(self):
        assert check_additivity(100) < 1e-10

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            check_additivity(5)

    def test_bitwise_equal_to_three_sigmas(self):
        # each spectrum built once gives the very residual of three sigma_direct calls
        for n in range(6, 3001):
            three = abs(sigma_direct("pw", n) - sigma_direct("pz", n) - sigma_direct("wz", n))
            assert check_additivity(n) == three, n


class TestReportJson:
    def test_round_trip(self):
        # the printed pattern is the dense exact one at every valid order to
        # 2000, pw included; printing all the diffs too would take seconds,
        # so the whole payload is read back at the orders to 100 and at 2000
        for pair in PAIRS:
            for n in pair_orders(pair, 1, 2000):
                report = distance_report(pair, n)
                labels = tuple(_LABELS[_observed_codes(pair, n)].tolist())
                assert report.pattern == labels, (pair, n)
                if n <= 100 or n >= 1999:
                    payload = json.loads(report.to_json())
                    assert payload["pair"] == pair and payload["n"] == n
                    assert payload["sigma"] == report.sigma
                    assert tuple(payload["diffs"]) == report.diffs
                    assert tuple(payload["pattern"]) == labels

    def test_repr_and_fields_cannot_be_assigned(self):
        report = distance_report("cz", 4)
        assert repr(report) == (
            "DistanceReport(pair='cz', n=4, sigma=0.5358983848622452, "
            "diffs=(0.2679491924311226, 0.0, 0.0, -0.2679491924311226), "
            "pattern=('G1_above', 'equal', 'equal', 'G2_above'))"
        )
        for field in ("pair", "n", "sigma", "diffs", "pattern"):
            with pytest.raises(AttributeError):
                setattr(report, field, None)
        assert report == distance_report("cz", 4)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_pattern_past_a_million(self, pair):
        # the written-out runs at orders where the diffs alone fill megabytes:
        # 10^6 and 10^6 + 1 (10^6 + 2 for cz)
        for n in pair_orders(pair, 10**6, 10**6 + 2)[:2]:
            labels = tuple(_LABELS[_observed_codes(pair, n)].tolist())
            assert distance_report(pair, n).pattern == labels, (pair, n)


VALID_FAMILIES = st.sampled_from(["p", "c", "z", "w"])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(6, 80),
    fams=st.tuples(VALID_FAMILIES, VALID_FAMILIES, VALID_FAMILIES),
)
def test_metric_axioms(n, fams):
    a, b, c = (closed_spectrum(FamilySpec(f, n)) for f in fams)
    assert sigma(a, a) == 0.0
    assert sigma(a, b) == pytest.approx(sigma(b, a), abs=1e-12)
    assert sigma(a, c) <= sigma(a, b) + sigma(b, c) + 1e-12
