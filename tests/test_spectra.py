import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from specdist import (
    FamilySpec,
    adjacency_matrix,
    build_family,
    closed_spectrum,
    numeric_spectrum,
    spectrum_deviation,
    spectrum_to_csv,
)
from specdist.errors import LengthMismatchError, OrderTooSmallError
from specdist.graphs import MIN_ORDER
from specdist.spectra import angle_progressions

SQRT3 = math.sqrt(3.0)


class TestClosedForms:
    def test_path_n2(self):
        assert np.allclose(closed_spectrum(FamilySpec("p", 2)), [1.0, -1.0], atol=1e-15)

    def test_cycle_n4(self):
        assert np.allclose(
            closed_spectrum(FamilySpec("c", 4)), [2.0, 0.0, 0.0, -2.0], atol=1e-15
        )

    def test_z4_is_star_spectrum(self):
        assert np.allclose(
            closed_spectrum(FamilySpec("z", 4)), [SQRT3, 0.0, 0.0, -SQRT3], atol=1e-15
        )

    def test_w6(self):
        assert np.allclose(
            closed_spectrum(FamilySpec("w", 6)),
            [2.0, 1.0, 0.0, 0.0, -1.0, -2.0],
            atol=1e-15,
        )

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            closed_spectrum(FamilySpec("w", 5))

    def test_takes_only_a_family_spec(self):
        with pytest.raises(TypeError, match="^closed_spectrum expects a FamilySpec$"):
            closed_spectrum(("p", 5))


def textbook_angles(family, n):
    """The textbook spectrum of the family as (nums, den), each eigenvalue
    2 cos(pi num/den) with num in 0..den, nums ascending so the eigenvalues
    descend: sorted as integers, apart from spectra.angle_progressions."""
    k = np.arange(1, n + 1, dtype=np.int64)
    if family == "p":  # 2 cos(k pi/(n+1)), k = 1..n
        nums, den = k, n + 1
    elif family == "c":  # 2 cos(2 k pi/n), k = 1..n, folded into 0..pi
        nums, den = np.minimum(2 * k, 2 * n - 2 * k), n
    elif family == "z":  # 0 and 2 cos((2k-1) pi/(2n-2)), k = 1..n-1
        nums, den = np.append(2 * k[:-1] - 1, n - 1), 2 * n - 2
    else:  # {2, 0, 0, -2} and 2 cos(k pi/(n-3)), k = 1..n-4, over 2n-6
        nums, den = np.append(2 * k[:-4], [0, n - 3, n - 3, 2 * n - 6]), 2 * n - 6
    return np.sort(nums), den


def worst_error(family, n, indices=None):
    """Largest |closed_spectrum - 40-digit mpmath| over the given 0-based
    indices of the descending spectrum (all of them by default)."""
    values = closed_spectrum(FamilySpec(family, n))
    nums, den = textbook_angles(family, n)
    if indices is None:
        indices = range(n)
    with mp.workdps(40):
        return max(
            abs(mp.mpf(values[i]) - 2 * mp.cos(mp.pi * int(nums[i]) / den)) for i in indices
        )


class TestWrittenOutAngles:
    """closed_spectrum is angle_progressions written out: pi/2 gives an exact
    0.0, each double cycle eigenvalue is an exact pair, and every entry lies
    within 1.2e-15 of the textbook value."""

    ERR = 1.2e-15

    @staticmethod
    def _zeros(family, n):
        return {"p": n % 2, "c": 2 * (n % 4 == 0), "z": 2 - n % 2, "w": 2 + n % 2}[family]

    def test_exact_zeros_and_descending(self):
        for family, minimum in MIN_ORDER.items():
            for n in range(minimum, 2001):
                values = closed_spectrum(FamilySpec(family, n))
                assert np.count_nonzero(values == 0.0) == self._zeros(family, n), (family, n)
                assert np.all(np.diff(values) <= 0), (family, n)

    def test_every_entry_against_mpmath(self):
        for family, minimum in MIN_ORDER.items():
            for n in [*range(minimum, 61), 100, 101, 1000, 1001]:
                assert worst_error(family, n) <= self.ERR, (family, n)

    @pytest.mark.parametrize("n", [10**5, 2 * 10**6 + 3])
    def test_seeded_entries_at_large_orders(self, n):
        indices = np.random.default_rng(12).choice(n, size=300, replace=False)
        for family in MIN_ORDER:
            assert worst_error(family, n, indices) <= self.ERR, family


def formula_spectrum(family, n):
    """angle_progressions written out as one formula: 2.0 * cos(nums * pi / den),
    then 0.0 wherever 2 num = den."""
    pieces, den = angle_progressions(family, n)
    nums = np.empty(n)
    for first, last, step, a, b in pieces:
        nums[first - 1 : last : step] = a + b * np.arange(first, last + 1, step, dtype=float)
    values = 2.0 * np.cos(nums * math.pi / den)
    values[2.0 * nums == den] = 0.0
    return values


class TestBitwiseFormula:
    """closed_spectrum works in place, yet gives the formula's very bytes."""

    @staticmethod
    def _assert_same_bytes(family, n):
        values, expected = closed_spectrum(FamilySpec(family, n)), formula_spectrum(family, n)
        assert values.dtype == expected.dtype and values.shape == expected.shape, (family, n)
        assert values.tobytes() == expected.tobytes(), (family, n)

    def test_every_order_to_3000(self):
        for family, minimum in MIN_ORDER.items():
            for n in range(minimum, 3001):
                self._assert_same_bytes(family, n)

    @pytest.mark.parametrize("n", [10**5, 10**5 + 1, 10**5 + 2, 10**5 + 3, 8192, 8193,
                                   2 * 10**6 + 3])
    def test_large_orders(self, n):
        for family in MIN_ORDER:
            self._assert_same_bytes(family, n)


class TestNumericSpectrum:
    def test_p2(self):
        m = adjacency_matrix(build_family(FamilySpec("p", 2)))
        assert np.allclose(numeric_spectrum(m), [1.0, -1.0], atol=1e-12)

    def test_c3(self):
        m = adjacency_matrix(build_family(FamilySpec("c", 3)))
        assert np.allclose(numeric_spectrum(m), [2.0, -1.0, -1.0], atol=1e-12)

    def test_z5(self):
        m = adjacency_matrix(build_family(FamilySpec("z", 5)))
        expected = [1.84776, 0.76537, 0.0, -0.76537, -1.84776]
        assert np.allclose(numeric_spectrum(m), expected, atol=1e-5)


class TestDeviation:
    def test_identical(self):
        s = closed_spectrum(FamilySpec("p", 9))
        assert spectrum_deviation(s, s) == 0.0

    def test_c4_vs_z4(self):
        dev = spectrum_deviation(
            closed_spectrum(FamilySpec("c", 4)), closed_spectrum(FamilySpec("z", 4))
        )
        assert abs(dev - (2.0 - SQRT3)) < 1e-12

    def test_p50_oracle(self):
        spec = FamilySpec("p", 50)
        dev = spectrum_deviation(
            closed_spectrum(spec),
            numeric_spectrum(adjacency_matrix(build_family(spec))),
        )
        assert dev < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            spectrum_deviation([1.0], [1.0, 2.0])

    def test_empty_spectra(self):
        assert spectrum_deviation([], []) == 0.0


FAMILY_RANGES = st.one_of(
    st.tuples(st.just("p"), st.integers(1, 80)),
    st.tuples(st.just("c"), st.integers(3, 80)),
    st.tuples(st.just("z"), st.integers(4, 80)),
    st.tuples(st.just("w"), st.integers(6, 80)),
)


@settings(max_examples=80, deadline=None)
@given(FAMILY_RANGES)
def test_spectrum_invariants(fam_n):
    fam, n = fam_n
    spec = FamilySpec(fam, n)
    values = closed_spectrum(spec)
    g = build_family(spec)

    assert values.shape == (n,)
    assert np.all(np.diff(values) <= 1e-15)  # descending
    assert np.max(np.abs(values)) <= 2.0 + 1e-12
    assert abs(np.sum(values)) < 1e-9  # zero trace
    assert abs(np.sum(values**2) - 2 * len(g.edges)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(FAMILY_RANGES)
def test_bipartite_symmetry(fam_n):
    fam, n = fam_n
    values = closed_spectrum(FamilySpec(fam, n))
    symmetric = np.max(np.abs(values + values[::-1])) < 1e-9
    if fam == "c" and n % 2 == 1:
        assert not symmetric  # odd cycles are not bipartite
    else:
        assert symmetric


class TestIndexBounds:
    def test_largest_eigenvalues(self):
        for n in range(4, 120):
            assert closed_spectrum(FamilySpec("z", n))[0] < 2.0
            assert closed_spectrum(FamilySpec("p", n))[0] < 2.0
            assert closed_spectrum(FamilySpec("c", n))[0] == 2.0
            if n >= 6:
                assert closed_spectrum(FamilySpec("w", n))[0] == 2.0


class TestCsvExport:
    def test_format(self):
        text = spectrum_to_csv(closed_spectrum(FamilySpec("c", 4)))
        lines = text.splitlines()
        assert lines[0] == "index,eigenvalue"
        assert lines[1] == "1,2"
        assert len(lines) == 5

    def test_round_trip_17_digits(self):
        values = closed_spectrum(FamilySpec("z", 11))
        lines = spectrum_to_csv(values).splitlines()[1:]
        parsed = [float(line.split(",")[1]) for line in lines]
        assert np.array_equal(np.asarray(parsed), values)
