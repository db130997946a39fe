import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from specdist.spectra import (
    cycle_eigenvalues,
    path_eigenvalues,
    w_eigenvalues,
    z_eigenvalues,
)

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

    @pytest.mark.parametrize(
        "family,values",
        [
            ("p", path_eigenvalues),
            ("c", cycle_eigenvalues),
            ("z", z_eigenvalues),
            ("w", w_eigenvalues),
        ],
    )
    def test_stable_sort_matches_default_sort(self, family, values):
        # the closed forms are one or two monotone runs, which the stable
        # sort merges in linear time; the result must not change by a bit
        for n in (6, 7, 100, 101, 4096, 4097, 100_000, 100_001):
            expected = np.sort(values(n))[::-1]
            assert np.array_equal(closed_spectrum(FamilySpec(family, n)), expected), n


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
