import json
import math

import pytest

from specdist import (
    L_STAR,
    alternating_sum,
    default_grid,
    richardson_extrapolate,
    sequence_scan,
    sigma_closed,
    target_constant,
)
from specdist.errors import InsufficientSamplesError, OrderTooSmallError, ResidueMismatchError


class TestTargets:
    def test_l_star_value(self):
        assert L_STAR == (8.0 - 8.0 * math.sqrt(2.0) + 2.0 * math.pi) / math.pi
        assert abs(L_STAR - 0.945) < 5e-4

    def test_pair_targets(self):
        assert target_constant("pz") == L_STAR
        assert target_constant("wz") == L_STAR
        assert target_constant("pw") == 2.0 * L_STAR
        assert target_constant("cz") == 2.0

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            target_constant("qq")


class TestAlternatingSum:
    def test_single_term(self):
        assert abs(alternating_sum(2) + math.sqrt(3.0) / 2.0) < 1e-15

    def test_two_terms(self):
        expected = -math.cos(math.pi / 10) + math.cos(3 * math.pi / 10)
        assert abs(alternating_sum(3) - expected) < 1e-15
        assert abs(expected + 0.363271) < 1e-6

    def test_converges_to_minus_half(self):
        assert abs(alternating_sum(100_000) + 0.5) < 1e-3

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            alternating_sum(1)


class TestRichardson:
    def test_exact_first_order_sequence(self):
        limit = 0.25
        samples = [(n, limit + 1.0 / n) for n in (100, 200, 400)]
        assert richardson_extrapolate(samples) == pytest.approx(limit, abs=1e-15)

    def test_constant_sequence(self):
        assert richardson_extrapolate([(10, 7.0), (20, 7.0), (40, 7.0)]) == 7.0

    def test_non_doubling_rejected(self):
        samples = [(10, 1.0), (20, 1.5), (100, 1.9)]
        with pytest.raises(ValueError, match="not a doubling"):
            richardson_extrapolate(samples)

    def test_residue_grid_lands_near_l_star(self):
        samples = [(n, sigma_closed("pz", n)) for n in (4001, 8001, 16001)]
        assert abs(richardson_extrapolate(samples) - L_STAR) < 1e-5

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            richardson_extrapolate([(10, 1.0), (20, 1.0)])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([(10, 1.0), (10, 1.0), (20, 1.0)])


class TestGrid:
    def test_cz_grid_doubles(self):
        grid = default_grid("cz", n_max=64)
        assert grid == [4, 8, 16, 32, 64]

    def test_residue_preserved(self):
        for pair in ("pz", "wz", "pw"):
            for r in range(4):
                grid = default_grid(pair, residue=r, n_max=5000)
                assert all(n % 4 == r for n in grid)
                # early steps can deviate more (residue adjustment of +-3)
                ratios = [b / a for a, b in zip(grid, grid[1:]) if a >= 16]
                assert all(1.7 <= q <= 2.3 for q in ratios)

    def test_n_max_below_the_first_order_rejected(self):
        with pytest.raises(OrderTooSmallError, match=r"^n_max 3 below the smallest valid order 4$"):
            default_grid("pz", residue=0, n_max=3)

    def test_missing_residue_rejected(self):
        message = r"^pair pz requires a residue 0\.\.3, got None$"
        with pytest.raises(ResidueMismatchError, match=message):
            default_grid("pz", residue=None)
        with pytest.raises(ResidueMismatchError, match=message):
            sequence_scan("pz", residue=None)


class TestSequenceScan:
    def test_pz_residue_0_sequence(self):
        est = sequence_scan("pz", residue=0, n_max=100_000)
        ns = [n for n, _ in est.samples]
        assert ns[0] == 4 and ns == sorted(ns)
        assert abs(est.samples[0][1] - 1.4641) < 1e-4
        values = [v for _, v in est.samples]
        assert all(a > b for a, b in zip(values, values[1:]))  # decreasing
        assert abs(est.extrapolated - L_STAR) < 1e-5
        assert est.abs_error == abs(est.extrapolated - est.target)

    def test_cz_approaches_two(self):
        est = sequence_scan("cz", n_max=100_000)
        assert est.target == 2.0
        assert abs(est.extrapolated - 2.0) < 1e-5

    def test_pw_matches_twice_l_star(self):
        est = sequence_scan("pw", residue=2, n_max=100_000)
        assert abs(est.extrapolated - 2.0 * L_STAR) < 1e-5

    def test_json_round_trip(self):
        est = sequence_scan("cz", n_max=1000)
        payload = json.loads(est.to_json())
        assert payload["pair"] == "cz"
        assert payload["residue"] is None
        assert payload["extrapolated"] == est.extrapolated
        assert [tuple(s) for s in payload["samples"]] == list(est.samples)

    def test_csv_shape(self):
        est = sequence_scan("wz", residue=2, n_max=500)
        lines = est.to_csv().splitlines()
        assert lines[0] == "pair,residue,n,sigma,target,abs_error"
        assert len(lines) == len(est.samples) + 1
        first = lines[1].split(",")
        assert first[0] == "wz" and first[1] == "2" and first[2] == "6"


class TestConvergenceStructure:
    @pytest.mark.parametrize(
        "pair,residue", [("pz", 1), ("pz", 2), ("wz", 0), ("cz", None)]
    )
    def test_monotone_error_decay(self, pair, residue):
        est = sequence_scan(pair, residue=residue, n_max=100_000)
        errors = [abs(v - est.target) for _, v in est.samples]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("pair,residue", [("pz", 3), ("wz", 1), ("cz", None)])
    def test_error_halving(self, pair, residue):
        est = sequence_scan(pair, residue=residue, n_max=100_000)
        errors = [abs(v - est.target) for _, v in est.samples]
        for a, b in zip(errors[-4:], errors[-3:]):
            assert 0.3 <= b / a <= 0.7

    def test_residue_classes_agree(self):
        extrapolated = [
            sequence_scan("pz", residue=r, n_max=20_000).extrapolated for r in range(4)
        ]
        spread = max(extrapolated) - min(extrapolated)
        assert spread < 1e-4

    def test_pw_is_pointwise_sum(self):
        from specdist import sigma_direct

        est = sequence_scan("pw", residue=0, n_max=4096)
        for n, v in est.samples:
            assert abs(v - sigma_direct("pw", n)) < 1e-9
