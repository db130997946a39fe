import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from specdist import (
    L_STAR,
    alternating_sum,
    default_grid,
    richardson_extrapolate,
    sequence_scan,
    sigma_closed,
    target_constant,
)
from specdist.cli import SCAN_TOL
from specdist.errors import InsufficientSamplesError, OrderTooSmallError, ResidueMismatchError
from specdist.distance import MAX_CLOSED_ORDER, pair_orders
from specdist.limits import KAPPA, SAMPLE_ULPS, LimitEstimate, _scan_residue

SCAN_CLASSES = [(p, r) for p in ("pz", "wz", "pw") for r in range(4)] + [("cz", None)]

# richardson_extrapolate's docstring: the largest sum of |Lagrange weight| at
# h = 0 on 2, 3 and 4 nodes whose ratios are at least 2, and the bound on the
# tableau's own rounding, in ulp of its largest value
LAMBDA = {2: 3, 3: 5, 4: Fraction(45, 7)}
TAU = 33


# sequence_scan("cz", n_max=1000) as printed, pinned across changes of its record type
CZ_1000_REPR = (
    "LimitEstimate(pair='cz', residue=None, samples=((4, 0.5358983848622456), "
    "(8, 1.4920793246745923), (16, 1.7787749703416142), (32, 1.896001194944172), "
    "(64, 1.9495012846158095), (128, 1.9751087995559355), (256, 1.9876419269557661), "
    "(512, 1.9938426005059384)), extrapolated=2.000000020572593, target=2.0, "
    "abs_error=2.0572592962508907e-08)"
)
CZ_1000_JSON = (
    '{"pair": "cz", "residue": null, "samples": [[4, 0.5358983848622456], '
    '[8, 1.4920793246745923], [16, 1.7787749703416142], [32, 1.896001194944172], '
    '[64, 1.9495012846158095], [128, 1.9751087995559355], [256, 1.9876419269557661], '
    '[512, 1.9938426005059384]], "extrapolated": 2.000000020572593, "target": 2.0, '
    '"abs_error": 2.0572592962508907e-08}'
)


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

    def test_non_doubling_orders_extrapolate_to_the_limit(self):
        # 2*v2 - v1 would be off by 3/(8005*16013) = 2.3e-8 here
        limit = 0.25
        samples = [(n, limit + 1.0 / n) for n in (4001, 8005, 16013)]
        assert abs(richardson_extrapolate(samples) - limit) <= math.ulp(limit)

    @settings(max_examples=500, deadline=None)
    @given(limit=st.floats(1.0, 2.0, exclude_max=True), c=st.floats(-1.0, 1.0),
           n1=st.integers(16, 10**12), ratio=st.floats(1.5, 3.0))
    def test_first_order_sequences_extrapolate_to_the_ulp(self, limit, c, n1, ratio):
        # v = L + c/n is exactly first order, so only rounding is left.  With
        # u = 2**-53, each v is off by at most u*(|c|/n + |v|); n*v, the
        # difference and the quotient round once each.  For |c| <= 1,
        # n1 >= 16 and n2/n1 >= 1.5 (so (n2 + n1)/(n2 - n1) <= 5) that adds
        # up to u*(12L + 0.875) < 12.5 ulp of L in [1, 2), and the O(u**2)
        # terms do not reach 13.
        n2 = math.ceil(ratio * n1)
        samples = [(n1 - 1, 0.0), (n1, limit + c / n1), (n2, limit + c / n2)]
        assert abs(richardson_extrapolate(samples) - limit) <= 13 * math.ulp(limit)

    def test_the_first_sample_never_enters_a_fit(self):
        # the pair's minimum order lies outside the 1/n regime: a nan there
        # leaves every prefix's result as it was
        for pair, residue in SCAN_CLASSES:
            samples = [(n, sigma_closed(pair, n)) for n in default_grid(pair, residue, 10**6)]
            for k in range(3, len(samples) + 1):
                moved = [(samples[0][0], math.nan), *samples[1:k]]
                assert richardson_extrapolate(moved) == richardson_extrapolate(samples[:k])

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

    @pytest.mark.parametrize("residue", range(4))
    def test_cz_residue_rejected(self, residue):
        message = rf"^pair cz takes no residue, got {residue}$"
        with pytest.raises(ResidueMismatchError, match=message):
            default_grid("cz", residue=residue)
        with pytest.raises(ResidueMismatchError, match=message):
            sequence_scan("cz", residue=residue)


@settings(max_examples=200, deadline=None)
@given(cls=st.sampled_from(SCAN_CLASSES),
       n_max=st.one_of(st.integers(1, 10**4), st.integers(1, 10**150)))
def test_grids_cut_short_are_prefixes_and_extrapolate(cls, n_max):
    # A smaller n_max cuts the same grid shorter, and every grid of 3 or more
    # orders extrapolates without raising.
    try:
        grid = default_grid(*cls, n_max=n_max)
    except OrderTooSmallError:
        return
    assert grid[-1] <= n_max
    if len(grid) > 1:
        assert default_grid(*cls, n_max=grid[-1] - 1) == grid[:-1]
    if len(grid) >= 3:
        assert richardson_extrapolate([(n, 0.0) for n in grid]) == 0.0


@pytest.mark.parametrize("cls", SCAN_CLASSES)
def test_every_prefix_against_the_doubling_rule(cls):
    # 2*v2 - v1, the rule for n2 = 2*n1 exactly, as the reference on every
    # prefix of the class's grid to 10**150: the extrapolation gives its bits
    # on three-sample prefixes of power-of-two grids, is no worse below n 2e6,
    # at most 2 ulp of the target worse beyond, and stays within SCAN_TOL
    # where it did.
    pair, residue = cls
    samples = [(n, sigma_closed(pair, n)) for n in default_grid(pair, residue, 10**150)]
    target, tol = target_constant(pair), SCAN_TOL[pair]
    power_of_two = all(n & (n - 1) == 0 for n, _ in samples)
    assert power_of_two == (residue in (0, None))
    for k in range(3, len(samples) + 1):
        (_, v1), (n2, v2) = samples[k - 2], samples[k - 1]
        reference = 2.0 * v2 - v1
        got = richardson_extrapolate(samples[:k])
        if power_of_two and k == 3:
            assert got.hex() == reference.hex(), n2
        error, reference_error = abs(got - target), abs(reference - target)
        if n2 < 2 * 10**6:
            assert error <= reference_error, n2
        else:
            assert error <= reference_error + 2 * math.ulp(target), n2
        assert error <= tol or reference_error > tol, n2


@pytest.mark.parametrize("cls", SCAN_CLASSES)
def test_every_prefix_within_1e_14_or_the_two_point_error(cls):
    pair, residue = cls
    samples = [(n, sigma_closed(pair, n)) for n in default_grid(pair, residue, 10**150)]
    target = target_constant(pair)
    for k in range(3, len(samples) + 1):
        (n1, v1), (n2, v2) = samples[k - 2], samples[k - 1]
        two_point = abs((n2 * v2 - n1 * v1) / (n2 - n1) - target)
        assert abs(richardson_extrapolate(samples[:k]) - target) <= max(1e-14, two_point), n2


def test_default_scans_agree_with_40_digit_limits():
    with mp.workdps(40):
        l_star = (8 - 8 * mp.sqrt(2) + 2 * mp.pi) / mp.pi
        limits = {"pz": l_star, "wz": l_star, "pw": 2 * l_star, "cz": mp.mpf(2)}
        for pair, residue in SCAN_CLASSES:
            est = sequence_scan(pair, residue)
            assert abs(est.extrapolated - limits[pair]) <= 1e-14, (pair, residue)


def _weights(orders):
    """The Lagrange weights at h = 0 of the nodes h = 1/n, exactly."""
    hs = [Fraction(1, n) for n in orders]
    return [math.prod(-hk / (hi - hk) for hk in hs if hk != hi) for hi in hs]


@pytest.mark.parametrize("cls", SCAN_CLASSES)
def test_fit_weights_within_the_stop_rules_sums(cls):
    # the premises of KAPPA on every fit of the class's grid to 10**150: the
    # entries' weights sum to at most LAMBDA in magnitude, and a correction's
    # (the difference of two entries' weights) to at most 2
    assert KAPPA == 2 * SAMPLE_ULPS
    grid = default_grid(*cls, n_max=10**150)
    for k in range(3, len(grid) + 1):
        fit = grid[1:k][-4:]  # the orders richardson_extrapolate fits
        for m in range(2, len(fit) + 1):
            weights = _weights(fit[-m:])
            assert sum(map(abs, weights)) <= LAMBDA[m], fit
            if m > 2:
                fewer = [0, *_weights(fit[-m + 1:])]
                assert sum(abs(a - b) for a, b in zip(weights, fewer)) <= 2, fit


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(SCAN_CLASSES),
       k=st.one_of(st.integers(5, 30), st.integers(5, 600)),
       limit=st.floats(1.0, 2.0, exclude_max=True),
       c=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       scale=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12]))
def test_cubic_sequences_come_back_within_the_derived_bound(cls, k, limit, c, scale):
    # v(n) = L + c1/n + c2/n**2 + c3/n**3 on the first k orders of a class's
    # grid, so the fit has four nodes, from n >= 8.  There |v - L| < 0.15, so
    # every tableau value is below 4 and ulp(2L) is at least the ulp of the
    # largest.  rho is the samples' own rounding, measured exactly.
    grid = default_grid(*cls, n_max=10**150)[:k]
    c1, c2, c3 = (x * scale for x in c)
    samples = [(n, limit + (1 / n) * (c1 + (1 / n) * (c2 + (1 / n) * c3))) for n in grid]
    rho = max(abs(Fraction(v) - Fraction(limit) - Fraction(c1) / n - Fraction(c2) / n**2
                  - Fraction(c3) / n**3) for n, v in samples[-4:])
    n1, n2, n3 = grid[-3:]
    bound = ((KAPPA + TAU) * Fraction(math.ulp(2 * limit)) + LAMBDA[4] * rho
             + abs(Fraction(c3)) / (n1 * n2 * n3))
    assert abs(Fraction(richardson_extrapolate(samples)) - Fraction(limit)) <= bound


def grid_by_rungs(pair, residue, n_max):
    """default_grid's definition, rung by rung: the first order of pair_orders
    from twice the last rung, until none is left below n_max."""
    residue = _scan_residue(pair, residue)
    start = pair_orders(pair, 0, MAX_CLOSED_ORDER, residue)[0]
    if start > n_max:
        raise OrderTooSmallError(f"n_max {n_max} below the smallest valid order {start}")
    grid = [start]
    while orders := pair_orders(pair, 2 * grid[-1], n_max, residue):
        grid.append(orders[0])
    return grid


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the error's type and message must match too
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(["pz", "wz", "pw", "cz", "qq"]),
       residue=st.sampled_from([None, 0, 1, 2, 3, 4, -1]),
       n_max=st.one_of(st.integers(-5, 10**4), st.integers(1, 10**150)))
def test_grid_is_the_rung_definition(pair, residue, n_max):
    args = pair, residue, n_max
    assert _outcome(default_grid, *args) == _outcome(grid_by_rungs, *args)


@pytest.mark.parametrize("cls", SCAN_CLASSES)
def test_grid_is_the_rung_definition_at_the_largest_n_max(cls):
    assert default_grid(*cls, n_max=MAX_CLOSED_ORDER) == grid_by_rungs(*cls, MAX_CLOSED_ORDER)


def csv_by_rows(est):
    """LimitEstimate.to_csv's definition, one f-string per row."""
    residue = "" if est.residue is None else str(est.residue)
    text = "pair,residue,n,sigma,target,abs_error\n"
    for n, v in est.samples:
        text += f"{est.pair},{residue},{n},{v:.17g},{est.target:.17g},{abs(v - est.target):.17g}\n"
    return text


@pytest.mark.parametrize("cls", SCAN_CLASSES)
@pytest.mark.parametrize("n_max", [100, 10**5, 10**150])
def test_csv_is_the_row_definition(cls, n_max):
    est = sequence_scan(*cls, n_max=n_max)
    assert est.to_csv() == csv_by_rows(est)


def test_csv_of_a_bare_estimate():
    for est in (LimitEstimate("pz", 3, ((7, -0.0), (15, 1e-300), (31, math.inf)), 0.5, 1 / 3, 0.25),
                LimitEstimate("cz", None, (), 0.0, 2.0, 0.0)):
        assert est.to_csv() == csv_by_rows(est)


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

    def test_json_bytes(self):
        assert sequence_scan("cz", n_max=1000).to_json() == CZ_1000_JSON

    def test_repr(self):
        assert repr(sequence_scan("cz", n_max=1000)) == CZ_1000_REPR

    def test_fields_cannot_be_assigned(self):
        est = sequence_scan("cz", n_max=1000)
        for field in ("pair", "residue", "samples", "extrapolated", "target", "abs_error"):
            with pytest.raises(AttributeError):
                setattr(est, field, None)
        assert est.to_json() == CZ_1000_JSON

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
