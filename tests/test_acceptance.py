"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from specdist import (
    L_STAR,
    FamilySpec,
    adjacency_matrix,
    build_family,
    check_additivity,
    closed_spectrum,
    numeric_spectrum,
    pattern_mismatch,
    sequence_scan,
    sigma_closed,
    sigma_direct,
    spectrum_deviation,
    alternating_sum,
)

SQRT3 = math.sqrt(3.0)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_cz_limit():
    t0 = time.perf_counter()
    value = sigma_closed("cz", 200_000)
    estimate = sequence_scan("cz", n_max=200_000)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(value - 2.0) < 1e-3
        and estimate.abs_error < 1e-5
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (cz limit = 2)",
        ok,
        f"|sigma(2e5)-2|={abs(value - 2.0):.3g}, "
        f"extrapolation error={estimate.abs_error:.3g}, runtime={elapsed:.3f}s",
    )


def test_criterion_2_pz_wz_limits_per_residue():
    t0 = time.perf_counter()
    extrapolated = []
    worst_point = 0.0
    for pair in ("pz", "wz"):
        for residue in range(4):
            est = sequence_scan(pair, residue=residue, n_max=100_000)
            worst_point = max(worst_point, abs(est.samples[-1][1] - L_STAR))
            extrapolated.append((pair, est.extrapolated))
    pz_vals = [v for p, v in extrapolated if p == "pz"]
    wz_vals = [v for p, v in extrapolated if p == "wz"]
    spread = max(
        max(pz_vals) - min(pz_vals),
        max(wz_vals) - min(wz_vals),
    )
    elapsed = time.perf_counter() - t0
    ok = worst_point < 1e-3 and spread < 1e-4 and elapsed < 5.0
    _report(
        "criterion 2 (pz/wz limits per residue)",
        ok,
        f"worst |sigma(n~1e5)-L*|={worst_point:.3g}, residue spread={spread:.3g}, "
        f"runtime={elapsed:.3f}s",
    )


def test_criterion_3_pw_limit_and_additivity():
    worst_extrap = 0.0
    for residue in range(4):
        est = sequence_scan("pw", residue=residue, n_max=100_000)
        worst_extrap = max(worst_extrap, abs(est.extrapolated - 2.0 * L_STAR))
    worst_residual = max(check_additivity(n) for n in range(6, 2001))
    ok = worst_extrap < 2e-3 and worst_residual < 1e-9
    _report(
        "criterion 3 (pw limit and additivity)",
        ok,
        f"worst extrapolation error={worst_extrap:.3g}, "
        f"worst additivity residual={worst_residual:.3g}",
    )


def test_criterion_4_oracle_equivalence():
    worst_dev = 0.0
    worst_trace = 0.0
    worst_sumsq = 0.0
    for fam, low in [("p", 1), ("c", 3), ("z", 4), ("w", 6)]:
        for n in range(low, 201):
            spec = FamilySpec(fam, n)
            closed = closed_spectrum(spec)
            g = build_family(spec)
            numeric = numeric_spectrum(adjacency_matrix(g))
            worst_dev = max(worst_dev, spectrum_deviation(closed, numeric))
            worst_trace = max(worst_trace, abs(float(np.sum(numeric))))
            worst_sumsq = max(
                worst_sumsq, abs(float(np.sum(numeric**2)) - 2.0 * len(g.edges))
            )
    ok = worst_dev < 1e-8 and worst_trace < 1e-8 and worst_sumsq < 1e-8
    _report(
        "criterion 4 (oracle equivalence, n <= 200)",
        ok,
        f"worst deviation={worst_dev:.3g}, worst trace={worst_trace:.3g}, "
        f"worst sum-of-squares error={worst_sumsq:.3g}",
    )


def test_criterion_5_interlacing_suites():
    failures = []
    for n in range(4, 2001):
        if pattern_mismatch("pz", n) is not None:
            failures.append(("pz", n))
        if n >= 6 and pattern_mismatch("wz", n) is not None:
            failures.append(("wz", n))
    for n in range(4, 2001, 2):  # orders of C/Z, half-order 2..1000
        if pattern_mismatch("cz", n) is not None:
            failures.append(("cz", n))
    _report(
        "criterion 5 (interlacing suites)",
        not failures,
        f"{failures[:5] if failures else 'no violations through n=2000'}",
    )


def test_criterion_6_closed_sum_equivalence():
    worst = 0.0
    for n in range(4, 2001):
        worst = max(worst, abs(sigma_closed("pz", n) - sigma_direct("pz", n)))
        if n >= 6:
            worst = max(worst, abs(sigma_closed("wz", n) - sigma_direct("wz", n)))
        if n % 2 == 0:
            worst = max(worst, abs(sigma_closed("cz", n) - sigma_direct("cz", n)))
    _report(
        "criterion 6 (closed-sum/direct equivalence, n <= 2000)",
        worst < 1e-9,
        f"worst residual={worst:.3g}",
    )


def test_criterion_7_alternating_sum():
    value_error = abs(alternating_sum(100_000) + 0.5)
    errors = [abs(alternating_sum(n) + 0.5) for n in (25_000, 50_000, 100_000)]
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    ok = value_error < 1e-3 and all(0.3 <= r <= 0.7 for r in ratios)
    _report(
        "criterion 7 (alternating sum -> -1/2)",
        ok,
        f"|sum(1e5)+1/2|={value_error:.3g}, halving ratios={[f'{r:.3f}' for r in ratios]}",
    )


def test_criterion_8_exact_spot_values():
    expected_cz = 4.0 - 2.0 * SQRT3
    expected_pz = 4.0 * (
        math.cos(math.pi / 6) - math.cos(math.pi / 5) + math.cos(2 * math.pi / 5)
    )
    errors = [
        abs(sigma_direct("cz", 4) - expected_cz),
        abs(sigma_closed("cz", 4) - expected_cz),
        abs(sigma_direct("pz", 4) - expected_pz),
        abs(sigma_closed("pz", 4) - expected_pz),
    ]
    _report(
        "criterion 8 (exact spot values at n=4)",
        max(errors) < 1e-12,
        f"worst error={max(errors):.3g}",
    )
