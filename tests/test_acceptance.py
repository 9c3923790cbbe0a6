"""Acceptance checks for the full analysis stack.

Each test prints one numbered PASS/FAIL line (run with ``pytest
tests/test_acceptance.py -v -s`` to see them) and then asserts, so a red
criterion is visible both in the printout and in the pytest summary.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from aamcba.forecast.arima import ArimaOrder, fit_arima, forecast
from aamcba.forecast.stattests import adf_test, ljung_box
from aamcba.factors import FACTOR_IDS
from aamcba.ledger import AnnualResult, BandValue, write_results_csv

from oracles import (
    adf_stat_bruteforce,
    band_sum,
    inspection_costs_exact,
    npi_band,
    random_walk_path,
    white_noise_path,
)
from test_factors_agriculture import farming_items
from test_factors_environment import ghg_trace
from test_factors_inspection import inspection_trace
from test_factors_logistics import package_trace


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_01_market_projection_value_and_speed(factor_value):
    calls = 1000
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            trace = package_trace(factor_value, year=2030)
        best = min(best, (time.perf_counter() - start) / calls)
    value = trace["global drone logistics market ($M)"]
    relative_error = abs(value / 39013.0 - 1.0)
    passed = relative_error <= 0.01 and best < 1e-3
    _report(
        1, passed,
        f"2030 global market {value:,.2f} vs 39,013 "
        f"(off by {relative_error:.2%}), {best * 1e6:.1f}us per BF3 evaluation",
    )


def test_02_market_share_and_adoption_share(factor_value):
    share = package_trace(factor_value)["US market share"]
    trace = {}
    farming_items(factor_value, {}, 0.0, farms=(13893.0, 77805.0), trace=trace)
    farms = trace["adopting-farm share"]
    passed = abs(share - 0.6162) <= 1e-4 and abs(farms - 0.1786) <= 5e-4
    _report(
        2, passed,
        f"US market share {share:.6f} (target 0.6162), "
        f"farm adoption {farms:.6f} (target 0.1786)",
    )


def test_03_drone_trip_ceiling_and_fleet_ratio(factor_value):
    trace = package_trace(factor_value)
    ceiling = trace["deliveries one drone can fly per year"]
    active = trace["active drone fleet"]
    fleet = trace["fleet incl. rotation and reserve"]
    ratio_error = abs(fleet / (2.25 * active) - 1.0)
    passed = ceiling == 17040.0 and ratio_error <= 1e-12
    _report(
        3, passed,
        f"trips per drone {ceiling} (want exactly 17040), "
        f"fleet/active ratio off by {ratio_error:.2e}",
    )


def test_04_inspection_costs_match_exact_oracle(factor_value):
    want = inspection_costs_exact()
    trace = inspection_trace(factor_value)
    values = tuple(trace[label] for label in (
        "cost, all inspections by snooper truck ($)",
        "cost, drone-capable share by drone ($)",
        "cost, remainder by snooper truck ($)",
        "inspection cost savings ($)",
    ))
    passed = (
        want == (1337920, 112920, 668960, 556040)
        and all(v == float(w) for v, w in zip(values, want))
    )
    _report(
        4, passed,
        "inspection cost lines "
        + "/".join(f"{v:,.0f}" for v in values)
        + " vs exact 1,337,920/112,920/668,960/556,040",
    )


def test_05_social_cost_and_emission_split(factor_value):
    trace = ghg_trace(factor_value)
    scc_2022 = trace["social cost of CO2 ($/ton)"]
    gallons = trace["gallons burned by the ground fleet"]
    g_c = trace["CO2 emitted (tons)"] / gallons
    g_mn = trace["methane and nitrous oxide emitted (tons)"] / gallons
    share = g_c / (g_c + g_mn)
    passed = (
        abs(scc_2022 - 54.1059) <= 1e-4
        and abs(g_mn - 6.2669e-5) <= 1e-9
        and abs(share - 0.993) <= 1e-9
    )
    _report(
        5, passed,
        f"social cost 2022 {scc_2022:.4f}, non-CO2 {g_mn:.4e} t/gal, "
        f"CO2 share {share:.9f}",
    )


def _recovery_suite(simulate, order: ArimaOrder, window, pick) -> tuple[int, float, float, float]:
    start = time.perf_counter()
    estimates = []
    for seed in range(100):
        x = simulate(np.random.default_rng(seed))
        estimates.append(pick(fit_arima(x, order)))
    elapsed = time.perf_counter() - start
    hits = sum(window[0] <= e <= window[1] for e in estimates)
    return hits, min(estimates), max(estimates), elapsed


def test_06_parameter_recovery_suites():
    def ar1(rng):
        e = rng.normal(0.0, 1.0, 1000)
        x = np.empty(1000)
        x[0] = e[0]
        for t in range(1, 1000):
            x[t] = 0.7 * x[t - 1] + e[t]
        return x

    def ma1(rng):
        e = rng.normal(0.0, 1.0, 1001)
        return e[1:] + 0.5 * e[:-1]

    ar_hits, ar_lo, ar_hi, ar_time = _recovery_suite(
        ar1, ArimaOrder(1, 0, 0), (0.55, 0.85), lambda f: f.ar_coeffs[0]
    )
    ma_hits, ma_lo, ma_hi, ma_time = _recovery_suite(
        ma1, ArimaOrder(0, 0, 1), (0.35, 0.65), lambda f: f.ma_coeffs[0]
    )
    passed = (
        ar_hits >= 90 and ar_time < 30.0 and ma_hits >= 90 and ma_time < 30.0
    )
    _report(
        6, passed,
        f"AR(1): {ar_hits}/100 in [0.55, 0.85] (range [{ar_lo:.3f}, {ar_hi:.3f}]) "
        f"in {ar_time:.1f}s; MA(1): {ma_hits}/100 in [0.35, 0.65] "
        f"(range [{ma_lo:.3f}, {ma_hi:.3f}]) in {ma_time:.1f}s",
    )


def test_07_degenerate_order_forecast_shapes():
    walk = 100.0 + random_walk_path(1002, 120)
    rw_fit = fit_arima(walk, ArimaOrder(0, 1, 0))
    rw_band = forecast(rw_fit, walk, 6)
    flat = np.allclose(rw_band.mean, walk[-1], atol=1e-9)
    half = np.asarray(rw_band.upper) - np.asarray(rw_band.mean)
    ratio = half[3] / half[0]

    noise = 10.0 + white_noise_path(4, 120)
    wn_fit = fit_arima(noise, ArimaOrder(0, 0, 0))
    wn_band = forecast(wn_fit, noise, 6)
    at_mean = np.allclose(wn_band.mean, np.mean(noise), atol=1e-9)
    wn_half = np.asarray(wn_band.upper) - np.asarray(wn_band.mean)
    constant_width = np.allclose(wn_half, wn_half[0], atol=1e-12)

    passed = (
        flat and abs(ratio - 2.0) <= 1e-6 and at_mean and constant_width
    )
    _report(
        7, passed,
        f"random-walk forecast flat at last value: {flat}, "
        f"h4/h1 half-width {ratio:.8f}; white-noise forecast at mean: "
        f"{at_mean}, width constant: {constant_width}",
    )


def test_08_stationarity_decisions_against_oracle():
    lags = 5
    noise = white_noise_path(2, 200)
    walk = random_walk_path(1002, 200)
    noise_report = adf_test(noise, max_lag=lags)
    walk_report = adf_test(walk, max_lag=lags)
    noise_gap = abs(noise_report.statistic - adf_stat_bruteforce(noise, lags))
    walk_gap = abs(walk_report.statistic - adf_stat_bruteforce(walk, lags))

    x = np.asarray(noise) - np.mean(noise)
    p_gap = abs(ljung_box(x, 5).p_value - ljung_box(5e6 * x, 5).p_value)

    passed = (
        noise_report.reject_null
        and not walk_report.reject_null
        and noise_gap <= 1e-8
        and walk_gap <= 1e-8
        and p_gap <= 1e-12
    )
    _report(
        8, passed,
        f"white noise rejected ({noise_report.statistic:.4f}, oracle gap "
        f"{noise_gap:.1e}), random walk kept ({walk_report.statistic:.4f}, "
        f"oracle gap {walk_gap:.1e}), Ljung-Box scale drift {p_gap:.1e}",
    )


def test_09_ledger_properties_randomized(tmp_path):
    rng = np.random.default_rng(20260818)
    start = time.perf_counter()
    cases = 0
    for _ in range(200):
        factors = rng.choice(FACTOR_IDS, size=rng.integers(2, 10), replace=False)
        benefits = {}
        for factor_id in factors:
            mean = float(rng.normal(0.0, 1e6))
            spread = abs(float(rng.normal(0.0, 1e5)))
            benefits[factor_id] = BandValue(mean - spread, mean, mean + spread)
        capex = float(rng.uniform(0.0, 1e6))
        opex = float(rng.uniform(0.0, 1e5))
        result = AnnualResult(year=2022, benefits=benefits, capex=capex, opex=opex)
        npi = result.npi
        assert (npi.lower, npi.mean, npi.upper) == npi_band(benefits, capex, opex)

        want = sum(b.mean for b in benefits.values()) - capex - opex
        assert npi.mean == pytest.approx(want, rel=1e-9, abs=1e-6)
        assert npi.lower <= npi.mean <= npi.upper

        dropped_id = sorted(benefits)[0]
        kept = {k: v for k, v in benefits.items() if k != dropped_id}
        reduced = AnnualResult(year=2022, benefits=kept, capex=capex, opex=opex).npi
        assert npi.mean - reduced.mean == pytest.approx(
            benefits[dropped_id].mean, rel=1e-9, abs=1e-6
        )

        forward = band_sum([benefits[k] for k in sorted(benefits)])
        backward = band_sum([benefits[k] for k in sorted(benefits, reverse=True)])
        assert forward == pytest.approx(backward, rel=1e-12)

        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(first, [result])
        write_results_csv(second, [result])
        assert first.read_bytes() == second.read_bytes()
        cases += 1
    elapsed = time.perf_counter() - start
    passed = cases >= 200 and elapsed < 60.0
    _report(
        9, passed,
        f"{cases} randomized ledgers held additivity, ordering, permutation "
        f"invariance, and byte-identical writes in {elapsed:.1f}s",
    )


def test_10_default_scenario_npi_grows_every_year(default_evaluation):
    means = [r.npi.mean for r in default_evaluation.annual]
    years = [r.year for r in default_evaluation.annual]
    strictly_increasing = all(b > a for a, b in zip(means, means[1:]))
    passed = strictly_increasing and years == list(range(2022, 2033))
    _report(
        10, passed,
        f"mean net gain {means[0]:,.0f} ({years[0]}) rising to "
        f"{means[-1]:,.0f} ({years[-1]}), strictly increasing: "
        f"{strictly_increasing}",
    )
