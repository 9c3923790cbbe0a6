"""Unit-root and whiteness tests against frozen references and a brute-force oracle.

The ADF reference statistics were recorded once from an established
statistical library run on the exact arrays produced by the deterministic
generator in oracles.py; the same arrays also go through the explicit
normal-equations oracle committed there.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy import special, stats

from aamcba.forecast import ForecastError
from aamcba.forecast import stattests
from aamcba.forecast.correlation import acf
from aamcba.forecast.stattests import adf_test, chi2_sf, default_adf_lag, ljung_box

from oracles import (
    adf_stat_bruteforce,
    adf_stat_exact,
    random_walk_path,
    white_noise_path,
)
from test_correlation import X_SERIES

ADF_LAGS = 5
# Frozen third-party reference statistics for the two oracle arrays.
ADF_STAT_WHITE_NOISE = -4.923497234236309
ADF_STAT_RANDOM_WALK = -1.5822290418277156


def test_default_adf_lag():
    assert default_adf_lag(68) == 4
    assert default_adf_lag(200) == 5


def test_adf_rejects_white_noise():
    y = white_noise_path(2, 200)
    report = adf_test(y, max_lag=ADF_LAGS)
    assert report.reject_null
    assert report.p_value == 0.001
    assert report.lags_used == ADF_LAGS
    assert report.statistic == pytest.approx(ADF_STAT_WHITE_NOISE, abs=1e-8)
    assert report.statistic == pytest.approx(
        adf_stat_bruteforce(y, ADF_LAGS), abs=1e-10
    )


def test_adf_keeps_random_walk():
    y = random_walk_path(1002, 200)
    report = adf_test(y, max_lag=ADF_LAGS)
    assert not report.reject_null
    assert report.p_value == pytest.approx(0.4901231263016258, abs=1e-12)
    assert report.statistic == pytest.approx(ADF_STAT_RANDOM_WALK, abs=1e-8)
    assert report.statistic == pytest.approx(
        adf_stat_bruteforce(y, ADF_LAGS), abs=1e-10
    )


def test_adf_p_value_clamps_high():
    y = np.power(1.2, np.arange(60.0))
    report = adf_test(y, max_lag=0)
    assert report.p_value == 0.999
    assert not report.reject_null


def test_adf_default_lag_applied():
    y = white_noise_path(2, 200)
    report = adf_test(y)
    assert report.lags_used == default_adf_lag(200)


def test_adf_error_branches():
    with pytest.raises(ForecastError, match="too short for an ADF test"):
        adf_test(white_noise_path(2, 8), max_lag=5)
    with pytest.raises(ForecastError, match="constant; ADF test undefined"):
        adf_test(np.full(50, 3.0))
    with pytest.raises(ForecastError, match="max_lag must be >= 0"):
        adf_test(white_noise_path(2, 50), max_lag=-1)


def test_adf_is_accurate_to_1e13_on_the_bundled_series(default_scenario):
    # Exact least squares in Fractions on the same doubles, at every
    # differencing order the pipeline can reach.
    worst = 0.0
    for series in default_scenario.historical_series.values():
        x = list(series.values)
        for d in range(3):
            got = adf_test(x).statistic
            exact = adf_stat_exact(x, default_adf_lag(len(x)))
            worst = max(worst, abs(got - exact) / abs(exact))
            x = [b - a for a, b in zip(x, x[1:])]
    assert worst <= 1e-13


def test_df_p_value_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(3)
    knots = np.asarray(stattests._DF_QUANTILES)
    stats_ = np.concatenate([
        rng.uniform(-5.0, 2.5, 9964), knots, np.nextafter(knots, -np.inf),
    ])
    assert stats_.size == 10_000
    for x in stats_.tolist():
        expected = float(np.interp(x, knots, stattests._DF_PROBS))
        assert stattests._df_p_value(x) == expected, x


def test_adf_exactly_linear_series_is_degenerate():
    # constant first differences: the lagged-difference columns repeat the
    # intercept, so the regression's normal matrix is singular
    with pytest.raises(ForecastError, match="degenerate ADF regression"):
        adf_test(30000.0 + 100.0 * np.arange(31))


LJUNG_BOX_REFERENCE = {
    # lags -> (statistic, p_value) on X_SERIES, frozen from a library run.
    1: (0.022445449959871275, 0.8809081633641912),
    3: (2.5280064437676812, 0.4702509474345913),
    5: (3.7489944025045427, 0.5860900475169546),
}


@pytest.mark.parametrize("lags", sorted(LJUNG_BOX_REFERENCE))
def test_ljung_box_matches_reference(lags):
    stat, p = LJUNG_BOX_REFERENCE[lags]
    report = ljung_box(X_SERIES, lags)
    assert report.statistic == pytest.approx(stat, abs=1e-12)
    assert report.p_value == pytest.approx(p, abs=1e-12)
    assert not report.reject_null
    # an ACF the caller already took, to more lags, gives the same report
    assert ljung_box(X_SERIES, lags, rho=acf(X_SERIES, 8)[:lags + 1]) == report


def test_ljung_box_scale_invariance():
    x = np.asarray(X_SERIES) - np.mean(X_SERIES)
    a = ljung_box(x, 5)
    b = ljung_box(5e6 * x, 5)
    assert abs(a.p_value - b.p_value) < 1e-12
    assert abs(a.statistic - b.statistic) < 1e-9 * abs(a.statistic)


def test_ljung_box_fitted_params_shift_dof():
    full = ljung_box(X_SERIES, 5, fitted_params=0)
    reduced = ljung_box(X_SERIES, 5, fitted_params=2)
    assert reduced.statistic == full.statistic
    assert reduced.p_value == pytest.approx(
        float(stats.chi2.sf(full.statistic, 3)), abs=1e-15
    )


def test_ljung_box_error_branches():
    with pytest.raises(ForecastError, match="lags must be >= 1"):
        ljung_box(X_SERIES, 0)
    with pytest.raises(ForecastError, match="needs more than"):
        ljung_box(X_SERIES[:4], 4)
    with pytest.raises(ForecastError, match="fitted_params must be >= 0"):
        ljung_box(X_SERIES, 3, fitted_params=-1)
    with pytest.raises(ForecastError, match="must exceed fitted parameters"):
        ljung_box(X_SERIES, 3, fitted_params=3)


@pytest.mark.parametrize("dof", range(1, 12))
def test_chi2_sf_matches_scipy(dof):
    # from the origin through the bulk into the far tail (p ~ 1e-290)
    xs = np.concatenate([
        [0.0, 1e-12, 1e-6], np.linspace(1e-3, 60.0, 2001), np.geomspace(60.0, 1300.0, 200)
    ])
    for x in xs:
        ref = float(special.chdtrc(dof, x))
        assert chi2_sf(float(x), dof) == pytest.approx(ref, rel=1e-12, abs=0.0), x


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(2.0, 2) == pytest.approx(np.exp(-1.0), rel=1e-15)
    with pytest.raises(ForecastError, match="degrees of freedom"):
        chi2_sf(1.0, 0)


def test_adf_nearly_singular_regression_is_degenerate():
    # Differences of a series linear up to rounding: constant but for the
    # last bits, so the inverse normal matrix has a negative diagonal.
    steps = np.diff([30000.1 + 0.1 * i for i in range(31)])
    with pytest.raises(ForecastError, match="degenerate ADF regression"):
        adf_test(steps)
