"""Automatic order selection and adequacy checking."""
from __future__ import annotations

import numpy as np
import pytest

from aamcba.forecast import ForecastError
from aamcba.forecast.arima import MIN_OBS, ArimaOrder
from aamcba.forecast.correlation import acf, bartlett_bound, pacf
from aamcba.forecast.pipeline import _last_spike, auto_pipeline
from aamcba.ingest import TimeSeries

from oracles import random_walk_path, white_noise_path


def test_white_noise_stays_undifferenced():
    # seed 4: a draw whose correlogram is clean, so selection stops at (0,0,0)
    x = 10.0 + white_noise_path(4, 200)
    result = auto_pipeline(x, 5)
    assert result.fit.order == ArimaOrder(0, 0, 0)
    assert result.adequate
    assert result.diagnostics[0].name == "adf(d=0)"
    assert result.diagnostics[0].reject_null


def test_spikes_beyond_max_order_saturate_and_get_flagged():
    # A lag-8 seasonal AR: its ACF and PACF spike at lag 8, so selection
    # saturates at (5,0,5) with no escalation room, and no order up to
    # (5,0,5) whitens it within the ten Ljung-Box lags. The result must be
    # flagged rather than silently accepted.
    x = white_noise_path(2, 200)
    for t in range(8, x.size):
        x[t] += 0.6 * x[t - 8]
    result = auto_pipeline(10.0 + x, 5)
    assert result.fit.order == ArimaOrder(5, 0, 5)
    assert [r.name for r in result.diagnostics] == ["adf(d=0)", "ljung_box(p=5,q=5)"]
    assert not result.adequate


def test_random_walk_is_differenced_once():
    x = 100.0 + random_walk_path(1002, 200)
    result = auto_pipeline(x, 5)
    assert result.fit.order.d == 1
    assert result.adequate
    names = [r.name for r in result.diagnostics]
    assert names[0] == "adf(d=0)"
    assert names[1] == "adf(d=1)"


def test_band_covers_the_horizon():
    x = 100.0 + random_walk_path(1002, 120)
    result = auto_pipeline(x, 7)
    assert len(result.band.years) == 7
    assert result.band.years == tuple(range(1, 8))


def test_pinned_order_short_circuits_selection():
    x = 100.0 + random_walk_path(1002, 200)
    result = auto_pipeline(x, 3, pinned=ArimaOrder(0, 1, 0))
    assert result.fit.order == ArimaOrder(0, 1, 0)
    assert all(r.name.startswith("ljung_box") for r in result.diagnostics)
    assert len(result.diagnostics) == 1


def test_pinned_wrong_order_is_flagged_inadequate():
    rng = np.random.default_rng(4)
    e = rng.normal(0.0, 1.0, 400)
    x = np.empty(400)
    x[0], x[1] = e[0], e[1]
    for t in range(2, 400):
        x[t] = 1.2 * x[t - 1] - 0.5 * x[t - 2] + e[t]
    result = auto_pipeline(x, 3, pinned=ArimaOrder(0, 0, 0))
    assert not result.adequate
    assert result.fit.order == ArimaOrder(0, 0, 0)


def test_auto_escalation_reaches_an_adequate_order():
    rng = np.random.default_rng(4)
    e = rng.normal(0.0, 1.0, 400)
    x = np.empty(400)
    x[0], x[1] = e[0], e[1]
    for t in range(2, 400):
        x[t] = 1.2 * x[t - 1] - 0.5 * x[t - 2] + e[t]
    result = auto_pipeline(x, 3)
    assert result.adequate
    assert result.fit.order.p + result.fit.order.q >= 1


def test_drift_handling_toggle():
    rng = np.random.default_rng(20)
    x = 1000.0 + np.cumsum(rng.normal(5.0, 1.0, 150))
    pinned = ArimaOrder(0, 1, 0)
    plain = auto_pipeline(x, 3, pinned=pinned)
    assert plain.fit.intercept == 0.0
    with_drift = auto_pipeline(
        x, 3, pinned=pinned, include_mean_when_differenced=True
    )
    assert with_drift.fit.intercept == pytest.approx(5.0, abs=0.5)
    assert with_drift.band.mean[-1] > plain.band.mean[-1]


def _processes(seed, n: int) -> dict[str, np.ndarray]:
    """Four n-point paths from the same normals, numpy's default_rng(seed):
    white noise, a random walk, an I(2) path and an ARMA(1,1) path (phi
    0.6, theta 0.5)."""
    e = np.random.default_rng(seed).normal(0.0, 1.0, n)
    arma = np.empty(n)
    arma[0] = e[0]
    for t in range(1, n):
        arma[t] = 0.6 * arma[t - 1] + e[t] + 0.5 * e[t - 1]
    return {"white noise": e, "random walk": np.cumsum(e),
            "I(2)": np.cumsum(np.cumsum(e)), "ARMA(1,1)": arma}


def test_selection_trims_the_order_to_the_estimation_budget():
    # A 12-point ARMA(1,1) path, stationary at d = 0, whose last PACF and ACF
    # spikes read (2,0,3). Selection keeps p + q + 10 points per fit, so on
    # twelve q and then p are cut to (1,0,1), which passes the whiteness check.
    x = list(10.0 + _processes(173, 12)["ARMA(1,1)"])
    rho, bound = acf(x, 6), bartlett_bound(12)
    assert (_last_spike(pacf(x, 6, rho), bound), _last_spike(rho, bound)) == (2, 3)
    result = auto_pipeline(x, 3)
    assert [r.name for r in result.diagnostics] == ["adf(d=0)", "ljung_box(p=1,q=1)"]
    assert result.fit.order == ArimaOrder(1, 0, 1)


def test_escalation_stays_within_the_estimation_budget():
    # On twelve points a fit of p + q coefficients needs p + q + 10
    # differenced points. Escalating past that made fit_arima raise on 16 of
    # these 200 paths, for instance "10 differenced observations are too few
    # for order (0,2,1); need 11" on seed 0; the pipeline must not escalate
    # to an order it cannot fit.
    for seed in range(200):
        x = _processes(seed, 12)["ARMA(1,1)"]
        assert len(auto_pipeline(list(10.0 + x), 3).band.mean) == 3, seed


def test_every_series_from_the_floor_up_is_forecast():
    # MIN_OBS is the floor the pipeline states: every series that long gets
    # a forecast, adequate or not. Below it the floor is named, not a fit
    # ("too few for order") or an ADF round ("too short for an ADF test")
    # that fails for lack of points.
    # Each length draws its own normals; from one seed alone, the paths
    # would be prefixes of each other.
    assert MIN_OBS == 12
    for n in range(8, 41):
        for kind, x in _processes([0, n], n).items():
            if n < MIN_OBS:
                with pytest.raises(ForecastError, match=(
                    f"^series 'series' has {n} observations; "
                    "forecasting needs at least 12$"
                )):
                    auto_pipeline(list(10.0 + x), 3)
            else:
                assert len(auto_pipeline(list(10.0 + x), 3).band.mean) == 3, (kind, n)


def test_short_series_raises_with_label():
    short = TimeSeries("tiny", (2000, 2001, 2002), (1.0, 2.0, 3.0))
    with pytest.raises(ForecastError, match="series 'tiny' has 3 observations"):
        auto_pipeline(short, 2)


def test_series_years_carry_into_the_band():
    values = 100.0 + random_walk_path(1002, 40)
    series = TimeSeries("walk", tuple(range(1982, 2022)), tuple(values))
    result = auto_pipeline(series, 4)
    assert result.band.years == (2022, 2023, 2024, 2025)
