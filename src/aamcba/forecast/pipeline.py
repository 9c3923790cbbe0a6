"""End-to-end order selection, fitting, and adequacy checking.

Mirrors a standard Box-Jenkins loop: difference until an ADF test rejects
the unit root (d capped at 2), read p and q off the last PACF/ACF spike
outside the Bartlett band, fit by CSS, then Ljung-Box the residuals. If the
residuals fail the whiteness test the order is escalated (q+1, then p+1)
as far as the series' length allows, and if nothing passes the best fit
is returned flagged inadequate.
"""
from __future__ import annotations

from .arima import ArimaOrder, FittedArima, ForecastBand, fit_arima, forecast
from .arima import MAX_D, MAX_P, MAX_Q, MIN_OBS
from .common import ForecastError
from .correlation import acf, bartlett_bound, pacf
from .stattests import ALPHA, TestReport, adf_test, ljung_box

_SELECTION_LAGS = 10


class PipelineResult:
    __slots__ = ("fit", "band", "diagnostics", "adequate")

    def __init__(
        self,
        fit: FittedArima,
        band: ForecastBand,
        diagnostics: tuple[TestReport, ...],
        adequate: bool,
    ) -> None:
        self.fit = fit
        self.band = band
        self.diagnostics = diagnostics
        self.adequate = adequate


def _last_spike(values: list[float], bound: float) -> int:
    """Index of the last entry (lag >= 1) outside the band, else 0."""
    spikes = [k for k in range(1, len(values)) if abs(values[k]) > bound]
    return spikes[-1] if spikes else 0


def _whiteness_lags(n_resid: int, n_coeffs: int) -> int:
    lags = min(10, max(n_resid // 5, 1))
    return max(lags, n_coeffs + 1)


def auto_pipeline(
    series,
    horizon: int,
    pinned: ArimaOrder | None = None,
    include_mean_when_differenced: bool = False,
) -> PipelineResult:
    """Select, fit, check, and forecast one series.

    ``pinned`` short-circuits selection and escalation: the given order is
    fitted as-is and only its whiteness test is reported. Diagnostics list
    every ADF round and every Ljung-Box check in execution order.
    ``series`` is a TimeSeries, whose years carry into the band, or a plain
    sequence, whose band years count from 1.
    """
    if hasattr(series, "years"):
        values, last_year, label = series.values, series.years[-1], series.name
    else:
        values, last_year, label = series, 0, "series"
    values = [float(v) for v in values]
    if len(values) < MIN_OBS:
        raise ForecastError(
            f"series '{label}' has {len(values)} observations; "
            f"forecasting needs at least {MIN_OBS}"
        )

    diagnostics: list[TestReport] = []

    if pinned is not None:
        candidates = [pinned]
        d = pinned.d
    else:
        d = 0
        work = values
        while True:
            report = adf_test(work, name=f"adf(d={d})")
            diagnostics.append(report)
            if report.reject_null or d == MAX_D:
                break
            d += 1
            work = [b - a for a, b in zip(work, work[1:])]

        nw = len(work)
        bound = bartlett_bound(nw)
        lags = min(_SELECTION_LAGS, nw // 2)
        rho = acf(work, lags)
        p = min(_last_spike(pacf(work, lags, rho), bound), MAX_P)
        q = min(_last_spike(rho, bound), MAX_Q)
        # keep a sane estimation budget on short series
        while len(values) < ArimaOrder(p, d, q).min_obs:
            if q >= p:
                q -= 1
            else:
                p -= 1
        candidates = [ArimaOrder(p, d, q)]
        if q < MAX_Q:
            candidates.append(ArimaOrder(p, d, q + 1))
            if p < MAX_P:
                candidates.append(ArimaOrder(p + 1, d, q + 1))
        elif p < MAX_P:
            candidates.append(ArimaOrder(p + 1, d, q))
        # an escalated order is dropped if the budget cannot hold it
        candidates[1:] = [c for c in candidates[1:] if c.min_obs <= len(values)]

    include_mean = None
    if include_mean_when_differenced and d > 0:
        include_mean = True
    # A no-mean (0,d,0) fit's residuals are the differenced series whose ACF
    # selection took, and acf entries do not depend on nlags.
    reuse_rho = pinned is None and d > 0 and include_mean is None

    best_fit: FittedArima | None = None
    best_p = -1.0
    adequate = False
    for order in candidates:
        fit = fit_arima(values, order, include_mean=include_mean)
        lags = _whiteness_lags(len(fit.residuals), order.n_coeffs)
        check = ljung_box(
            fit.residuals,
            lags,
            fitted_params=order.n_coeffs,
            name=f"ljung_box(p={order.p},q={order.q})",
            rho=rho[:lags + 1] if reuse_rho and order.n_coeffs == 0 else None,
        )
        diagnostics.append(check)
        if check.p_value > best_p:
            best_p = check.p_value
            best_fit = fit
        if check.p_value > ALPHA:
            adequate = True
            best_fit = fit
            break

    assert best_fit is not None
    band = forecast(best_fit, values, horizon, last_year=last_year)
    return PipelineResult(
        fit=best_fit,
        band=band,
        diagnostics=tuple(diagnostics),
        adequate=adequate,
    )
