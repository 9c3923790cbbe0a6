"""From-scratch ARIMA forecasting: stationarity testing, order selection,
CSS estimation, residual diagnostics, and banded forecasts."""
from .arima import (
    ArimaOrder,
    FittedArima,
    ForecastBand,
    difference,
    fit_arima,
    forecast,
    integrate,
    psi_weights,
)
from .common import CI_Z, MIN_OBS, ForecastError
from .correlation import acf, bartlett_bound, pacf
from .pipeline import PipelineResult, auto_pipeline
from .stattests import TestReport, adf_test, default_adf_lag, ljung_box

__all__ = [
    "ArimaOrder",
    "FittedArima",
    "ForecastBand",
    "PipelineResult",
    "TestReport",
    "ForecastError",
    "CI_Z",
    "MIN_OBS",
    "acf",
    "adf_test",
    "auto_pipeline",
    "bartlett_bound",
    "default_adf_lag",
    "difference",
    "fit_arima",
    "forecast",
    "integrate",
    "ljung_box",
    "pacf",
    "psi_weights",
]
