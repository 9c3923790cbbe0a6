"""From-scratch ARIMA forecasting: stationarity testing, order selection,
CSS estimation, residual diagnostics, and banded forecasts.

The package exports what the rest of aamcba uses; everything else is
imported from its submodule."""
from .arima import ArimaOrder
from .common import ForecastError
from .pipeline import PipelineResult, auto_pipeline

__all__ = ["ArimaOrder", "ForecastError", "PipelineResult", "auto_pipeline"]
