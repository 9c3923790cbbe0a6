"""Walk through the forecasting stack on a synthetic ridership series.

The script builds a random walk with drift (a common shape for adoption
curves), shows how the unit-root test reacts before and after differencing,
lets the automatic pipeline pick a model, and prints the resulting
five-year band.

Run with: python3 demos/forecast_walkthrough.py
"""
from __future__ import annotations

import numpy as np

from aamcba.forecast.arima import difference
from aamcba.forecast.pipeline import auto_pipeline
from aamcba.forecast.stattests import adf_test
from aamcba.ingest import TimeSeries


def main() -> None:
    rng = np.random.default_rng(14)
    steps = rng.normal(120.0, 300.0, 30)
    values = 25_000.0 + np.cumsum(steps)
    series = TimeSeries(
        name="ridership",
        years=tuple(range(1993, 2023)),
        values=tuple(float(v) for v in values),
    )

    print("== unit-root checks ==")
    level = adf_test(series.values)
    print(
        f"levels:      statistic {level.statistic:+.3f}, "
        f"p={level.p_value:.3f}, stationary: {level.reject_null}"
    )
    diffed = adf_test(difference(series.values, 1))
    print(
        f"differences: statistic {diffed.statistic:+.3f}, "
        f"p={diffed.p_value:.3f}, stationary: {diffed.reject_null}"
    )

    print()
    print("== automatic model selection ==")
    result = auto_pipeline(series, horizon=5, include_mean_when_differenced=True)
    order = result.fit.order
    print(f"chosen order: ({order.p}, {order.d}, {order.q})")
    print(f"estimated drift per year: {result.fit.intercept:,.1f} (true value 120.0)")
    for report in result.diagnostics:
        print(
            f"  {report.name}: statistic {report.statistic:+.3f}, "
            f"p={report.p_value:.3f}"
        )
    print(f"residuals look like white noise: {result.adequate}")

    print()
    print("== five-year forecast band (95%) ==")
    band = result.band
    print(f"{'year':>6} {'lower':>12} {'mean':>12} {'upper':>12}")
    for year, lo, mid, hi in zip(band.years, band.lower, band.mean, band.upper):
        print(f"{year:>6} {lo:>12,.0f} {mid:>12,.0f} {hi:>12,.0f}")


if __name__ == "__main__":
    main()
