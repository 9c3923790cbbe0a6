"""Unit-root and residual-whiteness tests."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import ForecastError
from .correlation import acf

# Quantiles of the Dickey-Fuller t distribution (regression with intercept),
# simulated with 400k random-walk paths of length 1000 (seed 20260818). The
# 1%/5%/10% entries agree with the published -3.43/-2.86/-2.57 to ~0.01.
_DF_PROBS = np.array([
    0.001, 0.005, 0.010, 0.025, 0.050, 0.100, 0.200, 0.300, 0.400,
    0.500, 0.600, 0.700, 0.800, 0.900, 0.950, 0.975, 0.990, 0.999,
])
_DF_QUANTILES = np.array([
    -4.0850, -3.6425, -3.4229, -3.1189, -2.8614, -2.5658, -2.2163,
    -1.9680, -1.7586, -1.5629, -1.3649, -1.1413, -0.8616, -0.4396,
    -0.0745, 0.2415, 0.6108, 1.3854,
])

ALPHA = 0.05


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test at the 5% level."""

    name: str
    statistic: float
    p_value: float
    lags_used: int
    reject_null: bool

    def __post_init__(self) -> None:
        if not (self.reject_null == (self.p_value <= ALPHA)):
            raise ValueError(
                f"{self.name}: reject_null={self.reject_null} inconsistent "
                f"with p={self.p_value}"
            )


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x), x >= 0, of a chi-square variable with integer ``dof``.

    Closed forms for integer degrees of freedom (Abramowitz & Stegun
    26.4.4 for odd, 26.4.5 for even), with h = x/2:

    - odd:  erfc(sqrt(h)) + sqrt(2/pi) * exp(-h) * sum_{r=1}^{(dof-1)/2}
      x^(r-1/2) / (1*3*...*(2r-1))
    - even: exp(-h) * sum_{r=0}^{dof/2-1} h^r / r!

    Every term is positive, so nothing cancels; Ljung-Box degrees of
    freedom are always integers.
    """
    if dof < 1:
        raise ForecastError(f"chi-square degrees of freedom must be >= 1, got {dof}")
    half = 0.5 * x
    if dof % 2 == 0:
        term = total = 1.0
        for r in range(1, dof // 2):
            term *= half / r
            total += term
        return math.exp(-half) * total
    term = math.sqrt(x)
    total = 0.0
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return math.erfc(math.sqrt(half)) + math.sqrt(2.0 / math.pi) * math.exp(-half) * total


def default_adf_lag(n: int) -> int:
    """Augmentation lag floor((n-1)^(1/3)) used when none is given."""
    return int(np.floor((n - 1) ** (1.0 / 3.0)))


def adf_test(values, max_lag: int | None = None, name: str = "adf") -> TestReport:
    """Augmented Dickey-Fuller test (regression with intercept, no trend).

    Null hypothesis: the series has a unit root. The regression is
    dy_t = c + g*y_{t-1} + sum_j d_j*dy_{t-j} + e_t and the statistic is the
    t-ratio of g. P-values interpolate the embedded quantile table and are
    clamped to [0.001, 0.999] outside its range.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if max_lag is None:
        max_lag = default_adf_lag(n)
    if max_lag < 0:
        raise ForecastError(f"max_lag must be >= 0, got {max_lag}")
    dy = np.diff(y)
    rows = dy.size - max_lag
    nparams = 2 + max_lag
    if rows < nparams + 2:
        raise ForecastError(
            f"series of length {n} is too short for an ADF test "
            f"with {max_lag} lags"
        )
    if np.ptp(y) == 0.0:
        raise ForecastError("series is constant; ADF test undefined")

    X = np.empty((rows, nparams))
    X[:, 0] = 1.0
    X[:, 1] = y[max_lag:n - 1]
    for j in range(1, max_lag + 1):
        X[:, 1 + j] = dy[max_lag - j:dy.size - j]
    b = dy[max_lag:]
    coef, *_ = np.linalg.lstsq(X, b, rcond=None)
    resid = b - X @ coef
    s2 = float(resid @ resid) / (rows - nparams)
    try:
        xtx_inv = np.linalg.inv(X.T @ X)
    except np.linalg.LinAlgError:
        raise ForecastError(
            "degenerate ADF regression (singular design matrix)"
        ) from None
    variance = float(s2 * xtx_inv[1, 1])
    # A nearly singular design (a series linear up to rounding) can leave
    # the inverse's diagonal zero, negative or not finite.
    if not (math.isfinite(variance) and variance > 0.0):
        raise ForecastError(
            f"degenerate ADF regression (coefficient variance {variance!r})"
        )
    se = np.sqrt(variance)
    statistic = float(coef[1] / se)
    p_value = float(np.interp(statistic, _DF_QUANTILES, _DF_PROBS))
    return TestReport(
        name=name,
        statistic=statistic,
        p_value=p_value,
        lags_used=max_lag,
        reject_null=p_value <= ALPHA,
    )


def ljung_box(
    residuals, lags: int, fitted_params: int = 0, name: str = "ljung_box"
) -> TestReport:
    """Ljung-Box whiteness test on residuals.

    Null hypothesis: residuals are white noise. Degrees of freedom are
    lags - fitted_params, so lags must exceed the number of fitted ARMA
    coefficients.
    """
    r = np.asarray(residuals, dtype=float)
    n = r.size
    if lags < 1:
        raise ForecastError(f"lags must be >= 1, got {lags}")
    if lags >= n:
        raise ForecastError(f"lags={lags} needs more than {lags} residuals, got {n}")
    if fitted_params < 0:
        raise ForecastError(f"fitted_params must be >= 0, got {fitted_params}")
    if lags <= fitted_params:
        raise ForecastError(
            f"lags ({lags}) must exceed fitted parameters ({fitted_params}) "
            "for a valid chi-square reference"
        )
    rho = acf(r, lags)
    k = np.arange(1, lags + 1)
    statistic = float(n * (n + 2) * np.sum(rho[1:] ** 2 / (n - k)))
    dof = lags - fitted_params
    p_value = chi2_sf(statistic, dof)
    return TestReport(
        name=name,
        statistic=statistic,
        p_value=p_value,
        lags_used=lags,
        reject_null=p_value <= ALPHA,
    )
