"""Unit-root and residual-whiteness tests.

Both run on Python floats, and every sum is ``math.fsum``, so the
statistics depend on neither the BLAS build nor the summation order.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right

from .common import ForecastError, dot
from .correlation import acf

# Quantiles of the Dickey-Fuller t distribution (regression with intercept),
# simulated with 400k random-walk paths of length 1000 (seed 20260818). The
# 1%/5%/10% entries agree with the published -3.43/-2.86/-2.57 to ~0.01.
_DF_PROBS = (
    0.001, 0.005, 0.010, 0.025, 0.050, 0.100, 0.200, 0.300, 0.400,
    0.500, 0.600, 0.700, 0.800, 0.900, 0.950, 0.975, 0.990, 0.999,
)
_DF_QUANTILES = (
    -4.0850, -3.6425, -3.4229, -3.1189, -2.8614, -2.5658, -2.2163,
    -1.9680, -1.7586, -1.5629, -1.3649, -1.1413, -0.8616, -0.4396,
    -0.0745, 0.2415, 0.6108, 1.3854,
)

ALPHA = 0.05

_SINGULAR = "degenerate ADF regression (singular design matrix)"


class TestReport:
    """Outcome of one hypothesis test at the 5% level."""

    __slots__ = ("name", "statistic", "p_value", "lags_used")

    def __init__(
        self, name: str, statistic: float, p_value: float, lags_used: int
    ) -> None:
        self.name = name
        self.statistic = statistic
        self.p_value = p_value
        self.lags_used = lags_used

    @property
    def reject_null(self) -> bool:
        return self.p_value <= ALPHA

    def _fields(self) -> tuple:
        return self.name, self.statistic, self.p_value, self.lags_used

    def __eq__(self, other: object) -> bool:
        if type(other) is not TestReport:
            return NotImplemented
        return self._fields() == other._fields()


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
    return math.floor((n - 1) ** (1.0 / 3.0))


def _df_p_value(statistic: float) -> float:
    """Linear interpolation in the Dickey-Fuller table, clamped at both ends.

    The formula is np.interp's, so the p-value has the same bits as
    ``np.interp(statistic, _DF_QUANTILES, _DF_PROBS)``.
    """
    xp, fp = _DF_QUANTILES, _DF_PROBS
    if statistic <= xp[0]:
        return fp[0]
    if statistic >= xp[-1]:
        return fp[-1]
    i = bisect_right(xp, statistic) - 1
    return (fp[i + 1] - fp[i]) / (xp[i + 1] - xp[i]) * (statistic - xp[i]) + fp[i]


def _forward(chol: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve L v = rhs for lower-triangular L by forward substitution."""
    v: list[float] = []
    for row, r in zip(chol, rhs):
        v.append((r - dot(row, v)) / row[len(v)])
    return v


def adf_test(values, max_lag: int | None = None, name: str = "adf") -> TestReport:
    """Augmented Dickey-Fuller test (regression with intercept, no trend).

    Null hypothesis: the series has a unit root. The regression is
    dy_t = c + g*y_{t-1} + sum_j d_j*dy_{t-j} + e_t and the statistic is the
    t-ratio of g. P-values interpolate the embedded quantile table and are
    clamped to [0.001, 0.999] outside its range.

    The least-squares solve centres every regressor and the response, which
    drops the intercept (Frisch-Waugh-Lovell), and takes the Cholesky factor
    L of the centred Gram matrix. The variance of g is s^2 times the squared
    norm of column 0 of L^-1, and the residual sum of squares comes from the
    explicit residuals, which stay accurate on a near-perfect fit.
    """
    y = [float(v) for v in values]
    n = len(y)
    if max_lag is None:
        max_lag = default_adf_lag(n)
    if max_lag < 0:
        raise ForecastError(f"max_lag must be >= 0, got {max_lag}")
    dy = [b - a for a, b in zip(y, y[1:])]
    rows = len(dy) - max_lag
    nparams = 2 + max_lag
    if rows < nparams + 2:
        raise ForecastError(
            f"series of length {n} is too short for an ADF test "
            f"with {max_lag} lags"
        )
    if not any(dy):
        raise ForecastError("series is constant; ADF test undefined")

    columns = [y[max_lag:n - 1]] + [
        dy[max_lag - j:len(dy) - j] for j in range(1, max_lag + 1)
    ]
    # A regressor whose centred sum of squares is at most rows*eps of its raw
    # one (the centred one plus rows*mean^2) is collinear with the intercept
    # at working precision.
    tiny = rows * sys.float_info.epsilon
    xs = []
    gram_diag = []
    for col in columns:
        mean = math.fsum(col) / rows
        centred = [v - mean for v in col]
        ss = dot(centred, centred)
        if ss <= tiny * (ss + rows * mean * mean):
            raise ForecastError(_SINGULAR)
        xs.append(centred)
        gram_diag.append(ss)
    b_mean = math.fsum(dy[max_lag:]) / rows
    b = [v - b_mean for v in dy[max_lag:]]

    chol: list[list[float]] = []
    for i, ss in enumerate(gram_diag):
        row: list[float] = []
        for j in range(i):
            row.append((dot(xs[i], xs[j]) - dot(row, chol[j])) / chol[j][j])
        pivot = ss - dot(row, row)
        if not pivot > 0.0:
            raise ForecastError(_SINGULAR)
        row.append(math.sqrt(pivot))
        chol.append(row)
    # L L' coef = X'b by forward then back substitution
    u = _forward(chol, [dot(x, b) for x in xs])
    k = len(xs)
    coef = [0.0] * k
    for i in reversed(range(k)):
        tail = math.fsum([chol[m][i] * coef[m] for m in range(i + 1, k)])
        coef[i] = (u[i] - tail) / chol[i][i]
    resid = b
    for c, x in zip(coef, xs):
        resid = [r - c * v for r, v in zip(resid, x)]
    s2 = dot(resid, resid) / (rows - nparams)
    inv0 = _forward(chol, [1.0] + [0.0] * (k - 1))
    variance = s2 * dot(inv0, inv0)
    # A perfect fit leaves no residual variance to scale the t-ratio by.
    if not (math.isfinite(variance) and variance > 0.0):
        raise ForecastError(
            f"degenerate ADF regression (coefficient variance {variance!r})"
        )
    statistic = coef[0] / math.sqrt(variance)
    p_value = _df_p_value(statistic)
    return TestReport(
        name=name,
        statistic=statistic,
        p_value=p_value,
        lags_used=max_lag,
    )


def ljung_box(
    residuals,
    lags: int,
    fitted_params: int = 0,
    name: str = "ljung_box",
    rho: list[float] | None = None,
) -> TestReport:
    """Ljung-Box whiteness test on residuals.

    Null hypothesis: residuals are white noise. Degrees of freedom are
    lags - fitted_params, so lags must exceed the number of fitted ARMA
    coefficients. ``rho`` is ``acf(residuals, lags)`` when the caller
    already has it.
    """
    n = len(residuals)
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
    if rho is None:
        rho = acf(residuals, lags)
    statistic = n * (n + 2) * math.fsum(
        [rho[k] * rho[k] / (n - k) for k in range(1, lags + 1)]
    )
    dof = lags - fitted_params
    p_value = chi2_sf(statistic, dof)
    return TestReport(
        name=name,
        statistic=statistic,
        p_value=p_value,
        lags_used=lags,
    )
