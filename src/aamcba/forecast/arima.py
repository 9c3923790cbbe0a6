"""ARIMA estimation and forecasting.

Fitting minimizes the conditional sum of squared one-step errors (CSS):
residuals start at t=p on the differenced scale with presample errors set
to zero. MA terms enter as theta(B) = 1 + theta_1 B + ... + theta_q B^q in
the residual filter, the forecast, the psi weights and the root check
alike.

The iterative (p+q>0) fit is in ``css``, the only module that imports
numpy. The closed-form (0,d,0) path runs on Python floats, and its sums
are ``math.fsum``, so its outputs depend on neither the BLAS build nor the
summation order. The stability check of a fitted model is the step-down
(Schur-Cohn) recursion on Python floats. So ``css`` is imported only by an
iterative fit or a forecast with MA terms: a run whose fits are all
closed-form never loads numpy. No path uses scipy.
"""
from __future__ import annotations

import math
from itertools import accumulate

from .common import CI_Z, ForecastError, dot

MAX_P = 5
MAX_D = 2
MAX_Q = 5


class ArimaOrder:
    """A (p, d, q) order; orders compare and hash by value."""

    __slots__ = ("p", "d", "q")

    def __init__(self, p: int, d: int, q: int) -> None:
        if not (0 <= p <= MAX_P):
            raise ForecastError(f"p must be in 0..{MAX_P}, got {p}")
        if not (0 <= d <= MAX_D):
            raise ForecastError(f"d must be in 0..{MAX_D}, got {d}")
        if not (0 <= q <= MAX_Q):
            raise ForecastError(f"q must be in 0..{MAX_Q}, got {q}")
        self.p = p
        self.d = d
        self.q = q

    def __eq__(self, other: object) -> bool:
        if type(other) is not ArimaOrder:
            return NotImplemented
        return (self.p, self.d, self.q) == (other.p, other.d, other.q)

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.q))

    @property
    def n_coeffs(self) -> int:
        return self.p + self.q

    @property
    def min_obs(self) -> int:
        """Points a fit needs: ten more than its coefficients, after differencing."""
        return self.d + self.p + self.q + 10


#: The fewest points the pipeline always forecasts: (0, MAX_D, 0) fits.
MIN_OBS = ArimaOrder(0, MAX_D, 0).min_obs


class FittedArima:
    """A fitted model: coefficients, innovation variance, CSS residuals.

    ``intercept`` is the mean of the differenced series (0.0 when no mean
    term was fitted); ``loglik_proxy`` is the negative CSS, comparable only
    across fits on the same data; ``residuals`` are on the differenced scale
    starting at t=p. The roots of 1 - phi(z) and theta(z) must lie outside
    the unit circle.
    """

    __slots__ = (
        "order", "ar_coeffs", "ma_coeffs", "intercept", "sigma2", "residuals",
        "loglik_proxy",
    )

    def __init__(
        self,
        order: ArimaOrder,
        ar_coeffs: tuple[float, ...],
        ma_coeffs: tuple[float, ...],
        intercept: float,
        sigma2: float,
        residuals: tuple[float, ...],
        loglik_proxy: float,
    ) -> None:
        if len(ar_coeffs) != order.p or len(ma_coeffs) != order.q:
            raise ForecastError("coefficient counts do not match the order")
        if not sigma2 > 0.0:
            raise ForecastError(f"sigma2 must be positive, got {sigma2}")
        ar_poly = [-c for c in ar_coeffs]
        for label, poly in (("AR", ar_poly), ("MA", ma_coeffs)):
            bad = _unstable_lag(poly)
            if bad is not None:
                raise ForecastError(
                    f"{label} polynomial root inside the unit circle "
                    f"(reflection coefficient {bad[1]:.6g} at lag {bad[0]})"
                )
        self.order = order
        self.ar_coeffs = ar_coeffs
        self.ma_coeffs = ma_coeffs
        self.intercept = intercept
        self.sigma2 = sigma2
        self.residuals = residuals
        self.loglik_proxy = loglik_proxy


class ForecastBand:
    """Point forecasts with symmetric limits, on the original scale.

    The limits are nominal 95%, normal-theory: the mean plus and minus
    ``CI_Z`` forecast standard errors. They cover less: about 0.90 of
    simulated paths, and 109 of 140 held-out points of the bundled series.
    """

    __slots__ = ("years", "lower", "mean", "upper")

    def __init__(
        self,
        years: tuple[int, ...],
        lower: tuple[float, ...],
        mean: tuple[float, ...],
        upper: tuple[float, ...],
    ) -> None:
        k = len(years)
        if not (len(lower) == len(mean) == len(upper) == k):
            raise ForecastError("band channels must share one length")
        for y, lo, mid, hi in zip(years, lower, mean, upper):
            if not (math.isfinite(lo) and math.isfinite(mid) and math.isfinite(hi)):
                raise ForecastError(
                    f"band channels must be finite, got {lo}, {mid}, {hi} at {y}"
                )
            if not (lo <= mid <= hi):
                raise ForecastError(
                    f"band ordering violated at {y}: {lo} <= {mid} <= {hi}"
                )
        self.years = years
        self.lower = lower
        self.mean = mean
        self.upper = upper


def difference(values, d: int) -> list[float]:
    """Apply d rounds of first differencing."""
    x = [float(v) for v in values]
    if d < 0:
        raise ForecastError(f"d must be >= 0, got {d}")
    if len(x) <= d:
        raise ForecastError(f"cannot difference {len(x)} points {d} times")
    for _ in range(d):
        x = [b - a for a, b in zip(x, x[1:])]
    return x


def integrate(diffed, tails) -> list[float]:
    """Undo differencing: cumulative sums seeded by the pre-sample tails.

    ``tails[k]`` is the last observed value of the k-times-differenced
    series; integrate(difference(x, d), [x[-1], diff(x)[-1], ...]) extends x.
    The cumulative sums run left to right, as np.cumsum's do.
    """
    out = [float(v) for v in diffed]
    for tail in reversed(list(tails)):
        out = [tail + c for c in accumulate(out)]
    return out


def _unstable_lag(coeffs) -> tuple[int, float] | None:
    """None when every root of 1 + c1*z + ... + ck*z^k lies outside the
    unit circle, else the first (k, c_k) at which the step-down recursion,
    the inverse of css._levinson, peels off a reflection coefficient c_k that
    is not in (-1, 1) (a NaN is not)."""
    c = [float(v) for v in coeffs]
    for k in range(len(c), 0, -1):
        r = c[k - 1]
        if not abs(r) < 1.0:
            return k, r
        c = [(c[i] - r * c[k - 2 - i]) / (1.0 - r * r) for i in range(k - 1)]
    return None


def fit_arima(values, order: ArimaOrder, include_mean: bool | None = None) -> FittedArima:
    """Fit an ARIMA model by conditional sum of squares.

    ``include_mean`` defaults to True when d=0 and False otherwise (a
    differenced series is modeled without drift). The series is differenced
    internally; pass the original scale.
    """
    x = [float(v) for v in values]
    if not all(map(math.isfinite, x)):
        raise ForecastError("series has non-finite values")
    if include_mean is None:
        include_mean = order.d == 0
    w = difference(x, order.d)
    n = len(w)
    n_params = order.n_coeffs + int(include_mean)
    if len(x) < order.min_obs:
        raise ForecastError(
            f"{n} differenced observations are too few for order "
            f"({order.p},{order.d},{order.q}); need {order.min_obs - order.d}"
        )

    p, q = order.p, order.q
    if p == 0 and q == 0:
        # closed form: the CSS optimum is the sample mean (or zero)
        mu = math.fsum(w) / n if include_mean else 0.0
        e = [v - mu for v in w]
        return _fitted(order, (), (), mu, tuple(e), dot(e, e), n_params)

    from .css import fit_css

    return fit_css(w, order, include_mean, n_params)


def _fitted(order, ar, ma, mu, residuals, css: float, n_params: int) -> FittedArima:
    """The fit whose ``residuals`` have the sum of squares ``css``;
    ``n_params`` counts the coefficients and the mean, if fitted."""
    if css == 0.0:
        raise ForecastError(
            "residuals are identically zero; the series is deterministic "
            "at this order"
        )
    sigma2 = css / max(len(residuals) - n_params, 1)
    return FittedArima(order, ar, ma, mu, sigma2, residuals, loglik_proxy=-css)


def psi_weights(model: FittedArima, horizon: int) -> list[float]:
    """MA-infinity weights of the integrated process, psi_0..psi_{horizon-1}.

    The AR polynomial is convolved with (1-B)^d so the weights accumulate
    forecast-error variance on the original scale.
    """
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    ar = [1.0] + [-c for c in model.ar_coeffs]
    for _ in range(model.order.d):
        ar = [a - b for a, b in zip(ar + [0.0], [0.0] + ar)]
    rec = [-a for a in ar[1:]]
    theta = model.ma_coeffs
    psi = [1.0]
    for j in range(1, horizon):
        v = theta[j - 1] if j <= len(theta) else 0.0
        for i in range(1, min(j, len(rec)) + 1):
            v += rec[i - 1] * psi[j - i]
        psi.append(v)
    return psi


def forecast(
    model: FittedArima, values, horizon: int, *, last_year: int = 0
) -> ForecastBand:
    """Forecast ``horizon`` steps past the end of ``values``.

    ``values`` is the observed data on the original scale, and
    ``last_year`` the year of its last point; the band's years are
    last_year+1 onwards, so by default they count from 1. Interval
    half-width at step h is 1.96 * sqrt(sigma2 * sum(psi_0^2..psi_{h-1}^2)).
    """
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    x = [float(v) for v in values]
    d, p = model.order.d, model.order.p
    if len(x) < model.order.min_obs:
        raise ForecastError(
            f"need at least {model.order.min_obs} observations to "
            f"forecast, got {len(x)}"
        )
    zs = [v - model.intercept for v in difference(x, d)]
    n = len(zs)
    ar, ma = model.ar_coeffs, model.ma_coeffs
    # Past errors enter only through the MA terms, so they are filtered
    # only when there are some.
    if ma:
        from .css import _css_residuals

        es = [0.0] * p + _css_residuals(zs, ar, ma).tolist()
    for t in range(n, n + horizon):
        v = 0.0
        for i, c in enumerate(ar, start=1):
            v += c * zs[t - i]
        for j, c in enumerate(ma, start=1):
            if t - j < n:
                v += c * es[t - j]
        zs.append(v)
    w_pred = [v + model.intercept for v in zs[n:]]

    # tails[k]: the last value of the k-times-differenced series, from the
    # last d+1 observations with the same subtractions as difference().
    tails = []
    edge = x[len(x) - d - 1:]
    for _ in range(d):
        tails.append(edge[-1])
        edge = [b - a for a, b in zip(edge, edge[1:])]
    mean = integrate(w_pred, tails)

    psi = psi_weights(model, horizon)
    half = [
        CI_Z * math.sqrt(model.sigma2 * c) for c in accumulate(v * v for v in psi)
    ]
    return ForecastBand(
        years=tuple(range(last_year + 1, last_year + 1 + horizon)),
        lower=tuple(m - h for m, h in zip(mean, half)),
        mean=tuple(mean),
        upper=tuple(m + h for m, h in zip(mean, half)),
    )
