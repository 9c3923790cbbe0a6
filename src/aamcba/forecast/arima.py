"""ARIMA estimation and forecasting.

Fitting minimizes the conditional sum of squared one-step errors (CSS):
residuals start at t=p on the differenced scale with presample errors set
to zero. The optimizer works in an unconstrained space that maps through
tanh to partial autocorrelations and then, via the Levinson recursion, to
AR/MA coefficients, so stationarity and invertibility hold by construction
for any order.

scipy (Nelder-Mead and the MA filter) is imported when an iterative
(p+q>0) fit, or a forecast with MA terms, first needs it, so a run whose
fits are all closed-form (0,d,0) never loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import CI_Z, CONFIDENCE, MIN_OBS, ForecastError

MAX_P = 5
MAX_D = 2
MAX_Q = 5

# Partial autocorrelations are clipped just inside the unit interval so the
# implied polynomial roots stay strictly outside the unit circle even when
# the optimizer saturates tanh (e.g. an exactly constant differenced series).
_PARTIAL_CAP = 1.0 - 1e-7

_RESTART_OFFSETS = (0.0, 0.5, -0.5, 1.0, -1.0)


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if not (0 <= self.p <= MAX_P):
            raise ForecastError(f"p must be in 0..{MAX_P}, got {self.p}")
        if not (0 <= self.d <= MAX_D):
            raise ForecastError(f"d must be in 0..{MAX_D}, got {self.d}")
        if not (0 <= self.q <= MAX_Q):
            raise ForecastError(f"q must be in 0..{MAX_Q}, got {self.q}")

    @property
    def n_coeffs(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class FittedArima:
    """A fitted model: coefficients, innovation variance, CSS residuals.

    ``intercept`` is the mean of the differenced series (0.0 when no mean
    term was fitted); ``loglik_proxy`` is the negative CSS, comparable only
    across fits on the same data; ``residuals`` are on the differenced scale
    starting at t=p.
    """

    order: ArimaOrder
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    intercept: float
    sigma2: float
    residuals: tuple[float, ...]
    loglik_proxy: float
    n_obs: int

    def __post_init__(self) -> None:
        if len(self.ar_coeffs) != self.order.p or len(self.ma_coeffs) != self.order.q:
            raise ForecastError("coefficient counts do not match the order")
        if not self.sigma2 > 0.0:
            raise ForecastError(f"sigma2 must be positive, got {self.sigma2}")
        for label, coeffs in (("AR", self.ar_coeffs), ("MA", self.ma_coeffs)):
            m = _min_root_modulus(coeffs)
            if m <= 1.0:
                raise ForecastError(
                    f"{label} polynomial root inside the unit circle "
                    f"(modulus {m:.6f})"
                )


@dataclass(frozen=True)
class ForecastBand:
    """Point forecasts with symmetric 95% limits, on the original scale."""

    years: tuple[int, ...]
    lower: tuple[float, ...]
    mean: tuple[float, ...]
    upper: tuple[float, ...]
    confidence: float = CONFIDENCE

    def __post_init__(self) -> None:
        k = len(self.years)
        if not (len(self.lower) == len(self.mean) == len(self.upper) == k):
            raise ForecastError("band channels must share one length")
        for y, lo, mid, hi in zip(self.years, self.lower, self.mean, self.upper):
            if not (math.isfinite(lo) and math.isfinite(mid) and math.isfinite(hi)):
                raise ForecastError(
                    f"band channels must be finite, got {lo}, {mid}, {hi} at {y}"
                )
            if not (lo <= mid <= hi):
                raise ForecastError(
                    f"band ordering violated at {y}: {lo} <= {mid} <= {hi}"
                )


def difference(values, d: int) -> np.ndarray:
    """Apply d rounds of first differencing."""
    x = np.asarray(values, dtype=float)
    if d < 0:
        raise ForecastError(f"d must be >= 0, got {d}")
    if x.size <= d:
        raise ForecastError(f"cannot difference {x.size} points {d} times")
    return np.diff(x, n=d) if d else x.copy()


def integrate(diffed, tails) -> np.ndarray:
    """Undo differencing: cumulative sums seeded by the pre-sample tails.

    ``tails[k]`` is the last observed value of the k-times-differenced
    series; integrate(difference(x, d), [x[-1], diff(x)[-1], ...]) extends x.
    """
    out = np.asarray(diffed, dtype=float)
    for tail in reversed(list(tails)):
        out = tail + np.cumsum(out)
    return out


def _partials_to_coeffs(partials: np.ndarray) -> np.ndarray:
    """Levinson recursion mapping partials in (-1, 1) to ARMA coefficients."""
    a = np.empty(0)
    for rk in partials:
        a = np.concatenate([a - rk * a[::-1], [rk]])
    return a


def _raw_to_coeffs(raw: np.ndarray) -> np.ndarray:
    if raw.size == 0:
        return raw
    return _partials_to_coeffs(np.clip(np.tanh(raw), -_PARTIAL_CAP, _PARTIAL_CAP))


def _min_root_modulus(coeffs) -> float:
    """Smallest root modulus of 1 - c1*z - ... - ck*z^k (inf when k=0)."""
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        return np.inf
    poly = np.concatenate([[-c[i] for i in range(c.size - 1, -1, -1)], [1.0]])
    roots = np.roots(poly)
    return float(np.min(np.abs(roots))) if roots.size else np.inf


def _css_residuals(z: np.ndarray, phi: np.ndarray, theta: np.ndarray,
                   lfilter=None) -> np.ndarray:
    """One-step errors conditioned on the first p values and zero presample errors.

    ``lfilter`` is scipy.signal.lfilter, passed in by a caller that filters
    many times; otherwise it is imported here, and only when q > 0.
    """
    p = phi.size
    zt = z[p:].copy()
    for i in range(1, p + 1):
        zt -= phi[i - 1] * z[p - i:z.size - i]
    if theta.size:
        if lfilter is None:
            from scipy.signal import lfilter
        return lfilter([1.0], np.concatenate([[1.0], theta]), zt)
    return zt


def fit_arima(values, order: ArimaOrder, include_mean: bool | None = None) -> FittedArima:
    """Fit an ARIMA model by conditional sum of squares.

    ``include_mean`` defaults to True when d=0 and False otherwise (a
    differenced series is modeled without drift). The series is differenced
    internally; pass the original scale.
    """
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ForecastError("series has non-finite values")
    if include_mean is None:
        include_mean = order.d == 0
    w = difference(x, order.d)
    n = w.size
    n_params = order.n_coeffs + int(include_mean)
    if n < order.n_coeffs + 10:
        raise ForecastError(
            f"{n} differenced observations are too few for order "
            f"({order.p},{order.d},{order.q}); need {order.n_coeffs + 10}"
        )

    p, q = order.p, order.q
    if p == 0 and q == 0:
        # closed form: the CSS optimum is the sample mean (or zero)
        mu = float(w.mean()) if include_mean else 0.0
        e = w - mu
        css = float(e @ e)
        if css == 0.0:
            raise ForecastError(
                "residuals are identically zero; the series is deterministic "
                "at this order"
            )
        sigma2 = css / max(n - n_params, 1)
        return FittedArima(
            order=order,
            ar_coeffs=(),
            ma_coeffs=(),
            intercept=mu,
            sigma2=sigma2,
            residuals=tuple(e.tolist()),
            loglik_proxy=-css,
            n_obs=n,
        )

    from scipy.optimize import minimize
    from scipy.signal import lfilter

    # Optimize on a standardized copy so the Nelder-Mead tolerances mean
    # the same thing whatever the data units; AR/MA coefficients are
    # invariant under the affine map and the mean/variance map back exactly.
    shift = float(w.mean()) if include_mean else 0.0
    scale = float(np.sqrt(np.mean((w - shift) ** 2)))
    if scale == 0.0:
        scale = 1.0
    z = (w - shift) / scale

    def unpack(params: np.ndarray):
        i = 1 if include_mean else 0
        mu = params[0] if include_mean else 0.0
        phi = _raw_to_coeffs(params[i:i + p])
        theta = _raw_to_coeffs(params[i + p:i + p + q])
        return mu, phi, theta

    def objective(params: np.ndarray) -> float:
        mu, phi, theta = unpack(params)
        with np.errstate(over="ignore", invalid="ignore"):
            e = _css_residuals(z - mu, phi, theta, lfilter)
            v = float(e @ e)
        # a finite penalty keeps Nelder-Mead's simplex arithmetic clean when
        # a candidate point sends the filtered residuals into overflow
        return v if np.isfinite(v) else 1e300

    mu0 = float(z.mean()) if include_mean else 0.0
    ar_raw0 = np.zeros(p)
    if p:
        try:
            from .correlation import pacf

            partials = np.clip(pacf(z - mu0, p)[1:], -0.9, 0.9)
            ar_raw0 = np.arctanh(partials)
        except ForecastError:
            pass

    base = np.concatenate([[mu0] if include_mean else [], ar_raw0, np.zeros(q)])
    best = None
    for offset in _RESTART_OFFSETS:
        start = base.copy()
        start[1 if include_mean else 0:] += offset
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-8, "maxiter": 2000 * (n_params + 1)},
        )
        if not res.success:
            continue
        if best is not None and abs(res.fun - best.fun) <= 1e-9 * max(1.0, abs(best.fun)):
            if res.fun < best.fun:
                best = res
            break
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise ForecastError(
            f"CSS optimizer failed to converge for order "
            f"({order.p},{order.d},{order.q})"
        )

    mu_z, phi, theta = unpack(best.x)
    mu = shift + scale * mu_z
    e = _css_residuals(w - mu, phi, theta, lfilter)
    css = float(e @ e)
    if css == 0.0:
        raise ForecastError(
            "residuals are identically zero; the series is deterministic "
            "at this order"
        )
    sigma2 = css / max(e.size - n_params, 1)
    return FittedArima(
        order=order,
        ar_coeffs=tuple(phi.tolist()),
        ma_coeffs=tuple(theta.tolist()),
        intercept=float(mu),
        sigma2=sigma2,
        residuals=tuple(e.tolist()),
        loglik_proxy=-css,
        n_obs=n,
    )


def psi_weights(model: FittedArima, horizon: int) -> np.ndarray:
    """MA-infinity weights of the integrated process, psi_0..psi_{horizon-1}.

    The AR polynomial is convolved with (1-B)^d so the weights accumulate
    forecast-error variance on the original scale.
    """
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    ar = np.array([1.0] + [-c for c in model.ar_coeffs])
    for _ in range(model.order.d):
        ar = np.convolve(ar, [1.0, -1.0])
    # The recursion runs on Python floats: the same double operations as
    # on array elements, without boxing each one.
    rec = (-ar[1:]).tolist()
    theta = model.ma_coeffs
    psi = [1.0]
    for j in range(1, horizon):
        v = theta[j - 1] if j <= len(theta) else 0.0
        for i in range(1, min(j, len(rec)) + 1):
            v += rec[i - 1] * psi[j - i]
        psi.append(v)
    return np.array(psi)


def _series_values_and_last_year(series) -> tuple[np.ndarray, int]:
    if hasattr(series, "values") and hasattr(series, "years"):
        return np.asarray(series.values, dtype=float), int(series.years[-1])
    x = np.asarray(series, dtype=float)
    return x, 0


def forecast(model: FittedArima, series, horizon: int) -> ForecastBand:
    """Forecast ``horizon`` steps past the end of ``series``.

    ``series`` is the observed data on the original scale (a TimeSeries or
    a plain sequence, in which case years count from 1). Interval half-width
    at step h is 1.96 * sqrt(sigma2 * sum(psi_0^2..psi_{h-1}^2)).
    """
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    x, last_year = _series_values_and_last_year(series)
    d, p = model.order.d, model.order.p
    if x.size < max(d + p + 1, MIN_OBS):
        raise ForecastError(
            f"need at least {max(d + p + 1, MIN_OBS)} observations to "
            f"forecast, got {x.size}"
        )
    w = difference(x, d)
    z = w - model.intercept
    n = z.size
    ar, ma = model.ar_coeffs, model.ma_coeffs
    # One-step recursion on Python floats; past errors enter only through
    # the MA terms, so they are filtered only when there are some.
    zs = z.tolist()
    if ma:
        es = [0.0] * p + _css_residuals(z, np.asarray(ar), np.asarray(ma)).tolist()
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
    # last d+1 observations with the same subtractions as np.diff.
    tails = []
    edge = x[x.size - d - 1:].tolist()
    for _ in range(d):
        tails.append(edge[-1])
        edge = [b - a for a, b in zip(edge, edge[1:])]
    mean = integrate(w_pred, tails)

    psi = psi_weights(model, horizon)
    half = CI_Z * np.sqrt(model.sigma2 * np.cumsum(psi ** 2))
    years = tuple(range(last_year + 1, last_year + 1 + horizon))
    return ForecastBand(
        years=years,
        lower=tuple((mean - half).tolist()),
        mean=tuple(mean.tolist()),
        upper=tuple((mean + half).tolist()),
    )
