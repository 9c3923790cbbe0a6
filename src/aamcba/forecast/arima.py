"""ARIMA estimation and forecasting.

Fitting minimizes the conditional sum of squared one-step errors (CSS):
residuals start at t=p on the differenced scale with presample errors set
to zero. The optimizer works in an unconstrained space that maps through
tanh to partial autocorrelations and then, via the Levinson recursion, to
AR/MA coefficients, so stationarity and invertibility hold by construction
for any order.

The closed-form (0,d,0) path runs on Python floats, and its sums are
``math.fsum``, so its outputs depend on neither the BLAS build nor the
summation order. numpy and scipy (Nelder-Mead and the MA filter) are
imported when an iterative (p+q>0) fit, a forecast with MA terms or a root
check with coefficients first needs them, so a run whose fits are all
closed-form never loads either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .common import CI_Z, CONFIDENCE, MIN_OBS, ForecastError, dot

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


def _raw_to_coeffs(raw):
    """Map unconstrained values through tanh to partials in (-1, 1), then by
    the Levinson recursion to ARMA coefficients."""
    if raw.size == 0:
        return raw
    import numpy as np

    a = np.empty(0)
    for rk in np.clip(np.tanh(raw), -_PARTIAL_CAP, _PARTIAL_CAP):
        a = np.concatenate([a - rk * a[::-1], [rk]])
    return a


def _min_root_modulus(coeffs) -> float:
    """Smallest root modulus of 1 - c1*z - ... - ck*z^k (inf when k=0)."""
    if len(coeffs) == 0:
        return math.inf
    import numpy as np

    c = np.asarray(coeffs, dtype=float)
    poly = np.concatenate([[-c[i] for i in range(c.size - 1, -1, -1)], [1.0]])
    roots = np.roots(poly)
    return float(np.min(np.abs(roots))) if roots.size else math.inf


def _css_residuals(z, phi, theta, lfilter=None):
    """One-step errors conditioned on the first p values and zero presample errors.

    ``z``, ``phi`` and ``theta`` are arrays. ``lfilter`` is
    scipy.signal.lfilter, passed in by a caller that filters many times;
    otherwise it is imported here, and only when q > 0.
    """
    p = phi.size
    zt = z[p:].copy()
    for i in range(1, p + 1):
        zt -= phi[i - 1] * z[p - i:z.size - i]
    if theta.size:
        if lfilter is None:
            from scipy.signal import lfilter
        return lfilter([1.0], [1.0, *theta], zt)
    return zt


def _start_partials(z, nlags: int):
    """Partial autocorrelations at lags 1..nlags for the Nelder-Mead start.

    This is the array arithmetic (numpy mean and BLAS dot products) that
    ``correlation.pacf`` used before it moved to correctly rounded sums,
    kept so that every iterative fit starts, walks and ends on the same
    bits as before. Replacing the Nelder-Mead fit (ROADMAP item 2)
    deletes it.
    """
    import numpy as np

    xm = z - z.mean()
    denom = float(xm @ xm)
    if denom == 0.0:
        raise ForecastError("series is constant; autocorrelation undefined")
    rho = np.empty(nlags + 1)
    rho[0] = 1.0
    for k in range(1, nlags + 1):
        rho[k] = float(xm[k:] @ xm[:-k]) / denom
    out = np.empty(nlags)
    phi = np.empty(nlags)
    for k in range(1, nlags + 1):
        if k == 1:
            rk = rho[1]
        else:
            prev = phi[:k - 1]
            num = rho[k] - float(prev @ rho[k - 1:0:-1])
            den = 1.0 - float(prev @ rho[1:k])
            if den == 0.0:
                raise ForecastError(f"Durbin-Levinson breakdown at lag {k}")
            rk = num / den
            prev[:] = prev - rk * prev[::-1]
        out[k - 1] = rk
        phi[k - 1] = rk
    return out


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
    if n < order.n_coeffs + 10:
        raise ForecastError(
            f"{n} differenced observations are too few for order "
            f"({order.p},{order.d},{order.q}); need {order.n_coeffs + 10}"
        )

    p, q = order.p, order.q
    if p == 0 and q == 0:
        # closed form: the CSS optimum is the sample mean (or zero)
        mu = math.fsum(w) / n if include_mean else 0.0
        e = [v - mu for v in w]
        css = dot(e, e)
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
            residuals=tuple(e),
            loglik_proxy=-css,
            n_obs=n,
        )

    import numpy as np
    from scipy.optimize import minimize
    from scipy.signal import lfilter

    w = np.array(w)

    # Optimize on a standardized copy so the Nelder-Mead tolerances mean
    # the same thing whatever the data units; AR/MA coefficients are
    # invariant under the affine map and the mean/variance map back exactly.
    shift = float(w.mean()) if include_mean else 0.0
    scale = float(np.sqrt(np.mean((w - shift) ** 2)))
    if scale == 0.0:
        scale = 1.0
    z = (w - shift) / scale

    def unpack(params):
        i = 1 if include_mean else 0
        mu = params[0] if include_mean else 0.0
        phi = _raw_to_coeffs(params[i:i + p])
        theta = _raw_to_coeffs(params[i + p:i + p + q])
        return mu, phi, theta

    def objective(params) -> float:
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
            partials = np.clip(_start_partials(z - mu0, p), -0.9, 0.9)
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
    if len(x) < max(d + p + 1, MIN_OBS):
        raise ForecastError(
            f"need at least {max(d + p + 1, MIN_OBS)} observations to "
            f"forecast, got {len(x)}"
        )
    zs = [v - model.intercept for v in difference(x, d)]
    n = len(zs)
    ar, ma = model.ar_coeffs, model.ma_coeffs
    # Past errors enter only through the MA terms, so they are filtered
    # only when there are some.
    if ma:
        import numpy as np

        e = _css_residuals(np.array(zs), np.array(ar), np.array(ma))
        es = [0.0] * p + e.tolist()
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
