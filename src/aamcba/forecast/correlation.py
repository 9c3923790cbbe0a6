"""Sample autocorrelation and partial autocorrelation."""
from __future__ import annotations

import numpy as np

from .common import ForecastError


def acf(values, nlags: int) -> np.ndarray:
    """Sample ACF with the n-denominator normalization; entry 0 is 1.

    Returns nlags+1 entries. The same estimator feeds the Ljung-Box
    statistic and the Durbin-Levinson recursion, so all three agree.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if nlags < 1:
        raise ForecastError(f"nlags must be >= 1, got {nlags}")
    if nlags >= n:
        raise ForecastError(f"nlags={nlags} needs a series longer than {nlags}")
    xm = x - x.mean()
    denom = float(xm @ xm)
    if denom == 0.0:
        raise ForecastError("series is constant; autocorrelation undefined")
    out = np.empty(nlags + 1)
    out[0] = 1.0
    for k in range(1, nlags + 1):
        out[k] = float(xm[k:] @ xm[:-k]) / denom
    return out


def pacf(values, nlags: int, rho: np.ndarray | None = None) -> np.ndarray:
    """Partial ACF via the Durbin-Levinson recursion; entry 0 is 1.

    ``rho`` is ``acf(values, nlags)`` when the caller already has it.
    """
    if rho is None:
        rho = acf(values, nlags)
    out = np.empty(nlags + 1)
    out[0] = 1.0
    # phi[:k] holds the order-k coefficients, updated in place
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
        out[k] = rk
        phi[k - 1] = rk
    return out


def bartlett_bound(n: int) -> float:
    """The 2/sqrt(n) band used to call ACF/PACF spikes significant."""
    if n < 1:
        raise ForecastError(f"need a positive sample size, got {n}")
    return 2.0 / np.sqrt(n)
