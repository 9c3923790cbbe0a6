"""Sample autocorrelation and partial autocorrelation.

Both run on Python floats, and every sum is ``math.fsum``, which is
correctly rounded, so the results depend on neither the BLAS build nor the
summation order.
"""
from __future__ import annotations

import math

from .common import ForecastError, dot


def acf(values, nlags: int) -> list[float]:
    """Sample ACF with the n-denominator normalization; entry 0 is 1.

    Returns nlags+1 entries. The same estimator feeds the Ljung-Box
    statistic and the Durbin-Levinson recursion, so all three agree.
    """
    x = [float(v) for v in values]
    n = len(x)
    if nlags < 1:
        raise ForecastError(f"nlags must be >= 1, got {nlags}")
    if nlags >= n:
        raise ForecastError(f"nlags={nlags} needs a series longer than {nlags}")
    mean = math.fsum(x) / n
    xm = [v - mean for v in x]
    denom = dot(xm, xm)
    if denom == 0.0:
        raise ForecastError("series is constant; autocorrelation undefined")
    out = [1.0]
    for k in range(1, nlags + 1):
        out.append(dot(xm[k:], xm) / denom)
    return out


def pacf(values, nlags: int, rho: list[float] | None = None) -> list[float]:
    """Partial ACF via the Durbin-Levinson recursion; entry 0 is 1.

    ``rho`` is ``acf(values, nlags)`` when the caller already has it.
    """
    if rho is None:
        rho = acf(values, nlags)
    out = [1.0]
    # phi holds the order-(k-1) coefficients
    phi: list[float] = []
    for k in range(1, nlags + 1):
        if k == 1:
            rk = rho[1]
        else:
            num = rho[k] - dot(phi, rho[k - 1:0:-1])
            den = 1.0 - dot(phi, rho[1:k])
            if den == 0.0:
                raise ForecastError(f"Durbin-Levinson breakdown at lag {k}")
            rk = num / den
            phi = [a - rk * b for a, b in zip(phi, reversed(phi))]
        out.append(rk)
        phi.append(rk)
    return out


def bartlett_bound(n: int) -> float:
    """The 2/sqrt(n) band used to call ACF/PACF spikes significant."""
    if n < 1:
        raise ForecastError(f"need a positive sample size, got {n}")
    return 2.0 / math.sqrt(n)
