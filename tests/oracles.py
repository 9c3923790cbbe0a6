"""Independent oracles the test suite checks the library against.

Everything here is deliberately primitive: plain normal-equation least
squares, exact Fraction arithmetic, and a hand-rolled random number
generator. None of it shares code with the package, so agreement is
evidence rather than tautology.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# -- deterministic sample paths -------------------------------------------
#
# A 64-bit linear congruential generator plus Box-Muller. Unlike library
# RNGs this stream can never change out from under the frozen reference
# statistics embedded in the tests.

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 64) - 1


def lcg_uniforms(seed: int, count: int) -> list[float]:
    """``count`` uniforms in (0, 1) from a fixed 64-bit LCG."""
    state = seed & _MASK
    out = []
    for _ in range(count):
        state = (_LCG_A * state + _LCG_C) & _MASK
        # keep the top 53 bits and stay strictly inside (0, 1)
        out.append(((state >> 11) + 0.5) / (1 << 53))
    return out


def lcg_normals(seed: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller over the LCG stream."""
    uniforms = lcg_uniforms(seed, 2 * count)
    out = np.empty(count)
    for i in range(count):
        u1, u2 = uniforms[2 * i], uniforms[2 * i + 1]
        out[i] = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return out


def white_noise_path(seed: int, n: int) -> np.ndarray:
    return lcg_normals(seed, n)


def random_walk_path(seed: int, n: int) -> np.ndarray:
    return np.cumsum(lcg_normals(seed, n))


# -- brute-force ADF regression -------------------------------------------


def adf_stat_bruteforce(values, lags: int) -> float:
    """The ADF t-statistic from explicitly assembled normal equations.

    Regression: dy_t = c + g*y_{t-1} + sum_j d_j*dy_{t-j} + e_t. The
    statistic is g_hat over its standard error, solved via inv(X'X)
    rather than a least-squares factorization.
    """
    y = np.asarray(values, dtype=float)
    dy = np.diff(y)
    rows = dy.size - lags
    cols = 2 + lags
    X = np.empty((rows, cols))
    X[:, 0] = 1.0
    X[:, 1] = y[lags:y.size - 1]
    for j in range(1, lags + 1):
        X[:, 1 + j] = dy[lags - j:dy.size - j]
    b = dy[lags:]
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ b)
    resid = b - X @ beta
    s2 = float(resid @ resid) / (rows - cols)
    se = math.sqrt(s2 * np.linalg.inv(xtx)[1, 1])
    return float(beta[1] / se)


def adf_stat_exact(values, lags: int) -> float:
    """The ADF t-statistic of exact least squares on the given doubles.

    The differences are the rounded ones the library sees; from there every
    step (normal equations, Gauss-Jordan elimination, residuals, variance)
    is exact in Fractions, and only the final square root is rounded.
    """
    y = [float(v) for v in values]
    dy = [b - a for a, b in zip(y, y[1:])]
    rows = len(dy) - lags
    cols = 2 + lags
    X = [
        [Fraction(1), Fraction(y[lags + t])]
        + [Fraction(dy[lags + t - j]) for j in range(1, lags + 1)]
        for t in range(rows)
    ]
    b = [Fraction(v) for v in dy[lags:]]
    xtx = [[sum(r[i] * r[j] for r in X) for j in range(cols)] for i in range(cols)]
    # [X'X | X'b | e_1], reduced to [I | beta | column 1 of (X'X)^-1]
    aug = [
        xtx[i] + [sum(r[i] * bt for r, bt in zip(X, b)), Fraction(int(i == 1))]
        for i in range(cols)
    ]
    for c in range(cols):
        pivot = next(i for i in range(c, cols) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        head = aug[c][c]
        aug[c] = [v / head for v in aug[c]]
        for i in range(cols):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    beta = [aug[i][cols] for i in range(cols)]
    rss = sum((bt - sum(c * x for c, x in zip(beta, r))) ** 2 for r, bt in zip(X, b))
    t_squared = beta[1] ** 2 / (rss / (rows - cols) * aug[1][cols + 1])
    return math.copysign(math.sqrt(float(t_squared)), beta[1])


# -- exact bridge-inspection cost arithmetic ------------------------------
#
# The published per-inspection rates: payroll plus equipment during core
# hours, a flat off-hours rate otherwise. Fractions keep every step exact
# so the expected yearly totals are integers by construction.

SNOOPER_CORE = Fraction(2018) + Fraction(1125)     # payroll + equipment
SNOOPER_OFF = Fraction(4152)
DRONE_CORE = Fraction(427) + Fraction(95)
DRONE_OFF = Fraction(735)


def inspection_costs_exact(
    inspections: int = 400,
    drone_capable: int = 200,
    core_share: Fraction = Fraction(8, 10),
) -> tuple[int, int, int, int]:
    """(all-snooper, drone share, snooper share, savings), exact dollars."""

    def blended(count: int, core: Fraction, off: Fraction) -> Fraction:
        return count * (core_share * core + (1 - core_share) * off)

    c1 = blended(inspections, SNOOPER_CORE, SNOOPER_OFF)
    c2 = blended(drone_capable, DRONE_CORE, DRONE_OFF)
    c3 = blended(inspections - drone_capable, SNOOPER_CORE, SNOOPER_OFF)
    cs = c1 - (c2 + c3)
    for value in (c1, c2, c3, cs):
        assert value.denominator == 1, "expected whole dollars"
    return int(c1), int(c2), int(c3), int(cs)


# -- compound growth without pow ------------------------------------------


def compound_bruteforce(base: float, rate: float, years: int) -> float:
    """base*(1+rate)^years computed by repeated multiplication."""
    value = base
    for _ in range(years):
        value *= 1.0 + rate
    return value


# -- ledger arithmetic -----------------------------------------------------
#
# Band arithmetic channel by channel: every band added in turn to a zero
# band, then each channel shifted by the negated spend.


def band_sum(bands) -> tuple[float, float, float]:
    """The (lower, mean, upper) channel sums of ``bands``, left to right."""
    total = (0.0, 0.0, 0.0)
    for band in bands:
        total = tuple(
            t + c for t, c in zip(total, (band.lower, band.mean, band.upper))
        )
    return total


def npi_band(benefits, capex: float, opex: float) -> tuple[float, float, float]:
    """A year's net gain as (lower, mean, upper): the benefit bands' sum
    shifted by ``-(capex + opex)``."""
    delta = -(capex + opex)
    return tuple(channel + delta for channel in band_sum(benefits.values()))
