"""Sample ACF/PACF against independently computed reference values.

The reference numbers were produced once with a separate statistical
library (biased ACF estimator, Durbin-Levinson PACF) and frozen here. An
exact-arithmetic reference pins the bits.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from aamcba.forecast import ForecastError
from aamcba.forecast.correlation import acf, bartlett_bound, pacf

# A white-ish baseline path, frozen to 6 decimals.
X_SERIES = [
    10.609434, 7.920032, 11.500902, 11.881129, 6.09793, 7.395641,
    10.255681, 9.367515, 9.966398, 8.293912, 11.758796, 11.555584,
    10.132061, 12.254482, 10.935019, 8.281415, 10.737502, 8.082235,
    11.756901, 9.900148, 9.630275, 8.638141, 12.445083, 9.690941,
    9.143344, 9.295733, 11.064618, 10.730888, 10.825465, 10.861642,
    14.283295, 9.18717, 8.975515, 8.372455, 11.231959, 12.257945,
    9.772105, 8.319687, 8.351038, 11.301186,
]

# An AR-flavored path, y_t = 0.6*y_{t-1} + 0.5*x_t, frozen to 6 decimals.
Y_SERIES = [
    10.609434, 10.325676, 11.945857, 13.108079, 10.913812, 10.246108,
    11.275505, 11.449061, 11.852635, 11.258537, 12.63452, 13.358504,
    13.081133, 13.975921, 13.853062, 12.452545, 12.840278, 11.745284,
    12.925621, 12.705447, 12.438405, 11.782114, 13.29181, 12.820556,
    12.264006, 12.00627, 12.736071, 13.007087, 13.216984, 13.361012,
    15.158255, 13.688538, 12.70088, 11.806756, 12.700033, 13.748992,
    13.135448, 12.041112, 11.400186, 12.490705,
]

ACF_Y_REFERENCE = [
    1.0, 0.5461067123644477, 0.17252650801162528, 0.1325806006215311,
    0.2924207369085623, 0.19713153243114256,
]
PACF_Y_REFERENCE = [
    1.0, 0.5461067123644477, -0.17912776051039275, 0.17564747456403446,
    0.23906090057205215, -0.1475930000281192,
]


def test_acf_matches_reference():
    got = acf(Y_SERIES, 5)
    assert np.allclose(got, ACF_Y_REFERENCE, rtol=0, atol=1e-12)


def test_pacf_matches_reference():
    got = pacf(Y_SERIES, 5)
    assert np.allclose(got, PACF_Y_REFERENCE, rtol=0, atol=1e-12)
    assert np.array_equal(pacf(Y_SERIES, 5, acf(Y_SERIES, 5)), got)


def _exact_sum(terms) -> float:
    """The terms added exactly as fractions, rounded once to a float."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def _acf_reference(values, nlags: int) -> list[float]:
    x = [float(v) for v in values]
    mean = _exact_sum(x) / len(x)
    xm = [v - mean for v in x]
    denom = _exact_sum([a * a for a in xm])
    return [1.0] + [
        _exact_sum([a * b for a, b in zip(xm[k:], xm)]) / denom
        for k in range(1, nlags + 1)
    ]


def _pacf_reference(rho: list[float], nlags: int) -> list[float]:
    """Durbin-Levinson with every dot product summed exactly."""
    out = [1.0]
    phi: list[float] = []
    for k in range(1, nlags + 1):
        if k == 1:
            rk = rho[1]
        else:
            num = rho[k] - _exact_sum([phi[i] * rho[k - 1 - i] for i in range(k - 1)])
            den = 1.0 - _exact_sum([phi[i] * rho[i + 1] for i in range(k - 1)])
            rk = num / den
            phi = [phi[i] - rk * phi[k - 2 - i] for i in range(k - 1)]
        out.append(rk)
        phi.append(rk)
    return out


def test_acf_and_pacf_match_the_exact_fraction_reference_bit_for_bit():
    # Each sum is the exact sum of the rounded terms, rounded once, so the
    # result depends on neither the summation order nor the BLAS build.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(12, 120))
        x = rng.normal(size=n).cumsum() if rng.random() < 0.5 else rng.normal(size=n)
        nlags = int(rng.integers(1, min(15, n // 2) + 1))
        rho = _acf_reference(x, nlags)
        assert acf(x, nlags) == rho
        assert pacf(x, nlags) == _pacf_reference(rho, nlags)


def test_acf_lag_zero_is_one():
    assert acf(Y_SERIES, 3)[0] == 1.0
    assert pacf(Y_SERIES, 3)[0] == 1.0


def test_acf_affine_invariance():
    y = np.asarray(Y_SERIES)
    base = acf(y, 5)
    shifted = acf(1000.0 + 3.0 * y, 5)
    assert np.allclose(base, shifted, rtol=0, atol=1e-12)


def test_pacf_first_lag_equals_acf():
    assert pacf(Y_SERIES, 5)[1] == acf(Y_SERIES, 5)[1]


def test_acf_of_alternating_series_is_negative():
    x = np.tile([1.0, -1.0], 20)
    assert acf(x, 1)[1] < -0.9


def test_bartlett_bound_formula():
    assert bartlett_bound(100) == pytest.approx(0.2, rel=0, abs=1e-15)
    assert bartlett_bound(25) == pytest.approx(0.4, rel=0, abs=1e-15)


def test_bartlett_bound_rejects_bad_n():
    with pytest.raises(ForecastError, match="positive sample size"):
        bartlett_bound(0)


def test_acf_rejects_bad_nlags():
    with pytest.raises(ForecastError, match="nlags"):
        acf(Y_SERIES, 0)
    with pytest.raises(ForecastError, match="longer"):
        acf(Y_SERIES[:5], 5)


def test_acf_rejects_constant_series():
    with pytest.raises(ForecastError, match="constant"):
        acf(np.ones(20), 3)
