"""CSS estimation, psi-weights, and forecast bands.

Closed-form anchors (sample-mean intercept, random-walk forecasts, exact
psi-weight sequences) pin down the arithmetic; parameter-recovery checks on
seeded simulations keep the optimizer honest without asserting exact values.
"""
from __future__ import annotations

import importlib.util
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg._umath_linalg import solve1

from aamcba.forecast import ForecastError
import aamcba
from aamcba.forecast import css
from aamcba.forecast.arima import (
    MAX_P,
    MAX_Q,
    ArimaOrder,
    FittedArima,
    ForecastBand,
    _unstable_lag,
    difference,
    fit_arima,
    forecast,
    integrate,
    psi_weights,
)
from aamcba.forecast.css import (
    _BLOCK,
    _FTOL,
    _MAX_ITER,
    _PARTIAL_CAP,
    _RESTART_OFFSETS,
    _css_point,
    _css_residuals,
    _inverse_ma,
    _levinson,
    _ma_impulse_response,
)
from aamcba.ingest import TimeSeries

from oracles import lcg_normals

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _ar1_path(seed: int, n: int, phi: float, mu: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n)
    x = np.empty(n)
    x[0] = mu + e[0]
    for t in range(1, n):
        x[t] = mu + phi * (x[t - 1] - mu) + e[t]
    return x


def _ma1_path(seed: int, n: int, theta: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n + 1)
    return e[1:] + theta * e[:-1]


def _arma11_lcg(seed: int, n: int, phi: float, theta: float) -> np.ndarray:
    """ARMA(1,1) driven by the oracle LCG normals, zero start."""
    e = lcg_normals(seed, n + 1)
    x = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = phi * prev + e[t + 1] + theta * e[t]
        x[t] = prev
    return x


def test_order_bounds():
    ArimaOrder(5, 2, 5)
    with pytest.raises(ForecastError, match="p must be in 0..5"):
        ArimaOrder(6, 0, 0)
    with pytest.raises(ForecastError, match="d must be in 0..2"):
        ArimaOrder(0, 3, 0)
    with pytest.raises(ForecastError, match="q must be in 0..5"):
        ArimaOrder(0, 0, -1)
    assert ArimaOrder(2, 1, 3).n_coeffs == 5


def test_difference_and_integrate_round_trip():
    x = np.cumsum(np.arange(1.0, 21.0)) + 3.0
    assert np.allclose(integrate(difference(x, 1), [x[0]]), x[1:], atol=1e-12)
    tails = [x[1], float(np.diff(x)[0])]
    assert np.allclose(integrate(difference(x, 2), tails), x[2:], atol=1e-12)
    with pytest.raises(ForecastError, match="d must be >= 0"):
        difference(x, -1)
    with pytest.raises(ForecastError, match="cannot difference"):
        difference([1.0, 2.0], 2)


def test_white_noise_fit_is_sample_mean():
    x = _ar1_path(3, 120, 0.0, mu=7.0)
    fit = fit_arima(x, ArimaOrder(0, 0, 0))
    assert fit.intercept == pytest.approx(float(np.mean(x)), abs=1e-15)
    css = float(np.sum((x - np.mean(x)) ** 2))
    assert fit.sigma2 == pytest.approx(css / (x.size - 1), rel=1e-15)
    assert fit.loglik_proxy == pytest.approx(-css, rel=1e-15)
    assert fit.ar_coeffs == () and fit.ma_coeffs == ()
    assert np.allclose(fit.residuals, x - np.mean(x), atol=1e-12)


def test_white_noise_fit_without_mean():
    x = _ar1_path(3, 120, 0.0, mu=7.0)
    fit = fit_arima(x, ArimaOrder(0, 0, 0), include_mean=False)
    assert fit.intercept == 0.0
    assert fit.sigma2 == pytest.approx(float(np.mean(x**2)), rel=1e-15)


def test_deterministic_series_is_rejected():
    with pytest.raises(ForecastError, match="identically zero"):
        fit_arima(np.full(30, 5.0), ArimaOrder(0, 0, 0))
    ramp = np.linspace(0.0, 29.0, 30)
    with pytest.raises(ForecastError, match="identically zero"):
        fit_arima(ramp, ArimaOrder(0, 1, 0), include_mean=True)


def test_fit_rejects_short_or_bad_input():
    with pytest.raises(ForecastError, match="too few for order"):
        fit_arima(np.arange(10.0), ArimaOrder(2, 0, 0))
    bad = np.arange(30.0)
    bad[4] = np.nan
    with pytest.raises(ForecastError, match="non-finite"):
        fit_arima(bad, ArimaOrder(0, 0, 0))


def test_ar1_recovery_single_seed():
    x = _ar1_path(0, 1000, 0.7)
    fit = fit_arima(x, ArimaOrder(1, 0, 0))
    assert 0.6 < fit.ar_coeffs[0] < 0.8
    assert abs(fit.intercept) < 0.2
    assert 0.8 < fit.sigma2 < 1.25


def test_ma1_recovery_single_seed():
    x = _ma1_path(0, 1000, 0.5)
    fit = fit_arima(x, ArimaOrder(0, 0, 1))
    assert 0.4 < fit.ma_coeffs[0] < 0.6


def test_fit_affine_invariance():
    x = _ar1_path(11, 400, 0.6, mu=10.0)
    base = fit_arima(x, ArimaOrder(1, 0, 0))
    mapped = fit_arima(1000.0 + 50.0 * x, ArimaOrder(1, 0, 0))
    assert mapped.ar_coeffs[0] == pytest.approx(base.ar_coeffs[0], abs=1e-6)
    assert mapped.intercept == pytest.approx(
        1000.0 + 50.0 * base.intercept, rel=1e-6
    )
    assert mapped.sigma2 == pytest.approx(2500.0 * base.sigma2, rel=1e-6)


def test_noninvertible_ma_is_flipped_inside_unit_circle():
    x = _ma1_path(5, 600, -1.5)
    fit = fit_arima(x, ArimaOrder(0, 0, 1))
    # CSS under the invertibility constraint lands on the equivalent
    # representation with theta ~ -1/1.5.
    assert -0.85 < fit.ma_coeffs[0] < -0.5


def test_fitted_model_validation():
    ok = dict(intercept=0.0, sigma2=1.0, residuals=(), loglik_proxy=0.0)
    with pytest.raises(ForecastError, match="coefficient counts"):
        FittedArima(order=ArimaOrder(1, 0, 0), ar_coeffs=(), ma_coeffs=(), **ok)
    with pytest.raises(ForecastError, match="sigma2 must be positive"):
        FittedArima(
            order=ArimaOrder(0, 0, 0), ar_coeffs=(), ma_coeffs=(),
            intercept=0.0, sigma2=0.0, residuals=(), loglik_proxy=0.0,
        )
    with pytest.raises(ForecastError, match="root inside the unit circle"):
        FittedArima(order=ArimaOrder(1, 0, 0), ar_coeffs=(1.5,), ma_coeffs=(), **ok)
    with pytest.raises(
        ForecastError,
        match=r"^AR polynomial root inside the unit circle "
              r"\(reflection coefficient -1 at lag 1\)$",
    ):
        FittedArima(order=ArimaOrder(1, 0, 0), ar_coeffs=(1.0,), ma_coeffs=(), **ok)


def _min_ma_root(ma) -> float:
    """Smallest root modulus of 1 + ma_1 z + ... + ma_q z^q, the polynomial
    that the residual filter, forecast and psi_weights all use."""
    return float(np.min(np.abs(np.roots([*reversed(ma), 1.0]))))


def test_ma_root_check_uses_the_residual_filter_polynomial():
    # 1 - 1.0533 z - 0.2856 z^2 has its roots at 0.783 and -4.47, so the
    # residual filter 1/(1 - 1.0533 B - 0.2856 B^2) explodes; the mirror
    # polynomial 1 + 1.0533 z + 0.2856 z^2, which the root check once
    # tested, has both roots at modulus 1.871.
    ma = (-1.0533, -0.2856)
    assert _min_ma_root(ma) == pytest.approx(0.783, abs=1e-3)
    with pytest.raises(ForecastError, match="MA polynomial root inside the unit circle"):
        FittedArima(
            order=ArimaOrder(0, 0, 2), ar_coeffs=(), ma_coeffs=ma,
            intercept=0.0, sigma2=1.0, residuals=(), loglik_proxy=0.0,
        )


def test_step_down_check_agrees_with_root_moduli():
    rng = np.random.default_rng(17)
    for _ in range(4000):
        c = rng.uniform(-2.0, 2.0, int(rng.integers(1, 6))).tolist()
        assert (_unstable_lag(c) is None) == (_min_ma_root(c) > 1.0), c


def test_step_down_check_accepts_saturated_partials():
    # the optimizer's partials saturate at +-(1 - 1e-3); every polynomial
    # that the Levinson map builds from them is stable
    for k in range(1, 6):
        for signs in range(2 ** k):
            partials = [(1.0 - 1e-3) * (-1.0) ** (signs >> i & 1) for i in range(k)]
            a, _ = _levinson(partials)
            assert _unstable_lag([-v for v in a]) is None, partials
            FittedArima(
                order=ArimaOrder(k, 0, k), ar_coeffs=tuple(a),
                ma_coeffs=tuple(-v for v in a), intercept=0.0, sigma2=1.0,
                residuals=(), loglik_proxy=0.0,
            )


@pytest.mark.parametrize("coeffs, stage", [
    ([-1.0], (1, -1.0)),
    ([1.0], (1, 1.0)),
    ([-2.0, 1.0], (2, 1.0)),  # (1 - z)^2
    ([0.5, math.nan], (2, math.nan)),
    ([math.nan, 0.5], (1, math.nan)),
    ([0.0, math.inf], (2, math.inf)),
], ids=["1-z", "1+z", "double-unit-root", "nan-last", "nan-first", "inf"])
def test_step_down_check_rejects_unit_and_invalid_roots(coeffs, stage):
    k, r = _unstable_lag(coeffs)
    assert k == stage[0]
    assert r == stage[1] or (math.isnan(r) and math.isnan(stage[1]))


def test_ar_only_model_checks_and_forecasts_without_numpy():
    script = (
        "import sys\n"
        "from aamcba.forecast.arima import ArimaOrder, FittedArima, forecast\n"
        "model = FittedArima(order=ArimaOrder(2, 1, 0), ar_coeffs=(0.5, -0.2),\n"
        "                    ma_coeffs=(), intercept=0.0, sigma2=1.0,\n"
        "                    residuals=(), loglik_proxy=0.0)\n"
        "band = forecast(model, [float(i * i % 17) for i in range(40)], 5)\n"
        "print(len(band.mean), sorted(m for m in sys.modules\n"
        "                             if m.partition('.')[0] == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(aamcba.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        check=True,
    )
    assert proc.stdout.split(maxsplit=1) == ["5", "[]\n"]


def _impulse_response(theta, size: int) -> list[float]:
    """h of 1/theta(B), each step's sum added left to right."""
    h = [1.0]
    for t in range(1, size):
        acc = 0.0
        for j in range(1, min(t, len(theta)) + 1):
            acc += theta[j - 1] * h[t - j]
        h.append(-acc)
    return h


def test_ma_filter_block_is_the_left_to_right_impulse_response():
    # sum() over the same products rounds differently from Python 3.12 on
    rng = np.random.default_rng(29)
    impulse = np.zeros((_BLOCK, 1))
    impulse[0, 0] = 1.0
    for q in range(1, 6):
        for _ in range(40):
            theta = rng.uniform(-1.0, 1.0, q).tolist()
            got = _inverse_ma(theta)(impulse)[:, 0].tolist()
            assert got == _impulse_response(theta, _BLOCK), theta


def test_ma_impulse_response_is_sign_exact_at_every_order():
    # The recursion is unrolled to five lags and raises on a longer theta,
    # so a MAX_Q past that width fails here. h is read where it is built:
    # the filter's matmul on a unit impulse returns +0.0 where h has -0.0.
    for q in range(1, MAX_Q + 1):
        # the LM start at offset 0, and the partials at the cap
        thetas = [[-0.0] * q]
        for signs in itertools.product((1.0, -1.0), repeat=q):
            a, _ = _levinson([s * _PARTIAL_CAP for s in signs])
            thetas.append([-v for v in a])
        for theta in thetas:
            got = [v.hex() for v in _ma_impulse_response(theta)]
            want = [v.hex() for v in _impulse_response(theta, _BLOCK)]
            assert got == want, theta


@pytest.mark.parametrize("m", [1, 31, 32, 33, 64, 65, 200])
@pytest.mark.parametrize("k", [1, 3])
def test_ma_filter_matches_the_per_step_recursion(m, k):
    rng = np.random.default_rng(100 * m + k)
    for q in range(1, 6):
        a, _ = _levinson(rng.uniform(-0.9, 0.9, q).tolist())
        theta = [-v for v in a]
        x = rng.normal(size=(m, k))
        y = np.zeros((m, k))
        for t in range(m):
            y[t] = x[t]
            for j in range(1, min(t, q) + 1):
                y[t] -= theta[j - 1] * y[t - j]
        got = _inverse_ma(theta)(x)
        assert got.shape == (m, k)
        np.testing.assert_allclose(got, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())


def test_micro_suite_ma_fits_are_invertible():
    if not BENCH_WORKLOADS.is_file():
        pytest.skip("no bench/ in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for _, n, tag, ks in workloads.MICRO_SUITE:
        x = workloads.micro_series(n, tag)
        for k in ks:
            fit = fit_arima(x, ArimaOrder(k, 0, k))
            assert _min_ma_root(fit.ma_coeffs) > 1.0, (n, tag, k, fit.ma_coeffs)


@pytest.mark.parametrize("include_mean", [False, True])
def test_analytic_jacobian_matches_central_differences(include_mean):
    rng = np.random.default_rng(21)
    z = rng.normal(size=80)
    step = 1e-6
    for p in range(6):
        for q in range(6):
            if p + q == 0:
                continue
            params = rng.uniform(-1.0, 1.0, int(include_mean) + p + q)
            _, jacobian = _css_point(z, params, p, q, include_mean)
            jac = jacobian()
            numeric = np.empty_like(jac)
            for i in range(params.size):
                up, down = params.copy(), params.copy()
                up[i] += step
                down[i] -= step
                numeric[:, i] = (
                    _css_point(z, up, p, q, include_mean)[0]
                    - _css_point(z, down, p, q, include_mean)[0]
                ) / (2.0 * step)
            gap = np.max(np.abs(jac - numeric)) / np.max(np.abs(jac))
            assert gap <= 1e-6, (p, q, gap)


def _levinson_full_square(partials):
    """The Levinson recursion with its Jacobian built on the full k x k
    square at every step, each new column by subtracting from its +0.0."""
    k = len(partials)
    a, jac = [], []
    for s, r in enumerate(partials):
        rev = a[::-1]
        jac = [
            [x - r * y for x, y in zip(jac[i], jac[s - 1 - i])] for i in range(s)
        ] + [[float(c == s) for c in range(k)]]
        for i in range(s):
            jac[i][s] -= rev[i]
        a = [x - r * y for x, y in zip(a, rev)] + [r]
    return a, jac


def test_levinson_matches_the_full_square_recursion_bit_for_bit():
    # Compared by float.hex, so a zero of the wrong sign fails. Zero
    # partials, as at a Levenberg-Marquardt start at offset 0, make the
    # zeros whose sign the new column's 0.0 - rev[i] keeps.
    rng = np.random.default_rng(37)
    cases = []
    for k in range(MAX_P + 1):
        for _ in range(500):
            r = rng.uniform(-_PARTIAL_CAP, _PARTIAL_CAP, k)
            r[rng.random(k) < 0.25] *= 0.0
            cases.append(r.tolist())
        cases.extend(
            list(signs)
            for signs in itertools.product((_PARTIAL_CAP, -_PARTIAL_CAP), repeat=k)
        )
    for partials in cases:
        a, jacobian = _levinson(partials)
        want_a, want_jac = _levinson_full_square(partials)
        assert [v.hex() for v in a] == [v.hex() for v in want_a], partials
        got = [[v.hex() for v in row] for row in jacobian()]
        assert got == [[v.hex() for v in row] for row in want_jac], partials


def test_band_validation():
    with pytest.raises(ForecastError, match="share one length"):
        ForecastBand(years=(1, 2), lower=(0.0,), mean=(1.0, 2.0), upper=(2.0, 3.0))
    with pytest.raises(ForecastError, match="band ordering violated at 2"):
        ForecastBand(
            years=(1, 2), lower=(0.0, 3.0), mean=(1.0, 2.0), upper=(2.0, 4.0)
        )
    with pytest.raises(ForecastError, match="must be finite, got 0.0, 1.0, inf at 2"):
        ForecastBand(
            years=(1, 2), lower=(0.0, 0.0), mean=(1.0, 1.0), upper=(2.0, float("inf"))
        )


def _bare_model(order: ArimaOrder, ar=(), ma=()) -> FittedArima:
    return FittedArima(
        order=order, ar_coeffs=ar, ma_coeffs=ma,
        intercept=0.0, sigma2=1.0, residuals=(), loglik_proxy=0.0,
    )


def test_psi_weights_closed_forms():
    ar1 = _bare_model(ArimaOrder(1, 0, 0), ar=(0.7,))
    assert np.allclose(psi_weights(ar1, 6), 0.7 ** np.arange(6), atol=1e-12)

    ma1 = _bare_model(ArimaOrder(0, 0, 1), ma=(0.4,))
    assert np.allclose(psi_weights(ma1, 5), [1.0, 0.4, 0.0, 0.0, 0.0], atol=1e-15)

    rw = _bare_model(ArimaOrder(0, 1, 0))
    assert np.allclose(psi_weights(rw, 5), np.ones(5), atol=1e-15)

    ima = _bare_model(ArimaOrder(0, 1, 1), ma=(0.3,))
    assert np.allclose(psi_weights(ima, 5), [1.0, 1.3, 1.3, 1.3, 1.3], atol=1e-12)

    with pytest.raises(ForecastError, match="horizon must be >= 1"):
        psi_weights(rw, 0)


def test_random_walk_forecast_repeats_last_value():
    rng = np.random.default_rng(8)
    x = 100.0 + np.cumsum(rng.normal(0.0, 2.0, 60))
    fit = fit_arima(x, ArimaOrder(0, 1, 0))
    band = forecast(fit, x, 4)
    assert np.allclose(band.mean, x[-1], atol=1e-9)
    half = np.asarray(band.upper) - np.asarray(band.mean)
    assert half[3] / half[0] == pytest.approx(2.0, abs=1e-6)
    assert band.years == (1, 2, 3, 4)


def test_constant_model_forecast_is_sample_mean():
    x = _ar1_path(9, 80, 0.0, mu=3.0)
    fit = fit_arima(x, ArimaOrder(0, 0, 0))
    band = forecast(fit, x, 5)
    assert np.allclose(band.mean, np.mean(x), atol=1e-12)
    half = np.asarray(band.upper) - np.asarray(band.mean)
    assert np.allclose(half, half[0], atol=1e-12)


def test_forecast_years_follow_the_calendar():
    rng = np.random.default_rng(12)
    values = 50.0 + np.cumsum(rng.normal(0.5, 1.0, 30))
    series = TimeSeries("demo", tuple(range(1992, 2022)), tuple(values))
    fit = fit_arima(values, ArimaOrder(0, 1, 0))
    band = forecast(fit, series.values, 3, last_year=series.years[-1])
    assert band.years == (2022, 2023, 2024)


def test_forecast_needs_enough_observations():
    x = _ar1_path(1, 40, 0.0)
    fit = fit_arima(x, ArimaOrder(0, 0, 0))
    # a (0,0,0) model needs what its fit needs: ArimaOrder.min_obs points
    with pytest.raises(ForecastError, match="need at least 10 observations"):
        forecast(fit, x[:9], 3)
    assert len(forecast(fit, x[:10], 3).mean) == 3
    with pytest.raises(ForecastError, match="horizon must be >= 1"):
        forecast(fit, x, 0)


# Iterative CSS fits, pinned to the Levenberg-Marquardt optimum they reach.
# The optimizer runs on numpy and BLAS, so the pins hold to a tolerance,
# not to the bit. Every fit must be invertible: the Nelder-Mead fit that
# the (5,0,5) row pinned before had an MA root of modulus 0.633.
_ARMA_SERIES = 5.0 + _arma11_lcg(11, 120, 0.6, 0.3)
FROZEN_FITS = [
    (
        ArimaOrder(1, 0, 1), _ARMA_SERIES,
        (0.5617136463705108,), (0.4503804174555872,),
        5.034724178637311, 1.0778653603057744, -125.03238179546983,
    ),
    (
        ArimaOrder(2, 0, 2), _ARMA_SERIES,
        (1.539550329041414, -0.6247408916647846),
        (-0.5410461106504572, -0.33809748360963604),
        4.997749859021331, 1.0803507511315138, -122.07963487786105,
    ),
    (
        ArimaOrder(5, 0, 5), 5.0 + _arma11_lcg(5, 30, 0.9, 0.0),
        (1.18886837242537, 1.609232204277642, -1.990585023707026,
         -0.6164571225216854, 0.8089415691437738),
        (0.17616651350690837, -1.506554478417638, -0.8456751418439605,
         0.5065578853544077, 0.669510909318387),
        84889579.54665664, 2.6927646534470013, -37.69870514825802,
    ),
]

# CSS of the Nelder-Mead fits of the same data, whose (1,0,1) and (2,0,2)
# fits were invertible; Levenberg-Marquardt must do no worse on them. On
# the (5,0,5) row, Nelder-Mead with the MA sign fixed reached 13.486, with
# partials on the old cap of 1 - 1e-7 (13.768 with the cap of 1 - 1e-3);
# Levenberg-Marquardt's five starts stop at a higher local minimum.
NELDER_MEAD_CSS = {
    ArimaOrder(1, 0, 1): 125.03251618498443,
    ArimaOrder(2, 0, 2): 122.15734030463436,
}


@pytest.mark.parametrize(
    "order, x, ar, ma, intercept, sigma2, loglik", FROZEN_FITS,
    ids=lambda v: f"{v.p}{v.d}{v.q}" if isinstance(v, ArimaOrder) else "",
)
def test_iterative_fit_is_frozen(order, x, ar, ma, intercept, sigma2, loglik):
    fit = fit_arima(x, order)
    assert _min_ma_root(fit.ma_coeffs) > 1.0
    assert fit.ar_coeffs == pytest.approx(ar, abs=1e-6)
    assert fit.ma_coeffs == pytest.approx(ma, abs=1e-6)
    assert fit.sigma2 == pytest.approx(sigma2, rel=1e-6)
    assert fit.loglik_proxy == pytest.approx(loglik, rel=1e-9)
    # The intercept is compared through the constant (1 - sum(phi)) mu,
    # which stays well-conditioned when an AR root nears the unit circle,
    # as on the (5,0,5) row.
    assert (1.0 - sum(fit.ar_coeffs)) * fit.intercept == pytest.approx(
        (1.0 - sum(ar)) * intercept, rel=1e-6
    )
    if order in NELDER_MEAD_CSS:
        assert -fit.loglik_proxy <= NELDER_MEAD_CSS[order]


def _eager_levenberg_marquardt(z, start, p, q, include_mean):
    """The Levenberg-Marquardt loop that builds the Jacobian of every trial
    point, with the damped matrix from np.diag; also returns the number of
    steps it began, each from the Jacobian at the current point."""
    x = start
    e, jacobian = _css_point(z, x, p, q, include_mean)
    jac = jacobian()
    css = float(e @ e)
    damping, growth = 1e-3, 2.0
    begun = 0
    for _ in range(_MAX_ITER):
        begun += 1
        gram = jac.T @ jac
        grad = jac.T @ e
        scale = np.diag(gram).copy()
        scale = np.maximum(scale, 1e-12 * max(float(scale.max()), 1e-300))
        while True:
            try:
                step = np.linalg.solve(gram + damping * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                trial = x + step
                e1, jacobian1 = _css_point(z, trial, p, q, include_mean)
                jac1 = jacobian1()
                css1 = float(e1 @ e1)
                if css1 < css:
                    break
            damping *= growth
            growth *= 2.0
            if damping > 1e16:
                return (css, x), begun
        predicted = float(step @ gram @ step + 2.0 * damping * step @ (scale * step))
        gain = (css - css1) / predicted if predicted > 0.0 else 1.0
        done = css - css1 <= _FTOL * css
        x, e, jac, css = trial, e1, jac1, css1
        if done:
            return (css, x), begun
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        growth = 2.0
    return None, begun


@pytest.mark.parametrize(
    "order, x, include_mean",
    [
        (ArimaOrder(1, 0, 1), _ARMA_SERIES, None),
        (ArimaOrder(2, 0, 2), _ARMA_SERIES, None),
        (FROZEN_FITS[2][0], FROZEN_FITS[2][1], None),
        (ArimaOrder(2, 0, 0), _ARMA_SERIES, None),
        (ArimaOrder(1, 0, 2), _ARMA_SERIES, False),
    ],
    ids=["101", "202", "505", "200", "102-no-mean"],
)
def test_lazy_levenberg_marquardt_matches_the_eager_loop(
    monkeypatch, order, x, include_mean
):
    # The series and the offset-0 start that fit_arima hands to the loop.
    problems = []
    real_lm = css._levenberg_marquardt

    def recording_lm(z, start, *rest):
        problems.append((z, start.copy(), rest))
        return real_lm(z, start, *rest)

    with monkeypatch.context() as m:
        m.setattr(css, "_levenberg_marquardt", recording_lm)
        fit_arima(x, order, include_mean)
    z, first, (p, q, mean) = problems[0]

    builds = []
    real_point = css._css_point

    def counting_point(*args):
        e, jacobian = real_point(*args)

        def counted():
            builds.append(1)
            return jacobian()

        return e, counted

    for offset in _RESTART_OFFSETS:
        start = first.copy()
        start[int(mean):] += offset
        want, begun = _eager_levenberg_marquardt(z, start.copy(), p, q, mean)
        builds.clear()
        with monkeypatch.context() as m:
            m.setattr(css, "_css_point", counting_point)
            got = css._levenberg_marquardt(z, start.copy(), p, q, mean)
        if want is None:
            assert got is None, offset
        else:
            assert got[0].hex() == want[0].hex(), offset
            assert got[1].tobytes() == want[1].tobytes(), offset
        # one Jacobian at the start, one per accepted step that does not
        # end the run
        assert len(builds) == begun, offset


def _damped_gram(rng, k):
    """A damped Gram system of k unknowns, built as _levenberg_marquardt
    builds it, with a random damping."""
    jac = rng.normal(size=(int(rng.integers(20, 200)), k))
    gram = jac.T @ jac
    diag = gram.diagonal()
    scale = np.maximum(diag, 1e-12 * max(float(diag.max()), 1e-300))
    damped = gram + 0.0
    damped.flat[::k + 1] = diag + 10.0 ** rng.uniform(-8.0, 4.0) * scale
    return damped, jac.T @ rng.normal(size=jac.shape[0])


def test_lapack_gufunc_solves_as_np_linalg_solve_bit_for_bit():
    # _levenberg_marquardt calls solve1, the gufunc that np.linalg.solve
    # runs for a 1-D right-hand side. A numpy release that renames it or
    # routes np.linalg.solve elsewhere fails here.
    rng = np.random.default_rng(41)
    for k in range(1, 2 + MAX_P + MAX_Q):
        for _ in range(200):
            a, b = _damped_gram(rng, k)
            with np.errstate(all="ignore"):
                got = solve1(a, -b)
            assert got.tobytes() == np.linalg.solve(a, -b).tobytes(), k


def test_singular_step_is_all_nan_and_its_trial_css_is_nan():
    # Where np.linalg.solve raises LinAlgError, solve1 gives an all-NaN
    # step, silently under the loop's errstate; the trial's CSS is then
    # NaN, and css1 < css rejects it.
    rng = np.random.default_rng(43)
    z = rng.normal(size=60)
    orders = itertools.product(range(MAX_P + 1), range(MAX_Q + 1), (False, True))
    for p, q, mean in orders:
        if p + q == 0:
            continue
        k = int(mean) + p + q
        a, b = _damped_gram(rng, k)
        # a zero column: the LU factorization meets an exactly zero pivot
        a[:, rng.integers(k)] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, -b)
        x = rng.uniform(-1.0, 1.0, k)
        e, _ = _css_point(z, x, p, q, mean)
        css = float(e @ e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                step = solve1(a, -b)
                e1, _ = _css_point(z, x + step, p, q, mean)
        assert step.shape == (k,) and np.isnan(step).all(), (p, q, mean)
        css1 = float(e1 @ e1)
        assert math.isnan(css1) and not css1 < css, (p, q, mean)


@pytest.mark.parametrize(
    "order, x, offset, singular",
    [
        (ArimaOrder(1, 0, 1), _ARMA_SERIES, 0.5, {1}),
        (ArimaOrder(2, 0, 2), _ARMA_SERIES, 0.5, {1, 2, 3, 7}),
        (FROZEN_FITS[2][0], FROZEN_FITS[2][1], 0.0, {2, 5, 6, 40}),
    ],
    ids=["101", "202", "505"],
)
def test_singular_solves_take_the_eager_loops_linalg_error_path(
    monkeypatch, order, x, offset, singular
):
    # The solves numbered in ``singular`` get an exactly singular (zero)
    # matrix: the eager oracle's np.linalg.solve raises LinAlgError, which
    # it catches, and the loop's solve1 returns NaN, which it rejects as a
    # trial. Both must take the same damping path to the same bits.
    z = (x - x.mean()) / np.sqrt(np.mean((x - x.mean()) ** 2))
    p, q = order.p, order.q
    start = np.array([0.0] + [offset] * (p + q))

    def zeroing(real, calls):
        def solve(a, b):
            calls.append(a.shape[0])
            return real(np.zeros_like(a) if len(calls) in singular else a, b)

        return solve

    eager_calls, lazy_calls = [], []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", zeroing(np.linalg.solve, eager_calls))
        want, _ = _eager_levenberg_marquardt(z, start.copy(), p, q, True)
    with monkeypatch.context() as m:
        m.setattr(css, "solve1", zeroing(solve1, lazy_calls))
        got = css._levenberg_marquardt(z, start.copy(), p, q, True)
    assert len(eager_calls) == len(lazy_calls) >= max(singular)
    assert want is not None
    assert got[0].hex() == want[0].hex()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize(
    "order, x", [row[:2] for row in FROZEN_FITS], ids=["101", "202", "505"]
)
def test_iterative_fit_warns_nothing_and_restores_the_errstate(order, x):
    for settings in ({}, {"divide": "ignore"}):
        with np.errstate(**settings):
            before = np.geterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit_arima(x, order)
            assert np.geterr() == before, settings


def test_ma_forecast_is_frozen():
    # Re-pinned when Levenberg-Marquardt replaced Nelder-Mead: the (2,0,2)
    # fit moved to a lower CSS, and the band with it.
    fit = fit_arima(_ARMA_SERIES, ArimaOrder(2, 0, 2))
    band = forecast(fit, _ARMA_SERIES, 3)
    assert band.mean == (5.180258507183982, 4.893716851970668, 4.723565193195646)
    assert band.upper == (7.217480990259118, 7.772630599445048, 7.8312187267323)


def _psi_reference(model: FittedArima, horizon: int) -> np.ndarray:
    """psi_weights with the recursion on array elements."""
    ar = np.array([1.0] + [-c for c in model.ar_coeffs])
    for _ in range(model.order.d):
        ar = np.convolve(ar, [1.0, -1.0])
    rec = -ar[1:]
    psi = np.empty(horizon)
    psi[0] = 1.0
    for j in range(1, horizon):
        v = model.ma_coeffs[j - 1] if j <= model.order.q else 0.0
        for i in range(1, min(j, rec.size) + 1):
            v += rec[i - 1] * psi[j - i]
        psi[j] = v
    return psi


def _forecast_mean_reference(model: FittedArima, x: np.ndarray, horizon: int):
    """The point forecast with the recursion on array elements, the
    integration tails from np.diff of the whole series and np.cumsum."""
    p, d = model.order.p, model.order.d
    z = np.asarray(difference(x, d)) - model.intercept
    n = z.size
    e = np.zeros(n)
    e[p:] = _css_residuals(z, np.asarray(model.ar_coeffs), np.asarray(model.ma_coeffs))
    zext = np.concatenate([z, np.zeros(horizon)])
    for t in range(n, n + horizon):
        v = 0.0
        for i, c in enumerate(model.ar_coeffs, start=1):
            v += c * zext[t - i]
        for j, c in enumerate(model.ma_coeffs, start=1):
            if t - j < n:
                v += c * e[t - j]
        zext[t] = v
    tails = [float(np.diff(x, k)[-1]) for k in range(d)]
    out = zext[n:] + model.intercept
    for tail in reversed(tails):
        out = tail + np.cumsum(out)
    return out


def test_forecast_recursion_matches_the_array_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p, q = (int(k) for k in rng.integers(0, 4, size=2))
        d = int(rng.integers(0, 3))
        model = FittedArima(
            order=ArimaOrder(p, d, q),
            ar_coeffs=tuple((rng.uniform(-0.9, 0.9, p) / max(p, 1)).tolist()),
            ma_coeffs=tuple((rng.uniform(-0.9, 0.9, q) / max(q, 1)).tolist()),
            intercept=float(rng.normal()),
            sigma2=float(rng.uniform(0.1, 5.0)),
            residuals=(), loglik_proxy=0.0,
        )
        x = np.cumsum(rng.normal(size=40)) * float(rng.uniform(0.1, 1e4))
        horizon = int(rng.integers(1, 25))
        assert np.array_equal(psi_weights(model, horizon), _psi_reference(model, horizon))
        band = forecast(model, x, horizon)
        assert band.mean == tuple(_forecast_mean_reference(model, x, horizon).tolist())
