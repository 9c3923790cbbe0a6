"""The iterative (p+q>0) CSS fit; the only module of aamcba that imports
numpy.

The optimizer is Levenberg-Marquardt on a standardized copy of the series,
with an analytic Jacobian (the residual recursion's derivatives, filtered
by 1/theta(B)) and five restarts. It works in an unconstrained space that
maps through a scaled tanh to partial autocorrelations and then, via the
Levinson recursion, to phi and -theta, so stationarity and invertibility
hold by construction for any order. Each damped step system goes straight
to LAPACK's gesv through ``solve1``, the private gufunc under
``np.linalg.solve`` (see _levenberg_marquardt). The MA filter runs in
blocks, so its cost is linear in the series length.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .arima import MAX_Q, ArimaOrder, FittedArima, _fitted
from .common import ForecastError
from .correlation import pacf

# Partial autocorrelations are scaled just inside the unit interval so the
# implied polynomial roots stay outside the unit circle even when the
# optimizer saturates tanh (e.g. an exactly constant differenced series).
# The step-down root check would accept a cap much closer to 1; this one
# stays because moving it moves the fits.
_PARTIAL_CAP = 1.0 - 1e-3

_RESTART_OFFSETS = (0.0, 0.5, -0.5, 1.0, -1.0)

# Levenberg-Marquardt iterations per start, and the relative CSS decrease
# of an accepted step below which a start has converged.
_MAX_ITER = 200
_FTOL = 1e-9

# Steps per block of the MA filter (see _inverse_ma), and the block
# matrix's index into the impulse response: the lag t - s at or below the
# diagonal, else the 0.0 after h.
_BLOCK = 32
_BLOCK_LAGS = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
_BLOCK_LAGS[_BLOCK_LAGS < 0] = _BLOCK


def _levinson(partials: list[float]):
    """The Levinson recursion from partial autocorrelations r in (-1, 1) to
    the coefficients a of 1 - a_1 z - ... - a_k z^k, whose roots then lie
    outside the unit circle, and a function that returns its Jacobian:
    ``jac[i][s]`` = da_i/dr_s.

    The Jacobian reads the coefficient lists that the recursion records at
    each step. Its step s builds only columns 0..s, the ones r_0..r_s reach;
    the later columns would hold +0.0. The new column s is 0.0 - rev[i],
    the +0.0 it held minus rev[i]: -rev[i] would turn a +0.0 into -0.0.
    """
    steps: list[list[float]] = [[]]
    for r in partials:
        a = steps[-1]
        steps.append([x - r * y for x, y in zip(a, a[::-1])] + [r])

    def jacobian() -> list[list[float]]:
        jac: list[list[float]] = []
        for s, r in enumerate(partials):
            rev = steps[s][::-1]
            jac = [
                [x - r * y for x, y in zip(jac[i], jac[s - 1 - i])] + [0.0 - rev[i]]
                for i in range(s)
            ] + [[0.0] * s + [1.0]]
        return jac

    return steps[-1], jacobian


def _ma_impulse_response(theta: list[float]) -> list[float]:
    """h_0..h_{_BLOCK-1}, the impulse response of 1/theta(B) for the floats
    theta_1..theta_q, q <= MAX_Q: h_0 = 1, h_t = -(theta_1 h_{t-1} + ... +
    theta_q h_{t-q}) with h at 0.0 before t=0.

    One recursion over MAX_Q lags serves every q: theta is padded with 0.0.
    Each sum runs left to right (sum() rounds differently from 3.12 on)
    from +0.0, so it is never -0.0, and the padded terms, each +-0.0, leave
    every bit of h as the q-term sum has it.
    """
    t1, t2, t3, t4, t5 = theta + [0.0] * (MAX_Q - len(theta))
    h1 = 1.0
    h2 = h3 = h4 = h5 = 0.0
    h = [1.0]
    for _ in range(_BLOCK - 1):
        h1, h2, h3, h4, h5 = (
            -(0.0 + t1 * h1 + t2 * h2 + t3 * h3 + t4 * h4 + t5 * h5),
            h1, h2, h3, h4,
        )
        h.append(h1)
    return h


def _inverse_ma(theta):
    """The filter 1/theta(B), theta(B) = 1 + theta_1 B + ... + theta_q B^q,
    from a zero state: y_t = x_t - theta_1 y_{t-1} - ... - theta_q y_{t-q}.

    The returned function filters the columns of an (m, k) array. It runs
    in blocks of ``_BLOCK`` steps: inside a block, y is the block's input
    convolved with the impulse response of 1/theta(B), plus the response to
    the q outputs carried over from the block before. The cost is linear
    in m, and the Python loop runs once per block, not once per step.
    """
    theta = [float(c) for c in theta]
    q, size = len(theta), _BLOCK
    conv = np.array(_ma_impulse_response(theta) + [0.0])[_BLOCK_LAGS]
    # The carried output y_{s-1-i} enters y_{s+t} of the block starting at s
    # through the term -theta_j y_{s+t-j} with j = t+1+i <= q.
    carry_in = np.zeros((size, q))
    for i in range(q):
        for t in range(q - i):
            carry_in[t, i] = -theta[t + i]
    carry = conv @ carry_in

    def apply(x):
        m, k = x.shape
        blocks = -(-m // size)
        padded = np.zeros((blocks * size, k))
        padded[:m] = x
        y = conv @ padded.reshape(blocks, size, k)
        for b in range(1, blocks):
            y[b] += carry @ y[b - 1, size - 1:size - 1 - q:-1]
        return y.reshape(blocks * size, k)[:m]

    return apply


def _css_residuals(z, phi, theta):
    """One-step errors conditioned on the first p values and zero presample
    errors: (1 - phi(B)) z filtered by 1/theta(B), from t=p, as an array.
    ``z``, ``phi`` and ``theta`` are sequences of floats."""
    z = np.asarray(z)
    p = len(phi)
    zt = z[p:].copy()
    for i in range(1, p + 1):
        zt -= phi[i - 1] * z[p - i:z.size - i]
    if len(theta):
        return _inverse_ma(theta)(zt[:, None])[:, 0]
    return zt


def _unpack(params, p: int, q: int, include_mean: bool):
    """Constant, AR partials' tanh and MA partials' tanh of a parameter
    vector laid out as [constant] + p AR + q MA unconstrained values."""
    i = int(include_mean)
    const = float(params[0]) if include_mean else 0.0
    return const, np.tanh(params[i:i + p]), np.tanh(params[i + p:i + p + q])


def _coeffs(t_ar, t_ma):
    """phi and theta, with functions that return their Jacobians in the
    partials: each unconstrained value v maps to the partial
    _PARTIAL_CAP * tanh(v), the AR partials by the Levinson recursion to phi,
    and the MA ones to -theta, so 1 - phi(z) and theta(z) = 1 + theta_1 z + ...
    both have their roots outside the unit circle."""
    phi, dphi = _levinson((_PARTIAL_CAP * t_ar).tolist())
    neg_theta, dneg = _levinson((_PARTIAL_CAP * t_ma).tolist())
    return (
        phi, dphi,
        [-c for c in neg_theta], lambda: [[-v for v in row] for row in dneg()],
    )


def _css_point(z, params, p: int, q: int, include_mean: bool):
    """CSS residuals of the standardized series ``z`` at ``params``, and a
    function that returns their derivatives in ``params`` (Box, Jenkins &
    Reinsel, section 7.2).

    The mean enters as the constant c = (1 - phi(1)) mu, which stays
    identified when an AR root nears the unit circle. With
    u_t = (1 - phi(B)) z_t - c for t >= p and F the filter 1/theta(B) from a
    zero state, e = F u, de/dc = -F 1, de/dphi_i = -F z_{t-i} and
    de/dtheta_j = -F e_{t-j}, which is -F e shifted by j steps, so one more
    filter gives every MA column. The chain rule then runs through the
    Levinson recursion and tanh.

    The residuals are filtered together with the columns of de/dc and
    de/dphi; the Jacobian function reuses those columns and the filter,
    and does the rest of the work only when it is called.
    """
    const, t_ar, t_ma = _unpack(params, p, q, include_mean)
    phi, dphi, theta, dtheta = _coeffs(t_ar, t_ma)
    n, i0 = z.size, int(include_mean)
    # column 0: u; then du/dc when a mean is fitted; then du/dphi_i
    cols = np.empty((n - p, 1 + i0 + p))
    cols[:, 0] = _css_residuals(z, phi, ()) - const
    if include_mean:
        cols[:, 1] = -1.0
    for i in range(1, p + 1):
        cols[:, i0 + i] = -z[p - i:n - i]
    if q:
        inverse = _inverse_ma(theta)
        cols = inverse(cols)
    e = cols[:, 0]

    def jacobian():
        jac = np.empty((n - p, i0 + p + q))
        if include_mean:
            jac[:, 0] = cols[:, 1]
        if p:
            jac[:, i0:i0 + p] = cols[:, 1 + i0:] @ (
                np.array(dphi()) * (_PARTIAL_CAP * (1.0 - t_ar * t_ar))
            )
        if q:
            fe = inverse(e[:, None])[:, 0]
            shifted = np.zeros((n - p, q))
            for j in range(1, q + 1):
                shifted[j:, j - 1] = -fe[:n - p - j]
            jac[:, i0 + p:] = shifted @ (
                np.array(dtheta()) * (_PARTIAL_CAP * (1.0 - t_ma * t_ma))
            )
        return jac

    return e, jacobian


def _levenberg_marquardt(z, start, p: int, q: int, include_mean: bool):
    """Minimize the CSS of ``z`` from ``start`` by Levenberg-Marquardt with
    Marquardt's diagonal scaling. The damping follows the ratio of the
    actual to the predicted CSS decrease (Nielsen's update).

    A trial point costs its residuals only. The Jacobian is built at the
    start and at each accepted point that the next step starts from, so
    never for a rejected trial or for the step that ends the run.

    Each step solves its damped system with ``solve1``, the LAPACK gesv
    gufunc that ``np.linalg.solve`` dispatches to for a 1-D right-hand
    side: on systems of 1 to 11 unknowns, the wrapper's per-call errstate
    and type checks cost three to four times the solve. So one errstate
    serves the whole run, and the bits are those of ``np.linalg.solve``.
    A singular system, where ``np.linalg.solve`` raises, gives an all-NaN
    step; its trial CSS is NaN, which never beats the current CSS, so the
    step is rejected and the damping grows, as for any rejected trial.

    Returns (css, params) once a step lowers the CSS by at most a relative
    ``_FTOL``, or no step lowers it at all; None when neither happens
    within ``_MAX_ITER`` steps.
    """
    with np.errstate(all="ignore"):
        x = start
        e, jacobian = _css_point(z, x, p, q, include_mean)
        css = float(e @ e)
        damping, growth = 1e-3, 2.0
        for _ in range(_MAX_ITER):
            jac = jacobian()
            gram = jac.T @ jac
            grad = jac.T @ e
            diag = gram.diagonal()
            # a partial saturated at the cap leaves a zero column
            scale = np.maximum(diag, 1e-12 * max(float(diag.max()), 1e-300))
            while True:
                # gram + damping * diag(scale), bit for bit: + 0.0 turns an
                # off-diagonal -0.0 into +0.0, as adding damping * 0.0 does
                damped = gram + 0.0
                damped.flat[::diag.size + 1] = diag + damping * scale
                step = solve1(damped, -grad)
                trial = x + step
                e1, jacobian1 = _css_point(z, trial, p, q, include_mean)
                css1 = float(e1 @ e1)
                if css1 < css:
                    break
                damping *= growth
                growth *= 2.0
                if damping > 1e16:
                    return css, x
            # the decrease |e|^2 - |e + J step|^2 of the linearized model
            predicted = float(
                step @ gram @ step + 2.0 * damping * step @ (scale * step)
            )
            gain = (css - css1) / predicted if predicted > 0.0 else 1.0
            done = css - css1 <= _FTOL * css
            x, e, jacobian, css = trial, e1, jacobian1, css1
            if done:
                return css, x
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
    return None


def fit_css(
    w: list[float], order: ArimaOrder, include_mean: bool, n_params: int
) -> FittedArima:
    """Fit the iterative (p+q>0) ``order`` to the differenced series ``w``
    by conditional sum of squares; ``n_params`` counts the coefficients and
    the mean, if fitted."""
    p, q = order.p, order.q
    w = np.array(w)

    # Optimize on a standardized copy so the convergence tolerances mean
    # the same thing whatever the data units; AR/MA coefficients are
    # invariant under the affine map and the mean/variance map back exactly.
    with np.errstate(over="ignore", invalid="ignore"):
        shift = float(w.mean()) if include_mean else 0.0
        scale = float(np.sqrt(np.mean((w - shift) ** 2)))
    if not math.isfinite(scale):
        raise ForecastError("the series' spread overflows float64 when squared")
    if scale == 0.0:
        scale = 1.0
    z = (w - shift) / scale

    ar0 = [0.0] * p
    if p:
        try:
            ar0 = [
                math.atanh(max(-0.9, min(0.9, r)) / _PARTIAL_CAP)
                for r in pacf(z.tolist(), p)[1:]
            ]
        except ForecastError:
            pass
    base = np.array([0.0] * int(include_mean) + ar0 + [0.0] * q)
    best = None
    for offset in _RESTART_OFFSETS:
        start = base.copy()
        start[int(include_mean):] += offset
        res = _levenberg_marquardt(z, start, p, q, include_mean)
        if res is None:
            continue
        if best is not None and abs(res[0] - best[0]) <= 1e-9 * max(1.0, abs(best[0])):
            if res[0] < best[0]:
                best = res
            break
        if best is None or res[0] < best[0]:
            best = res
    if best is None:
        raise ForecastError(
            f"CSS optimizer failed to converge for order "
            f"({order.p},{order.d},{order.q})"
        )

    const, t_ar, t_ma = _unpack(best[1], p, q, include_mean)
    phi, _, theta, _ = _coeffs(t_ar, t_ma)
    mu = shift + scale * const / (1.0 - math.fsum(phi))
    e = _css_residuals(w - mu, phi, theta)
    return _fitted(
        order, tuple(phi), tuple(theta), float(mu), tuple(e.tolist()),
        float(e @ e), n_params,
    )
