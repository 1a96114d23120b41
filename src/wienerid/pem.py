"""Prediction-error minimization with the conditional-mean predictor.

Both predictor moments are exact: closed forms for the cubic and the
identity, and for any other polynomial nonlinearity the gaussian moments of
the process noise, E{(a + v)^k} = sum_j C(k, j) a^(k-j) E{v^j}.  The
weighted variant freezes its per-sample weights at the unweighted estimate.

The predictor is a polynomial of degree deg f in theta, so either cost is a
polynomial of degree 2 deg f and each search is exact (`numerics.poly_argmin`):
2 deg f + 1 cost evaluations, in one call, interpolate it, 7 for the cubic.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .numerics import Estimate, OptimizerSettings, poly_argmin
from .system import DataRecord, Nonlinearity, NonlinearityKind, SystemSpec, cubic, linear_output


def _smoothed(coeffs, sigma_v2: float) -> np.ndarray:
    """Ascending coefficients in a of E{p(a + v)}, v ~ N(0, sigma_v2), for p of
    ascending coefficients `coeffs`; E{v^2i} = (2i - 1)!! sigma_v2^i, odd ones 0."""
    moments = np.ones(len(coeffs))  # read at even j only
    for j in range(2, len(coeffs), 2):
        moments[j] = moments[j - 2] * (j - 1) * sigma_v2
    out = np.zeros(len(coeffs))
    for k, c_k in enumerate(coeffs):
        for j in range(0, k + 1, 2):
            out[k - j] += c_k * math.comb(k, j) * moments[j]
    return out


def conditional_mean(nl: Nonlinearity, a, sigma_v2: float):
    """E{f(a + v)} for v ~ N(0, sigma_v2), elementwise in a."""
    a = np.asarray(a, dtype=float)
    if nl.kind is NonlinearityKind.CUBIC:
        # E{(a+v)^3} = a^3 + 3 a sigma_v2 (odd gaussian moments vanish)
        return a * a * a + 3.0 * a * sigma_v2
    if nl.kind is NonlinearityKind.IDENTITY:
        return a + 0.0
    return npoly.polyval(a, _smoothed(nl.coeffs, sigma_v2))


def conditional_variance(nl: Nonlinearity, a, sigma_v2: float, sigma_e2: float):
    """E{(y - E{y})^2} given the input history; always >= sigma_e2."""
    a = np.asarray(a, dtype=float)
    if nl.kind is NonlinearityKind.CUBIC:
        sv2 = sigma_v2
        a2 = a * a
        return 9.0 * sv2 * a2 * a2 + 36.0 * sv2**2 * a2 + 15.0 * sv2**3 + sigma_e2
    if nl.kind is NonlinearityKind.IDENTITY:
        return np.full_like(a, sigma_v2 + sigma_e2)
    second = npoly.polyval(a, _smoothed(npoly.polymul(nl.coeffs, nl.coeffs), sigma_v2))
    mean = conditional_mean(nl, a, sigma_v2)
    return np.maximum(second - mean**2, 0.0) + sigma_e2


def predict(theta: float, u_t, u_tm1, sigma_v2: float):
    """Conditional-mean output prediction for the lag-one FIR with unit fixed tap."""
    return conditional_mean(cubic(), np.multiply(theta, u_t) + u_tm1, sigma_v2)


def prediction_variance(theta: float, u_t, u_tm1, sigma_v2: float, sigma_e2: float):
    """Variance of the prediction error for the lag-one FIR with unit fixed tap."""
    return conditional_variance(cubic(), np.multiply(theta, u_t) + u_tm1, sigma_v2, sigma_e2)


def pem_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    weighted: bool = True,
    settings: OptimizerSettings = OptimizerSettings(),
) -> Estimate:
    """Minimize the (optionally variance-weighted) mean-square prediction error.

    The weighted search divides each squared prediction error by the
    prediction-error variance evaluated at the unweighted estimate; the
    weights stay frozen during the second search.
    """
    if spec_template.fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")
    nl = spec_template.nonlinearity
    sv2, se2 = spec_template.sigma_v2, spec_template.sigma_e2
    y = data.y
    u = data.u
    fir = spec_template.fir
    degree = 2 * nl.degree

    def pred_errors(theta):
        # a float theta gives (N,) errors, a (G,) array gives (G, N); the
        # trailing slice aligns records whose lead exceeds the FIR depth
        a = linear_output(fir, np.asarray(theta)[..., None], u)[..., -len(y):]
        return y - conditional_mean(nl, a, sv2)

    def unweighted_cost(theta):
        return np.mean(pred_errors(theta) ** 2, axis=-1)

    initial = poly_argmin(unweighted_cost, degree, settings)
    if not weighted:
        return Estimate(np.array([initial.argmin]), diagnostics=initial)

    a = linear_output(fir, [initial.argmin], u)[-len(y):]
    weights = conditional_variance(nl, a, sv2, se2)
    w_max = float(np.max(weights))
    if w_max <= 0.0:
        # noise-free data: constant (zero) weights reduce to the unweighted cost
        weights = np.ones_like(weights)
    else:
        weights = np.maximum(weights, 1e-12 * w_max)

    def weighted_cost(theta):
        return np.mean(pred_errors(theta) ** 2 / weights, axis=-1)

    final = poly_argmin(weighted_cost, degree, settings)
    return Estimate(np.array([final.argmin]), diagnostics=final)
