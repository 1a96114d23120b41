"""Prediction-error minimization with the conditional-mean predictor.

For the cubic nonlinearity both predictor moments have closed forms; other
polynomial nonlinearities fall back to Gauss-Hermite integration over the
process noise.  The weighted variant freezes its per-sample weights at a
consistent unweighted initial estimate.

Both searches can start at a consistent first estimate (`bench.run_method`
passes II0's, which is closed form): the unweighted one scans 9 points on
theta_II0 +- 6 predicted stds, the weighted one 9 points around the
unweighted estimate at the same scale, and each refines in its grid's cell.
That is about 35 cost evaluations per PEM_W fit against 140 for two 61-point
scans of the whole bracket.  Without a start, or when the local minimum
lands on an inner edge of the small grid, the full scan runs (see
`numerics.minimize_scalar`).
"""

from __future__ import annotations

import numpy as np

from .numerics import Estimate, OptimizerSettings, gauss_hermite, minimize_scalar, search_start
from .system import DataRecord, Nonlinearity, NonlinearityKind, SystemSpec, cubic, linear_output

FALLBACK_QUAD_ORDER = 50


def conditional_mean(nl: Nonlinearity, a, sigma_v2: float):
    """E{f(a + v)} for v ~ N(0, sigma_v2), elementwise in a."""
    a = np.asarray(a, dtype=float)
    if nl.kind is NonlinearityKind.CUBIC:
        # E{(a+v)^3} = a^3 + 3 a sigma_v2 (odd gaussian moments vanish)
        return a * a * a + 3.0 * a * sigma_v2
    if nl.kind is NonlinearityKind.IDENTITY:
        return a + 0.0
    return _quad_moments(nl, a, sigma_v2)[0]


def conditional_variance(nl: Nonlinearity, a, sigma_v2: float, sigma_e2: float):
    """E{(y - E{y})^2} given the input history; always >= sigma_e2."""
    a = np.asarray(a, dtype=float)
    if nl.kind is NonlinearityKind.CUBIC:
        sv2 = sigma_v2
        a2 = a * a
        return 9.0 * sv2 * a2 * a2 + 36.0 * sv2**2 * a2 + 15.0 * sv2**3 + sigma_e2
    if nl.kind is NonlinearityKind.IDENTITY:
        return np.full_like(a, sigma_v2 + sigma_e2)
    mean, second = _quad_moments(nl, a, sigma_v2)
    return np.maximum(second - mean**2, 0.0) + sigma_e2


def _quad_moments(nl: Nonlinearity, a: np.ndarray, sigma_v2: float):
    """First and second moments of f(a + v) by Gauss-Hermite over v.

    Accumulated node by node, so the work arrays stay the shape of a (a
    (G, N) batch of PEM predictions needs no (G, N, nodes) array).
    """
    rule = gauss_hermite(FALLBACK_QUAD_ORDER)
    v = np.sqrt(2.0 * sigma_v2) * rule.nodes
    norm = rule.weights / np.sqrt(np.pi)
    mean, second = np.zeros_like(a), np.zeros_like(a)
    for v_k, w_k in zip(v, norm):
        fv = nl.value(a + v_k)
        mean += w_k * fv
        second += w_k * (fv * fv)
    return mean, second


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
    start: Estimate | None = None,
) -> Estimate:
    """Minimize the (optionally variance-weighted) mean-square prediction error.

    The weighted search divides each squared prediction error by the
    prediction-error variance evaluated at the unweighted initial estimate;
    the weights stay frozen during the second search.

    start, a consistent first estimate with a finite predicted std (II0's),
    seeds the unweighted search with a small scan around its theta_hat, and
    the weighted search with one around the unweighted estimate at the same
    scale; the weighted search scans the whole bracket when the unweighted
    one stopped at a bracket edge.  Without a start both scan the whole
    bracket.
    """
    if spec_template.fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")
    nl = spec_template.nonlinearity
    sv2, se2 = spec_template.sigma_v2, spec_template.sigma_e2
    y = data.y
    u = data.u
    fir = spec_template.fir

    def pred_errors(theta):
        # a float theta gives (N,) errors, a (G,) array gives (G, N); the
        # trailing slice aligns records whose lead exceeds the FIR depth
        a = linear_output(fir, np.asarray(theta)[..., None], u)[..., -len(y):]
        return y - conditional_mean(nl, a, sv2)

    def unweighted_cost(theta):
        return np.mean(pred_errors(theta) ** 2, axis=-1)

    seed = search_start(start)
    initial = minimize_scalar(unweighted_cost, settings, start=seed)
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

    if seed is not None:
        # at a bracket edge the unweighted minimum may lie outside the bracket
        seed = None if initial.at_bracket_edge else (initial.argmin, seed[1])
    final = minimize_scalar(weighted_cost, settings, start=seed)
    return Estimate(np.array([final.argmin]), diagnostics=final)
