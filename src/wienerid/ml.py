"""Maximum likelihood with the process noise marginalized by windowed
Gauss-Legendre quadrature.

Each log-likelihood term is a standard-normal expectation
log E{exp(-[y(t) - f(a(t) + sigma_v * s)]^2 / (2 sigma_e^2))}, s ~ N(0, 1).
For large outputs the integrand is a narrow peak (width about
sigma_e / (3 z^2) in z for the cubic), which fixed Gauss-Hermite nodes cannot
resolve, so every term gets its own integration window: the interval of s
outside which the integrand is below exp(-k^2 / 2) times its peak, found from
the standardized distances of the measurement-noise factor and of the
process-noise factor (see `_windows`).  A Gauss-Legendre rule with
`MlSettings.quad_order` nodes covers that window, and the sum is taken as a
max-shifted log-sum-exp, so the fast decay of the integrand cannot underflow a
whole term.  Additive constants of the likelihood that do not depend on theta
are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import OptimizerSettings, gauss_legendre, minimize_scalar
from .reports import EstimateReport
from .system import DataRecord, NonlinearityKind, SystemSpec, linear_output

DEFAULT_QUAD_ORDER = 1000

# window edges sit WINDOW_K standard deviations beyond the integrand's peak
WINDOW_K = 9.0

# likelihood terms integrated per array pass; keeps the work arrays in cache
ROW_BLOCK = 32

# increasing nonlinearities whose inverse bounds the measurement-noise window
_INVERSES = {NonlinearityKind.CUBIC: np.cbrt, NonlinearityKind.IDENTITY: np.positive}


class QuadratureUnderflowError(Exception):
    """Every quadrature term of at least one likelihood term underflowed."""

    def __init__(self, theta, time_indices):
        self.theta = theta
        self.time_indices = time_indices
        super().__init__(
            f"likelihood terms at t = {list(time_indices)} underflowed at theta = {theta}"
        )


@dataclass(frozen=True)
class MlSettings:
    """quad_order is the node count of the Gauss-Legendre rule that
    integrates each likelihood term over its window; 200 is converged to
    about 1e-13 per term on the paper's system."""

    quad_order: int = DEFAULT_QUAD_ORDER
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    log_space: bool = True

    def __post_init__(self):
        if self.quad_order < 1:
            raise ValueError("quad_order must be >= 1")


def _windows(y, a, nonlinearity, sigma_v: float, sigma_e: float):
    """Integration window [lo, hi] in s = v / sigma_v for every term.

    With d_e(z) = |y - f(z)| / sigma_e and d_v(z) = |z - a| / sigma_v the
    integrand is exp(-(d_e^2 + d_v^2) / 2).  Its peak has d_e^2 + d_v^2 at
    most B^2, the smaller of its values at z = a and at z = f^-1(y), so
    every z where the integrand exceeds exp(-k^2 / 2) times the peak has both
    distances at most K = sqrt(k^2 + B^2).  The window is therefore the
    process-noise interval [a - K sigma_v, a + K sigma_v] intersected with
    the measurement-noise interval [f^-1(y - K sigma_e), f^-1(y + K sigma_e)].
    It always contains the peak, also where the two intervals at K = k do not
    overlap.  Only the cubic and the identity have a known monotone inverse;
    for other nonlinearities the window is the process-noise interval alone,
    with B taken at z = a.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(y - nonlinearity.value(a)) / sigma_e
    inverse = _INVERSES.get(nonlinearity.kind)
    if inverse is None:
        reach = np.hypot(WINDOW_K, gap)
        return -reach, reach
    gap = np.minimum(gap, np.abs(inverse(y) - a) / sigma_v)
    reach = np.hypot(WINDOW_K, gap)
    lo = np.maximum(-reach, (inverse(y - reach * sigma_e) - a) / sigma_v)
    hi = np.minimum(reach, (inverse(y + reach * sigma_e) - a) / sigma_v)
    return lo, hi


def _log_terms(y, a, spec: SystemSpec, settings: MlSettings) -> np.ndarray:
    """Per-term log E{exp(-(y - f(a + v))^2 / (2 sigma_e^2))} over v."""
    nl = spec.nonlinearity
    scale = -0.5 / spec.sigma_e2
    if spec.sigma_v2 == 0.0:
        resid = y - nl.value(a)
        with np.errstate(over="ignore"):
            return resid * resid * scale
    sigma_v = math.sqrt(spec.sigma_v2)
    lo, hi = _windows(y, a, nl, sigma_v, math.sqrt(spec.sigma_e2))
    center = 0.5 * (lo + hi)
    half = 0.5 * np.maximum(hi - lo, 0.0)
    nodes, log_w = gauss_legendre(settings.quad_order)
    out = np.empty(len(y))
    # work arrays reused across row blocks: s, then the residual, then log g
    s_buf, r_buf, g_buf = (np.empty((ROW_BLOCK, len(nodes))) for _ in range(3))
    for start in range(0, len(y), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        m = len(out[rows])
        s, r, g = s_buf[:m], r_buf[:m], g_buf[:m]
        np.multiply(half[rows, None], nodes, out=s)
        s += center[rows, None]
        np.multiply(s, sigma_v, out=r)
        r += a[rows, None]
        np.subtract(y[rows, None], nl.value(r), out=r)
        # overflow of resid^2 to inf is fine, that node just drops out
        with np.errstate(over="ignore"):
            np.multiply(r, r, out=r)
        r *= scale
        np.multiply(s, s, out=g)
        g *= -0.5
        g += r
        g += log_w
        # max shift so that no term underflows as a whole; rows that are
        # -inf or nan throughout pass through unshifted
        if settings.log_space:
            peak = g.max(axis=1)
            shift = np.where(np.isfinite(peak), peak, 0.0)
            g -= shift[:, None]
        else:
            shift = 0.0
        np.exp(g, out=g)
        with np.errstate(divide="ignore"):
            out[rows] = np.log(g.sum(axis=1)) + shift
    with np.errstate(divide="ignore"):
        return out + np.log(half) - 0.5 * math.log(2.0 * math.pi)


def neg_log_likelihood(
    theta: float,
    data: DataRecord,
    spec_template: SystemSpec,
    settings: MlSettings = MlSettings(),
) -> float:
    """Negative log-likelihood up to a theta-independent additive constant.

    With sigma_v2 = 0 each term is -(y - f(a))^2 / (2 sigma_e^2) exactly.
    A term that is not finite (every node underflowed, or non-finite data)
    raises QuadratureUnderflowError with its 1-based time index.
    """
    if spec_template.sigma_e2 <= 0:
        raise ValueError("sigma_e2 must be positive for the likelihood")
    a = linear_output(spec_template.fir, [float(theta)], data.u)[-data.n_obs:]
    per_term = _log_terms(data.y, a, spec_template, settings)
    if not np.all(np.isfinite(per_term)):
        bad = np.flatnonzero(~np.isfinite(per_term)) + 1
        raise QuadratureUnderflowError(float(theta), bad.tolist())
    return -float(np.sum(per_term))


def ml_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    settings: MlSettings = MlSettings(),
) -> EstimateReport:
    """Minimize the negative log-likelihood over the optimizer bracket."""
    if spec_template.fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")

    def cost(theta):
        # one likelihood per grid point: a (G, N, nodes) batch would only
        # multiply the memory, the work per point is the same
        if np.ndim(theta):
            return np.array([cost(t) for t in theta])
        return neg_log_likelihood(theta, data, spec_template, settings)

    result = minimize_scalar(cost, settings.optimizer)
    return EstimateReport(result.argmin, method="ml", diagnostics=result)
