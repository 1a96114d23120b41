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
`MlSettings.quad_order` nodes covers that window.  This is the one module
that tells one f from another, by coefficients: the cube and the identity
bound the window by their inverses, and the cube has its own kernel.

The terms are integrated in blocks of ROW_BLOCK rows with two reused work
arrays, in about eleven array passes per block (see `_log_terms`), and every
row is shifted by its peak exponent, so the fast decay of the integrand
cannot underflow a whole term.  Additive constants of the likelihood that do
not depend on theta are dropped.

The likelihood is not a polynomial in theta but it is analytic, so its
search (`numerics.minimize_scalar`) minimizes its degree-10 interpolant at
Chebyshev points, by `poly_argmin` as the other criteria.  It can start at a
consistent first estimate (bench passes the II1_W of the same record, the
stack of one of the table's II1_W Step 2, from the BLA fit and binding
function that the methods of the record share): the interpolant then covers
theta_start +- 6 predicted stds, 11 likelihood evaluations in all.  When
its minimum lands on an edge of that window inside the bracket, or the start
has no finite std, a 61-point scan of the whole bracket runs and the
interpolant covers the cell around the scan's minimum, 72 evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Estimate,
    OptimizerSettings,
    check_quad_order,
    gauss_legendre,
    minimize_scalar,
    _roots,
)
from .system import DataRecord, SystemSpec, cubic, identity, linear_output

DEFAULT_QUAD_ORDER = 1000

# window edges sit WINDOW_K standard deviations beyond the integrand's peak
WINDOW_K = 9.0

# likelihood terms integrated per array pass; keeps the work arrays in cache
ROW_BLOCK = 16

# the most negative double: the shift of a row whose terms are all -inf
_LOWEST = np.finfo(float).min

# the cube has a kernel of its own; it and the identity, increasing, bound
# the measurement-noise window by their inverses
_CUBE = cubic().coeffs
_INVERSES = {_CUBE: np.cbrt, identity().coeffs: np.positive}


class QuadratureUnderflowError(Exception):
    """At least one likelihood term is not finite: every quadrature node
    underflowed, or a squared residual overflowed."""

    def __init__(self, theta, time_indices):
        self.theta = theta
        self.time_indices = time_indices
        super().__init__(
            f"likelihood terms at t = {list(time_indices)} are not finite "
            f"(underflow or overflow) at theta = {theta}"
        )


@dataclass(frozen=True)
class MlSettings:
    """quad_order is the node count of the Gauss-Legendre rule that
    integrates each likelihood term over its window; 200 is converged to
    about 1e-13 per term on the paper's system."""

    quad_order: int = DEFAULT_QUAD_ORDER
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):
        check_quad_order(self.quad_order, "quad_order")


def _level_set_hull(coeffs, low, high):
    """Smallest and largest z with low <= f(z) <= high, per entry, for the
    polynomial f with ascending coefficients `coeffs`.

    The ends of that set are real roots of f(z) = low or f(z) = high, taken
    here from one stacked companion eigensolve (`numerics._roots`).  Roots
    whose imaginary part is within rounding of zero count as real, which can
    only widen the hull.  A non-finite level gives NaN ends.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) < 2:
        return np.full(len(low), -np.inf), np.full(len(low), np.inf)
    levels = np.concatenate([low, high])
    finite = np.isfinite(levels)
    shifted = np.tile(c, (np.count_nonzero(finite), 1))
    shifted[:, 0] -= levels[finite]
    roots = np.full((len(levels), len(c) - 1), np.nan, dtype=complex)
    roots[finite] = _roots(shifted)
    real = np.where(np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots)), roots.real, np.nan)
    first, last = np.fmin.reduce(real, axis=1), np.fmax.reduce(real, axis=1)
    n = len(low)
    return np.fmin(first[:n], first[n:]), np.fmax(last[:n], last[n:])


def _windows(y, a, nonlinearity, sigma_v: float, sigma_e: float):
    """Integration window [lo, hi] in s = v / sigma_v for every term.

    With d_e(z) = |y - f(z)| / sigma_e and d_v(z) = |z - a| / sigma_v the
    integrand is exp(-(d_e^2 + d_v^2) / 2).  Its peak has d_e^2 + d_v^2 at
    most B^2, the smaller of its values at z = a and at z = f^-1(y), so
    every z where the integrand exceeds exp(-k^2 / 2) times the peak has both
    distances at most K = sqrt(k^2 + B^2).  The window is therefore the
    process-noise interval [a - K sigma_v, a + K sigma_v] intersected with
    the measurement-noise set {z : |y - f(z)| <= K sigma_e}.  It always
    contains the peak, also where the two sets at K = k do not overlap.  For
    the cubic and the identity that set is [f^-1(y - K sigma_e),
    f^-1(y + K sigma_e)]; a general polynomial need not be invertible, so its
    window takes the hull of the set (see `_level_set_hull`), with B taken
    at z = a.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(y - nonlinearity.value(a)) / sigma_e
    inverse = _INVERSES.get(nonlinearity.coeffs)
    if inverse is None:
        reach = np.hypot(WINDOW_K, gap)
        z_lo, z_hi = _level_set_hull(
            nonlinearity.coeffs, y - reach * sigma_e, y + reach * sigma_e
        )
    else:
        gap = np.minimum(gap, np.abs(inverse(y) - a) / sigma_v)
        reach = np.hypot(WINDOW_K, gap)
        z_lo, z_hi = inverse(y - reach * sigma_e), inverse(y + reach * sigma_e)
    lo = np.maximum(-reach, (z_lo - a) / sigma_v)
    hi = np.minimum(reach, (z_hi - a) / sigma_v)
    return lo, hi


def _log_terms(y, a, spec: SystemSpec, settings: MlSettings) -> np.ndarray:
    """Per-term log E{exp(-(y - f(a + v))^2 / (2 sigma_e^2))} over v.

    On the window s = c + h x, x in [-1, 1], the log-integrand is
    -(y - f(z))^2 / (2 sigma_e^2) - s^2 / 2 with z = a + sigma_v s.  z and
    -s^2 / 2 + c^2 / 2 are linear in [1, x, x^2], so each comes from one
    (rows, 2) @ (2, nodes) product; -c^2 / 2 is added back after the sum.
    The measurement scale is folded into y and, for the cubic, into z, and
    the weights are applied with one matrix-vector product.
    """
    nl = spec.nonlinearity
    if spec.sigma_v2 == 0.0:
        resid = y - nl.value(a)
        with np.errstate(over="ignore"):
            return resid * resid * (-0.5 / spec.sigma_e2)
    sigma_v = math.sqrt(spec.sigma_v2)
    lo, hi = _windows(y, a, nl, sigma_v, math.sqrt(spec.sigma_e2))
    center = 0.5 * (lo + hi)
    half = 0.5 * np.maximum(hi - lo, 0.0)
    nodes, log_w = gauss_legendre(settings.quad_order)
    # (y - f(z))^2 / (2 sigma_e^2) = (y / m - f(z) / m)^2, and for the cubic
    # f(z) / m = (z m^(-1/3))^3
    m = math.sqrt(2.0 * spec.sigma_e2)
    cube = nl.coeffs == _CUBE
    z_scale = m ** (-1.0 / 3.0) if cube else 1.0
    y_m = y / m
    # z against [1; x], and -(c + h x)^2 / 2 + c^2 / 2 against [x; x^2]
    z_coef = np.stack([a + sigma_v * center, sigma_v * half], axis=1) * z_scale
    s_coef = np.stack([-center * half, -0.5 * half * half], axis=1)
    one_x = np.stack([np.ones_like(nodes), nodes])
    x_x2 = np.stack([nodes, nodes * nodes])
    weights = np.exp(log_w)
    n = len(y)
    shift, total = np.empty(n), np.empty(n)
    # work arrays reused across row blocks: z and then log g, the residual
    z_buf, r_buf = np.empty((ROW_BLOCK, len(nodes))), np.empty((ROW_BLOCK, len(nodes)))
    # overflow of f(z) or resid^2 to inf is fine, that node just drops out
    with np.errstate(over="ignore"):
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            z, r = z_buf[: stop - start], r_buf[: stop - start]
            np.matmul(z_coef[start:stop], one_x, out=z)
            if cube:
                np.multiply(z, z, out=r)
                r *= z
            else:
                np.multiply(nl.value(z), 1.0 / m, out=r)
            np.subtract(y_m[start:stop, None], r, out=r)
            np.multiply(r, r, out=r)
            g = np.matmul(s_coef[start:stop], x_x2, out=z)
            g -= r
            # shift by the row peak so that no term underflows as a whole; a
            # row that is -inf throughout keeps a finite shift and stays -inf
            peak = g.max(axis=1, out=shift[start:stop])
            np.maximum(peak, _LOWEST, out=peak)
            g -= peak[:, None]
            np.exp(g, out=g)
            np.matmul(g, weights, out=total[start:stop])
    with np.errstate(divide="ignore"):
        return (
            np.log(total) + shift - 0.5 * center * center + np.log(half)
            - 0.5 * math.log(2.0 * math.pi)
        )


def neg_log_likelihood(
    theta: float,
    data: DataRecord,
    spec_template: SystemSpec,
    settings: MlSettings = MlSettings(),
) -> float:
    """Negative log-likelihood up to a theta-independent additive constant.

    With sigma_v2 = 0 each term is -(y - f(a))^2 / (2 sigma_e^2) exactly.
    A term that is not finite (every node underflowed, a squared residual
    overflowed, or non-finite data) raises QuadratureUnderflowError with its
    1-based time index.
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
    start: Estimate | None = None,
) -> Estimate:
    """Minimize the negative log-likelihood over the optimizer bracket.

    start, a consistent first estimate with its predicted std (II1_W's),
    seeds the search with a window around its theta_hat; without a finite
    predicted std it is ignored and the whole bracket is scanned.
    """
    if spec_template.fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")

    def cost(thetas):
        # one likelihood per point: a (G, N, nodes) batch would only
        # multiply the memory, the work per point is the same
        return [neg_log_likelihood(t, data, spec_template, settings) for t in thetas]

    usable = start is not None and start.predicted_std is not None
    seed = (start.theta_hat[0], start.predicted_std) if usable else None
    result = minimize_scalar(cost, settings.optimizer, start=seed)
    return Estimate(np.array([result.argmin]), diagnostics=result)
