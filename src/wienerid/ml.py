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

The terms are integrated in blocks of about ROW_ELEMENTS / quad_order rows
with two reused work arrays, in about eleven array passes per block (see
`_log_terms`), and every row is shifted by its peak exponent, so the fast
decay of the integrand cannot underflow a whole term.  Additive constants
of the likelihood that do not depend on theta are dropped.

The same nodes give each term's posterior mean and variance of s = v /
sigma_v, two more columns of the weight product, and from them the exact
score and observed information in theta (`_nll_derivatives`).  The search
starts at a consistent first estimate (bench passes the II1_W of the same
record, the stack of one of the table's II1_W Step 2, from the BLA fit and
binding function that the methods of the record share) and runs
safeguarded Newton inside theta_start +- 6 predicted stds (`_newton`).
Above order COARSE_ORDER, Newton first converges on the order-COARSE_ORDER
rule, which gives the same argmin to about 1e-14 on the paper's system,
and then runs on the configured rule from there, where it stops after its
first evaluation: on the paper's system, 3 or 4 coarse evaluations and 1
at the configured order, against the 11 of a degree-10 interpolant.  When
a safeguard trips, or with sigma_v2 = 0, the interpolant search of
`numerics.minimize_scalar` runs from the same start: 11 evaluations, or 72
when its minimum lands on an edge of the window inside the bracket, or the
start has no finite std (a 61-point scan of the whole bracket, then the
interpolant on the cell around its minimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import (
    Estimate,
    OptimizerSettings,
    ScalarMinResult,
    check_quad_order,
    gauss_legendre,
    minimize_scalar,
    _FLAT,
    _roots,
    _window,
)
from .system import DataRecord, SystemSpec, cubic, identity, linear_output

DEFAULT_QUAD_ORDER = 1000

# window edges sit WINDOW_K standard deviations beyond the integrand's peak
WINDOW_K = 9.0

# rows x nodes of one block of likelihood terms at most: 16 rows at order
# 1000, so each of the two work arrays (128 KB) stays in cache and below
# glibc's mmap threshold.  A block is a multiple of ROW_ALIGN rows: BLAS
# kernels sum a row that falls in a group of rows differently from one in a
# block's tail, so only aligned blocks give every term the same bits
ROW_ELEMENTS = 16 * 1000
ROW_ALIGN = 8

# above this order, Newton first converges on this order's rule
COARSE_ORDER = 100

# Newton on the likelihood: it stops at a step within _STEP_TOL of
# max(1, |theta|), and hands over to the seeded search after _NEWTON_EVALS
# evaluations or _HALVINGS halvings of one step
_STEP_TOL = 1e-12
_NEWTON_EVALS = 8
_HALVINGS = 3

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


def _log_terms(y, a, spec: SystemSpec, settings: MlSettings, moments: bool = False):
    """Per-term log E{exp(-(y - f(a + v))^2 / (2 sigma_e^2))} over v.

    On the window s = c + h x, x in [-1, 1], the log-integrand is
    -(y - f(z))^2 / (2 sigma_e^2) - s^2 / 2 with z = a + sigma_v s.  z and
    -s^2 / 2 + c^2 / 2 are linear in [1, x, x^2], so each comes from one
    (rows, 2) @ (2, nodes) product; -c^2 / 2 is added back after the sum.
    The measurement scale is folded into y and, for the cubic, into z, and
    the weights are applied with one matrix-vector product.

    With moments (sigma_v2 > 0) the weights are the (nodes, 3) matrix of w,
    w x and w x^2 in that same product, and the call returns the terms with
    the mean and variance of s under each term's posterior, the integrand
    normalized on its window.
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
    if moments:
        weights = np.stack([weights, weights * nodes, weights * nodes * nodes], axis=1)
    n = len(y)
    shift, total = np.empty(n), np.empty((n, *weights.shape[1:]))
    # work arrays reused across row blocks: z and then log g, the residual
    block = max(ROW_ALIGN, ROW_ELEMENTS // len(nodes) // ROW_ALIGN * ROW_ALIGN)
    z_buf, r_buf = np.empty((block, len(nodes))), np.empty((block, len(nodes)))
    # overflow of f(z) or resid^2 to inf is fine, that node just drops out
    with np.errstate(over="ignore"):
        for start in range(0, n, block):
            stop = min(start + block, n)
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
    # a term whose window or sum is not finite comes out non-finite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mass = total[:, 0] if moments else total
        terms = (
            np.log(mass) + shift - 0.5 * center * center + np.log(half)
            - 0.5 * math.log(2.0 * math.pi)
        )
        if not moments:
            return terms
        mean_x, mean_x2 = total[:, 1] / mass, total[:, 2] / mass
        return terms, center + half * mean_x, half * half * (mean_x2 - mean_x * mean_x)


def _terms(theta, data: DataRecord, spec: SystemSpec, settings: MlSettings, moments=False):
    """`_log_terms` of the record at theta; a term that is not finite raises
    QuadratureUnderflowError with its 1-based time index."""
    if spec.sigma_e2 <= 0:
        raise ValueError("sigma_e2 must be positive for the likelihood")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    a = linear_output(spec.fir, [theta], data.u)[-data.n_obs:]
    out = _log_terms(data.y, a, spec, settings, moments)
    per_term = out[0] if moments else out
    if not np.all(np.isfinite(per_term)):
        bad = np.flatnonzero(~np.isfinite(per_term)) + 1
        raise QuadratureUnderflowError(theta, bad.tolist())
    return out


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
    1-based time index; a theta that is not finite raises ValueError.
    """
    return -float(np.sum(_terms(theta, data, spec_template, settings)))


def _nll_derivatives(theta, data: DataRecord, spec: SystemSpec, settings: MlSettings):
    """neg_log_likelihood at theta (sigma_v2 > 0) with its first and second
    derivatives in theta, from the same quadrature nodes.  With
    a(t) = theta x(t) + ..., x the input at the free lag, and s = v / sigma_v,
    each term has dl_t/dtheta = x(t) E[s] / sigma_v and d^2 l_t/dtheta^2 =
    x(t)^2 (Var[s] - 1) / sigma_v^2 under the term's posterior of s (the
    missing-information identity, Louis 1982)."""
    terms, mean_s, var_s = _terms(theta, data, spec, settings, moments=True)
    x = data.regressors(spec.fir.free_lags)[:, 0]
    score = -float(x @ mean_s) / math.sqrt(spec.sigma_v2)
    information = float((x * x) @ (1.0 - var_s)) / spec.sigma_v2
    return -float(np.sum(terms)), score, information


def _newton(derivatives, theta: float, window: OptimizerSettings, bracket):
    """Safeguarded Newton from theta on the window, derivatives(theta) giving
    (cost, score, information).  It stops at the first point whose step is
    within _STEP_TOL relative to max(1, |theta|) and returns that point.  A
    step must have positive information and a finite score behind it and
    land in the window; it is halved while the cost rises by more than 16
    ulps, its rounding, at most _HALVINGS times.  Returns (result,
    evaluations); result is None when a safeguard trips, after _NEWTON_EVALS
    evaluations, or when an evaluation raises QuadratureUnderflowError.
    at_bracket_edge refers to `bracket`."""
    lo, hi = window.bracket
    evals = 1
    try:
        cost, score, information = derivatives(theta)
        while information > 0 and math.isfinite(score):
            step = -score / information
            if abs(step) <= _STEP_TOL * max(1.0, abs(theta)):
                result = ScalarMinResult(theta, cost, evals, at_bracket_edge=theta in bracket)
                return result, evals
            for _ in range(_HALVINGS + 1):
                if not lo <= theta + step <= hi or evals == _NEWTON_EVALS:
                    return None, evals
                evals += 1
                trial = derivatives(theta + step)
                if trial[0] <= cost + _FLAT * abs(cost):
                    break
                step *= 0.5
            else:
                return None, evals
            theta += step
            cost, score, information = trial
    except QuadratureUnderflowError:
        pass
    return None, evals


def ml_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    settings: MlSettings = MlSettings(),
    start: Estimate | None = None,
) -> Estimate:
    """Minimize the negative log-likelihood over the optimizer bracket.

    start, a consistent first estimate with its predicted std (II1_W's),
    starts safeguarded Newton on the likelihood's exact score and
    information inside the window theta_start +- 6 stds (`_newton`).  Above
    order COARSE_ORDER, Newton runs on that order's rule first, and then on
    the configured rule from its argmin (from theta_start when the coarse
    stage gives up), so the result is stationary at the configured order.
    When a safeguard trips at the configured order, the seeded search of
    `numerics.minimize_scalar` runs from the same start, with fallback set.
    iterations counts the evaluations of every stage.  With sigma_v2 = 0,
    or a start without a finite predicted std, minimize_scalar runs alone
    (the whole bracket is scanned when the start is not usable).
    """
    if spec_template.fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")

    def cost(thetas):
        # one likelihood per point: a (G, N, nodes) batch would only
        # multiply the memory, the work per point is the same
        return [neg_log_likelihood(t, data, spec_template, settings) for t in thetas]

    usable = start is not None and start.predicted_std is not None
    seed = (start.theta_hat[0], start.predicted_std) if usable else None
    bracket = settings.optimizer.bracket
    spent = 0  # Newton's evaluations, > 0 when the seeded search follows them
    window = _window(seed, *bracket) if usable and spec_template.sigma_v2 > 0 else None
    if window is not None:

        def newton(theta, order_settings):
            return _newton(
                lambda t: _nll_derivatives(t, data, spec_template, order_settings),
                theta, window, bracket,
            )

        theta = float(seed[0])
        if settings.quad_order > COARSE_ORDER:
            coarse, spent = newton(theta, replace(settings, quad_order=COARSE_ORDER))
            if coarse is not None:
                theta = coarse.argmin
        result, evals = newton(theta, settings)
        spent += evals
        if result is not None:
            result = replace(result, iterations=spent)
            return Estimate(np.array([result.argmin]), diagnostics=result)
    result = minimize_scalar(cost, settings.optimizer, start=seed)
    if spent:
        result = replace(result, iterations=spent + result.iterations, fallback=True)
    return Estimate(np.array([result.argmin]), diagnostics=result)
