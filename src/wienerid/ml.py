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

Every evaluation weighs the nodes with one (nodes, 3) matrix, so the same
product gives each term, its posterior mean and variance of s = v /
sigma_v, and from them the exact score and observed information in theta
(`_nll_derivatives`); a likelihood value is the same bits whichever of
neg_log_likelihood, the scan or Newton asks for it.  ML has one
search, safeguarded Newton (`_newton`).  It starts at a consistent first
estimate (bench passes the II1_W of the same record, from the BLA fit and
binding function that the methods of the record share) in theta_start +- 6
predicted stds or, without one or when Newton gives up there, at the
smallest of 61 likelihood values on the bracket, in the grid cell around
it.  Above order COARSE_ORDER, Newton first converges on that order's
rule, which gives the same argmin to about 1e-14 on the paper's system,
and then on the configured rule, where it stops at its first evaluation:
on the paper's system, 3 or 4 coarse evaluations and 1 configured from the
first start, 61 plus 4 or 5 from the second.  With sigma_v2 = 0, ML is the
unweighted PEM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    BRACKET,
    Estimate,
    NumericsError,
    ScalarMinResult,
    check_quad_order,
    gauss_legendre,
    _FLAT,
    _roots,
)
from .pem import pem_estimate
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

# Newton runs inside theta_start +- LOCAL_HALF_WIDTH predicted stds, or in
# the cell around the smallest of GRID_POINTS likelihood values on the bracket
LOCAL_HALF_WIDTH = 6.0
GRID_POINTS = 61

# Newton on the likelihood: it stops at a step within _STEP_TOL of
# max(1, |theta|), and gives up after _NEWTON_EVALS evaluations or
# _HALVINGS halvings of one step
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

    def __reduce__(self):  # pickled from its fields, as a process pool returns it
        return type(self), (self.theta, self.time_indices)


@dataclass(frozen=True)
class MlSettings:
    """quad_order is the node count of the Gauss-Legendre rule that
    integrates each likelihood term over its window; 200 is converged to
    about 1e-13 per term on the paper's system."""

    quad_order: int = DEFAULT_QUAD_ORDER

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


def _log_terms(y, a, spec: SystemSpec, settings: MlSettings):
    """Per-term log E{exp(-(y - f(a + v))^2 / (2 sigma_e^2))} over v, with
    the mean and variance of s = v / sigma_v under each term's posterior,
    the integrand normalized on its window.

    On the window s = c + h x, x in [-1, 1], the log-integrand is
    -(y - f(z))^2 / (2 sigma_e^2) - s^2 / 2 with z = a + sigma_v s.  z and
    -s^2 / 2 + c^2 / 2 are linear in [1, x, x^2], so each comes from one
    (rows, 2) @ (2, nodes) product; -c^2 / 2 is added back after the sum.
    The measurement scale is folded into y and, for the cubic, into z, and
    the weights are the (nodes, 3) matrix of w, w x and w x^2, applied in
    one product.  With sigma_v2 = 0 each term is -(y - f(a))^2 / (2
    sigma_e^2) and does not depend on s, whose posterior is its prior: mean
    0, variance 1.
    """
    nl = spec.nonlinearity
    if spec.sigma_v2 == 0.0:
        resid = y - nl.value(a)
        with np.errstate(over="ignore"):
            return resid * resid * (-0.5 / spec.sigma_e2), np.zeros(len(y)), np.ones(len(y))
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
    weights = np.stack([weights, weights * nodes, weights * nodes * nodes], axis=1)
    n = len(y)
    shift, total = np.empty(n), np.empty((n, 3))
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
        mass = total[:, 0]
        terms = (
            np.log(mass) + shift - 0.5 * center * center + np.log(half)
            - 0.5 * math.log(2.0 * math.pi)
        )
        mean_x, mean_x2 = total[:, 1] / mass, total[:, 2] / mass
        return terms, center + half * mean_x, half * half * (mean_x2 - mean_x * mean_x)


def _terms(theta, data: DataRecord, spec: SystemSpec, settings: MlSettings):
    """`_log_terms` of the record at theta; a term that is not finite raises
    QuadratureUnderflowError with its 1-based time index."""
    # every term divides by sigma_e2, with sigma_v2 = 0 too
    if spec.sigma_e2 <= 0:
        raise ValueError("sigma_e2 must be positive for the likelihood")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    a = linear_output(spec.fir, [theta], data.u)[-data.n_obs:]
    terms, mean_s, var_s = _log_terms(data.y, a, spec, settings)
    if not np.all(np.isfinite(terms)):
        bad = np.flatnonzero(~np.isfinite(terms)) + 1
        raise QuadratureUnderflowError(theta, bad.tolist())
    return terms, mean_s, var_s


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
    1-based time index; a theta that is not finite raises ValueError.  Its
    terms are those of ml_estimate's scan and Newton, from the same (nodes,
    3) weight product, so an ML min_value is this value at argmin, bit for
    bit.
    """
    return -float(np.sum(_terms(theta, data, spec_template, settings)[0]))


def _nll_derivatives(theta, data: DataRecord, spec: SystemSpec, settings: MlSettings):
    """neg_log_likelihood at theta (sigma_v2 > 0) with its first and second
    derivatives in theta, from the same quadrature nodes.  With
    a(t) = theta x(t) + ..., x the input at the free lag, and s = v / sigma_v,
    each term has dl_t/dtheta = x(t) E[s] / sigma_v and d^2 l_t/dtheta^2 =
    x(t)^2 (Var[s] - 1) / sigma_v^2 under the term's posterior of s (the
    missing-information identity, Louis 1982)."""
    terms, mean_s, var_s = _terms(theta, data, spec, settings)
    x = data.regressors(spec.fir.free_lags)[:, 0]
    score = -float(x @ mean_s) / math.sqrt(spec.sigma_v2)
    information = float((x * x) @ (1.0 - var_s)) / spec.sigma_v2
    return -float(np.sum(terms)), score, information


def _newton(derivatives, theta: float, window, bracket):
    """Safeguarded Newton from theta on the window (lo, hi), derivatives(theta)
    giving (cost, score, information).  It stops at the first point whose step
    is within _STEP_TOL relative to max(1, |theta|), or that is an end of
    `bracket` with its step pointing out of it, and returns that point.  A
    step must have positive information and a finite score behind it and
    land in the window; it is halved while the cost rises by more than 16
    ulps, its rounding, at most _HALVINGS times.  Returns (result,
    evaluations); result is None when a safeguard trips, after _NEWTON_EVALS
    evaluations, or when an evaluation raises QuadratureUnderflowError.
    at_bracket_edge refers to `bracket`."""
    lo, hi = window
    evals = 1
    try:
        cost, score, information = derivatives(theta)
        while information > 0 and math.isfinite(score):
            step = -score / information
            outward = (theta == bracket[0] and step < 0) or (theta == bracket[1] and step > 0)
            if outward or abs(step) <= _STEP_TOL * max(1.0, abs(theta)):
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


def _window(start: Estimate | None, lo: float, hi: float):
    """(lo, hi) of theta_start +- LOCAL_HALF_WIDTH predicted stds, clipped to
    the bracket; None when that is empty or the start is not usable."""
    if start is None or start.predicted_std is None:
        return None
    center, scale = float(start.theta_hat[0]), float(start.predicted_std)
    if not (0.0 < scale < math.inf and lo <= center <= hi):  # the bracket is finite
        return None
    reach = LOCAL_HALF_WIDTH * scale
    w_lo, w_hi = max(lo, center - reach), min(hi, center + reach)
    return (w_lo, w_hi) if w_lo < w_hi else None


def ml_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    settings: MlSettings = MlSettings(),
    start: Estimate | None = None,
) -> Estimate:
    """Minimize the negative log-likelihood over numerics.BRACKET by
    safeguarded Newton on its exact score and information (`_newton`).

    Newton starts at start, a consistent first estimate with its predicted
    std (II1_W's), inside the window theta_start +- LOCAL_HALF_WIDTH stds.
    Without a usable start (`_window`), or when Newton gives up there, it
    starts at the smallest of GRID_POINTS likelihood values on the bracket
    (exact ties: the smallest |theta|) inside the grid cell around it, with
    fallback set when the seeded Newton came first; NumericsError names the
    cell when Newton gives up in it.  Values equal at every grid point are
    degenerate, argmin the grid point nearest 0.  Above order COARSE_ORDER
    each Newton runs on that order's rule first, then on the configured
    rule from its argmin (from its own start when the coarse stage gives
    up).  iterations counts the evaluations of every stage.  With sigma_v2
    = 0 the likelihood is sum (y - f(a))^2 / (2 sigma_e^2), and ML is the
    unweighted PEM: one poly_argmin on its Gram polynomial.
    """
    if spec_template.fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")
    if spec_template.sigma_v2 == 0.0:
        if spec_template.sigma_e2 <= 0:
            raise ValueError("sigma_e2 must be positive for the likelihood")
        return pem_estimate(data, spec_template, weighted=False)

    def newton(theta, window, spent):
        """Both Newton stages from theta on the window: (result or None,
        spent plus their evaluations)."""
        # the order-COARSE_ORDER stage first, when the configured order is above it
        for order in sorted({min(COARSE_ORDER, settings.quad_order), settings.quad_order}):
            stage = replace(settings, quad_order=order)
            result, evals = _newton(lambda t: _nll_derivatives(t, data, spec_template, stage),
                                    theta, window, BRACKET)
            spent += evals
            theta = theta if result is None else result.argmin
        return None if result is None else replace(result, iterations=spent), spent

    spent = 0  # the seeded Newton's evaluations, > 0 when the scan follows them
    if (window := _window(start, *BRACKET)) is not None:
        result, spent = newton(float(start.theta_hat[0]), window, 0)
        if result is not None:
            return Estimate(np.array([result.argmin]), diagnostics=result)
    xs = np.linspace(*BRACKET, GRID_POINTS)
    # one likelihood per point: a (G, N, nodes) batch would only multiply
    # the memory, the work per point is the same
    vals = np.array([neg_log_likelihood(x, data, spec_template, settings) for x in xs])
    i = int(np.lexsort((np.abs(xs), vals))[0])
    x, fallback = float(xs[i]), spent > 0
    if vals.max() == vals[i]:
        result = ScalarMinResult(x, float(vals[i]), spent + len(xs), degenerate=True,
                                 at_bracket_edge=x in BRACKET, fallback=fallback)
        return Estimate(np.array([x]), diagnostics=result)
    cell = (float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)]))
    result, spent = newton(x, cell, spent + len(xs))
    if result is None:
        raise NumericsError(f"ML's Newton gave up in the scan cell [{cell[0]}, {cell[1]}]")
    return Estimate(np.array([result.argmin]), diagnostics=replace(result, fallback=fallback))
