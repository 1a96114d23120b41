"""Shared numeric kernels: Gauss-Hermite and Gauss-Legendre quadrature, scalar
minimization, linear least squares, and the Estimate record every estimator
returns.

Every scalar search is one Chebyshev interpolant of the cost, minimized
exactly (`poly_argmin`): for a polynomial cost on the whole bracket, for a
smooth one (`minimize_scalar`) on a window around a start or on the cell of
a coarse grid scan.  The module needs numpy alone: the quadrature nodes are
the eigenvalues of a dense symmetric Jacobi matrix (computed once per order,
the rules are cached)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as cheb

SQRT_PI = math.sqrt(math.pi)

MAX_QUAD_ORDER = 2000

# minimize_scalar interpolates a smooth cost at this degree, on
# start +- LOCAL_HALF_WIDTH scales or on the cell of its fallback grid
SEARCH_DEGREE = 10
LOCAL_HALF_WIDTH = 6.0
FALLBACK_GRID_POINTS = 61

# running sums of squared orthonormal polynomials are rescaled past this
_RESCALE_AT = 1e200
_RESCALE_BY = 1e-100


class NumericsError(Exception):
    """Base class for numeric-kernel failures."""


class CostEvaluationError(NumericsError):
    """A cost or map returned a non-finite value."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"non-finite value {value} at {point}")


class RankDeficiencyError(NumericsError):
    """Regressor matrix numerically rank deficient."""

    def __init__(self, smallest_singular_value):
        self.smallest_singular_value = smallest_singular_value
        super().__init__(
            f"rank-deficient regressors (smallest singular value "
            f"{smallest_singular_value:.3e})"
        )


@dataclass(frozen=True)
class QuadratureRule:
    """Physicists' Gauss-Hermite rule: integral of exp(-x^2) g(x) dx.

    `log_weights` are finite at every order; `weights` is their exponential,
    so tail weights below the smallest subnormal double are exact zeros there.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray

    def normal_expectation(self, g) -> float:
        """E{g(V)} for V ~ N(0, 1), evaluated as (1/sqrt(pi)) sum w g(sqrt(2) x)."""
        return float(self.weights @ g(math.sqrt(2.0) * self.nodes)) / SQRT_PI


def _golub_welsch(off_diag: np.ndarray, log_mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the Gauss rule of a symmetric weight function.

    The nodes are the eigenvalues of the Jacobi matrix with zero diagonal and
    the given off-diagonal recurrence coefficients b_1..b_{n-1}, from a dense
    symmetric eigensolver on its lower triangle (O(n^3): about 0.15 s at
    n = 1000 and 1 s at n = 2000 on a 2-core x86-64 VM with one BLAS thread,
    paid once per order since the rules are cached); log_mu0 is
    the log of the weight function's total mass.  The weights come from the
    Christoffel function w_i = 1 / sum_k p_k(x_i)^2 of the orthonormal
    recurrence x p_k = b_{k+1} p_{k+1} + b_k p_{k-1}, which is accurate in
    relative terms even where the weight is far below the smallest double.
    The sums are rescaled as they grow, the scale kept in log form.  One
    Newton step on p_n refines each eigenvalue, and the log weight follows
    it to first order.
    """
    x = np.linalg.eigvalsh(np.diag(off_diag, -1), UPLO="L")
    p_prev, p = np.zeros_like(x), np.full_like(x, math.exp(-0.5 * log_mu0))
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total, p_dp = p * p, np.zeros_like(x)
    log_scale = np.zeros_like(x)
    b_prev = 0.0
    for b in off_diag:
        p_prev, p, dp_prev, dp = (
            p, (x * p - b_prev * p_prev) / b, dp, (p + x * dp - b_prev * dp_prev) / b
        )
        b_prev = b
        total += p * p
        p_dp += p * dp
        big = total > _RESCALE_AT
        if big.any():
            factor = np.where(big, _RESCALE_BY, 1.0)
            for arr in (p, p_prev, dp, dp_prev):
                arr *= factor
            total *= factor * factor
            p_dp *= factor * factor
            log_scale -= np.where(big, 2.0 * math.log(_RESCALE_BY), 0.0)
    # b_n p_n and its derivative, up to the common scale
    step = (x * p - b_prev * p_prev) / (p + x * dp - b_prev * dp_prev)
    log_weights = -(np.log(total) + log_scale) + 2.0 * p_dp / total * step
    return x - step, log_weights


def _symmetrized(nodes: np.ndarray, log_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes made exactly odd and log weights exactly even about 0."""
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (log_weights + log_weights[::-1])


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def check_quad_order(order: int, name: str = "order") -> None:
    """ValueError unless 1 <= order <= MAX_QUAD_ORDER: past the bound the
    dense Jacobi matrix of _golub_welsch grows as order^2 and its solve as
    order^3."""
    if order < 1:
        raise ValueError(f"{name} must be >= 1")
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"{name} must be <= {MAX_QUAD_ORDER}, got {order}")


@functools.lru_cache(maxsize=32)
def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights via Golub-Welsch on the Jacobi (tridiagonal) matrix.

    Nodes are eigenvalues of the Jacobi matrix from a dense symmetric solve,
    cached per order; weights come from the Christoffel function in log
    scale, so they are accurate in relative terms at every node (they match
    numpy's hermgauss to about 1e-13 at order 150).  Stable to order
    MAX_QUAD_ORDER = 2000; nodes and weights are symmetrized exactly about 0.
    """
    check_quad_order(order)
    off_diag = np.sqrt(np.arange(1, order) / 2.0)
    nodes, log_weights = _symmetrized(*_golub_welsch(off_diag, math.log(SQRT_PI)))
    weights = np.exp(log_weights)
    return QuadratureRule(order, *_read_only(nodes, weights, log_weights))


@functools.lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and log weights on [-1, 1], by the same
    Golub-Welsch construction and order bound as gauss_hermite."""
    check_quad_order(order)
    k = np.arange(1, order, dtype=float)
    off_diag = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, log_weights = _symmetrized(*_golub_welsch(off_diag, math.log(2.0)))
    return _read_only(nodes, log_weights)


@dataclass(frozen=True)
class OptimizerSettings:
    """The bracket of a scalar search."""

    bracket: tuple[float, float] = (-3.0, 3.0)

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo < hi:
            raise ValueError(f"bracket must satisfy lo < hi, got {self.bracket}")


@dataclass(frozen=True)
class ScalarMinResult:
    """Outcome of one bracketed search.

    iterations counts every point the cost was evaluated at; min_value is
    the interpolant's value at argmin (a cost value when degenerate);
    at_bracket_edge is true when the minimum found is an end of the bracket,
    so the true minimum may lie outside it; degenerate is true when the cost
    took one value (to rounding, for poly_argmin) at every point of the
    first scan; fallback is true when a seeded minimize_scalar search fell
    back to the full bracket scan.
    """

    argmin: float
    min_value: float
    iterations: int
    degenerate: bool = False
    at_bracket_edge: bool = False
    fallback: bool = False


@dataclass(frozen=True)
class Estimate:
    """One estimator's output on one data record.

    theta_hat is shaped like SystemSpec.theta; predicted_std is the
    asymptotic standard deviation where the method predicts one (None
    otherwise, inf when the prediction is undefined); diagnostics is the
    scalar search behind the estimate, None for a closed form.
    """

    theta_hat: np.ndarray
    predicted_std: float | None = None
    diagnostics: ScalarMinResult | None = None


def _checked_values(cost, xs: np.ndarray) -> np.ndarray:
    """cost(xs) as a float array shaped like xs; the first non-finite value
    in the order of xs raises CostEvaluationError with its point."""
    vals = np.broadcast_to(np.asarray(cost(xs), dtype=float), xs.shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise CostEvaluationError(float(xs[bad[0]]), float(vals[bad[0]]))
    return vals


@functools.lru_cache(maxsize=16)
def chebyshev_points(degree: int, lo: float, hi: float):
    """The degree + 1 Chebyshev points of [lo, hi], increasing, and the matrices
    taking values there to the Chebyshev coefficients of the interpolant and
    of its derivative in theta, for chebyshev_value."""
    t = -np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    to_coeffs = np.linalg.inv(cheb.chebvander(t, degree))
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    return _read_only(nodes, to_coeffs, cheb.chebder(to_coeffs, scl=2.0 / (hi - lo)))


def chebyshev_value(coeffs: np.ndarray, theta, lo: float, hi: float):
    """At theta, the series of coefficients made by chebyshev_points' matrices;
    (n, m) coeffs and a float or a (G,) theta give (m,) or (G, m)."""
    return cheb.chebval((2.0 * theta - lo - hi) / (hi - lo), coeffs).T


def poly_argmin(
    cost, degree: int, settings: OptimizerSettings = OptimizerSettings()
) -> ScalarMinResult:
    """Minimize on settings.bracket a cost that is a polynomial of at most
    `degree` in theta and broadcasts over theta: a float gives a float and a
    1-D array an array of its shape (a cost that ignores theta may return a
    scalar).

    The cost is called once, at the degree + 1 Chebyshev points of the
    bracket, which gives its interpolant; of the bracket ends and the real
    parts of the interpolant's critical points inside, the one where the
    interpolant is smallest wins (exact ties: the smallest magnitude).  A
    cost equal at every node to 16 ulps is degenerate, its argmin the bracket
    point nearest 0.  Non-finite values raise CostEvaluationError with the
    offending point."""
    lo, hi = settings.bracket
    nodes, to_coeffs, to_slopes = chebyshev_points(degree, lo, hi)
    vals = _checked_values(cost, nodes)
    if np.ptp(vals) <= 16 * np.finfo(float).eps * np.abs(vals).max():
        x = min(max(0.0, lo), hi)
        return ScalarMinResult(
            x, float(vals[0]), degree + 1, degenerate=True, at_bracket_edge=x in (lo, hi)
        )
    s = cheb.chebroots(to_slopes @ vals).real
    inner = np.clip(0.5 * (lo + hi) + 0.5 * (hi - lo) * s[abs(s) < 1.0], lo, hi)
    xs = np.concatenate([[lo, hi], inner])
    cand = chebyshev_value(to_coeffs @ vals, xs, lo, hi)
    i = min(range(len(xs)), key=lambda k: (cand[k], abs(xs[k])))
    return ScalarMinResult(
        float(xs[i]), float(cand[i]), degree + 1, at_bracket_edge=xs[i] in (lo, hi)
    )


def _window(start, lo: float, hi: float) -> OptimizerSettings | None:
    """The seeded search's bracket center +- LOCAL_HALF_WIDTH * scale, clipped
    to [lo, hi]; None when the start is not usable or the window is empty."""
    center, scale = (float(v) for v in start)
    if not (math.isfinite(center) and math.isfinite(scale)) or scale <= 0:
        return None
    if not lo <= center <= hi:
        return None
    reach = LOCAL_HALF_WIDTH * scale
    w_lo, w_hi = max(lo, center - reach), min(hi, center + reach)
    return OptimizerSettings((w_lo, w_hi)) if w_lo < w_hi else None


def minimize_scalar(
    cost, settings: OptimizerSettings = OptimizerSettings(), start=None
) -> ScalarMinResult:
    """Minimize a smooth scalar cost on a bracket by poly_argmin at
    SEARCH_DEGREE on a subinterval: the cost is taken to be analytic in
    theta, so its Chebyshev interpolant there converges geometrically.

    The cost broadcasts over theta as for poly_argmin.  start = (center,
    scale), a consistent first estimate and its standard deviation, makes
    the subinterval center +- LOCAL_HALF_WIDTH * scale, clipped to the
    bracket: SEARCH_DEGREE + 1 evaluations in one call.  The fallback runs
    after it (fallback=True, iterations counting both) when that minimum lies
    on a window edge that is not a bracket end, or when the cost is flat on
    the window.  A start that is not usable (a non-finite value, scale <= 0,
    a center outside the bracket, or an empty window) is ignored, and the
    result is that of the call without it.

    The fallback scans FALLBACK_GRID_POINTS points of the bracket in one
    call; a cost equal at all of them is degenerate, its argmin the grid
    point nearest 0.  Otherwise poly_argmin runs on the grid cell around the
    grid minimum (exact ties preferring the point of smallest magnitude).
    Non-finite cost values raise CostEvaluationError with the offending
    point, the first one in bracket order on the grid.  at_bracket_edge is
    true when the minimum found is an end of settings.bracket.
    """
    lo, hi = settings.bracket
    window = None if start is None else _window(start, lo, hi)
    spent = 0
    if window is not None:
        result = poly_argmin(cost, SEARCH_DEGREE, window)
        inner_edge = result.argmin in window.bracket and result.argmin not in settings.bracket
        if not (result.degenerate or inner_edge):
            return replace(result, at_bracket_edge=result.argmin in settings.bracket)
        spent = result.iterations
    fallback = window is not None
    xs = np.linspace(lo, hi, FALLBACK_GRID_POINTS)
    vals = _checked_values(cost, xs)
    vmin = vals.min()
    if vals.max() == vmin:
        mid = xs[int(np.argmin(np.abs(xs)))]
        return ScalarMinResult(
            float(mid), float(vmin), spent + len(xs), degenerate=True, fallback=fallback
        )
    ties = np.flatnonzero(vals == vmin)
    i = int(ties[np.argmin(np.abs(xs[ties]))])
    cell = OptimizerSettings((float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])))
    result = poly_argmin(cost, SEARCH_DEGREE, cell)
    return replace(
        result,
        iterations=spent + len(xs) + result.iterations,
        degenerate=False,
        at_bracket_edge=result.argmin in settings.bracket,
        fallback=fallback,
    )


def least_squares(regressors: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and residuals (targets - fit).

    Raises RankDeficiencyError when the smallest singular value falls below
    the usual eps * max(N, m) * s_max threshold.
    """
    X = np.asarray(regressors, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(targets, dtype=float)
    n, m = X.shape
    if n < m:
        raise ValueError(f"need at least as many rows as columns, got {n} x {m}")
    if len(y) != n:
        raise ValueError(f"targets length {len(y)} does not match {n} rows")
    coef, _, rank, sing = np.linalg.lstsq(X, y, rcond=None)
    cutoff = np.finfo(float).eps * max(n, m) * sing[0]
    if rank < m or sing[-1] <= cutoff:
        raise RankDeficiencyError(float(sing[-1]))
    return coef, y - X @ coef
