"""Shared numeric kernels: Gauss-Hermite and Gauss-Legendre quadrature, scalar
minimization, linear least squares, finite-difference Jacobians, and the
Estimate record every estimator returns."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar as _brent_bounded

SQRT_PI = math.sqrt(math.pi)

MAX_QUAD_ORDER = 2000

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
    the given off-diagonal recurrence coefficients b_1..b_{n-1}; log_mu0 is
    the log of the weight function's total mass.  The weights come from the
    Christoffel function w_i = 1 / sum_k p_k(x_i)^2 of the orthonormal
    recurrence x p_k = b_{k+1} p_{k+1} + b_k p_{k-1}, which is accurate in
    relative terms even where the weight is far below the smallest double.
    The sums are rescaled as they grow, the scale kept in log form.  One
    Newton step on p_n refines each eigenvalue, and the log weight follows
    it to first order.
    """
    x = eigh_tridiagonal(np.zeros(len(off_diag) + 1), off_diag, eigvals_only=True)
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


@functools.lru_cache(maxsize=32)
def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights via Golub-Welsch on the Jacobi (tridiagonal) matrix.

    Nodes are eigenvalues of the Jacobi matrix; weights come from the
    Christoffel function in log scale, so they are accurate in relative terms
    at every node (they match numpy's hermgauss to about 1e-13 at order 150).
    Stable to order 2000; nodes and weights are symmetrized exactly about 0.
    """
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"order must be in [1, {MAX_QUAD_ORDER}], got {order}")
    off_diag = np.sqrt(np.arange(1, order) / 2.0)
    nodes, log_weights = _symmetrized(*_golub_welsch(off_diag, math.log(SQRT_PI)))
    weights = np.exp(log_weights)
    return QuadratureRule(order, *_read_only(nodes, weights, log_weights))


@functools.lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and log weights on [-1, 1], by the same
    Golub-Welsch construction as gauss_hermite."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    k = np.arange(1, order, dtype=float)
    off_diag = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, log_weights = _symmetrized(*_golub_welsch(off_diag, math.log(2.0)))
    return _read_only(nodes, log_weights)


@dataclass(frozen=True)
class OptimizerSettings:
    """Bracketed scalar search: coarse grid scan, then bounded refinement."""

    bracket: tuple[float, float] = (-3.0, 3.0)
    abs_tol: float = 1e-6
    max_iter: int = 200
    grid_points: int = 61

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo < hi:
            raise ValueError(f"bracket must satisfy lo < hi, got {self.bracket}")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")


@dataclass(frozen=True)
class ScalarMinResult:
    """Outcome of one bracketed search.

    iterations counts every cost evaluation, grid points included;
    at_bracket_edge is true when the grid minimum is the first or last grid
    point, so the true minimum may lie outside the bracket.
    """

    argmin: float
    min_value: float
    iterations: int
    degenerate: bool = False
    at_bracket_edge: bool = False


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


def minimize_scalar(cost, settings: OptimizerSettings = OptimizerSettings()) -> ScalarMinResult:
    """Minimize a scalar cost on a bracket.

    The cost broadcasts over theta: a float gives a float and a 1-D array
    gives an array of the same shape (a cost that ignores theta may return a
    scalar).  One call on the whole grid of settings.grid_points locates the
    coarse minimum (exact ties preferring the point of smallest magnitude,
    for determinism on symmetric costs), then golden-section/parabolic
    refinement runs on the neighboring grid cell, calling the cost with one
    float at a time.  Non-finite cost values raise CostEvaluationError with
    the offending point, the first one in bracket order on the grid.
    """

    def checked(x: float) -> float:
        val = float(cost(x))
        if not math.isfinite(val):
            raise CostEvaluationError(x, val)
        return val

    lo, hi = settings.bracket
    xs = np.linspace(lo, hi, settings.grid_points)
    vals = np.broadcast_to(np.asarray(cost(xs), dtype=float), xs.shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise CostEvaluationError(float(xs[bad[0]]), float(vals[bad[0]]))
    vmin = vals.min()
    if vals.max() == vmin:
        mid = xs[int(np.argmin(np.abs(xs)))]
        return ScalarMinResult(float(mid), float(vmin), len(xs), degenerate=True)
    ties = np.flatnonzero(vals == vmin)
    i = int(ties[np.argmin(np.abs(xs[ties]))])
    sub_lo = float(xs[max(i - 1, 0)])
    sub_hi = float(xs[min(i + 1, len(xs) - 1)])
    res = _brent_bounded(
        checked,
        bounds=(sub_lo, sub_hi),
        method="bounded",
        options={"xatol": settings.abs_tol, "maxiter": settings.max_iter},
    )
    x_best, v_best = float(res.x), float(res.fun)
    if vmin < v_best:
        x_best, v_best = float(xs[i]), float(vmin)
    return ScalarMinResult(
        x_best, v_best, len(xs) + int(res.nfev), at_bracket_edge=i in (0, len(xs) - 1)
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


def jacobian_fd(func, point, step: float) -> np.ndarray:
    """Central-difference Jacobian of an R^n -> R^m map; error O(step^2)."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if step <= 0:
        raise ValueError("step must be positive")
    cols = []
    for j in range(point.size):
        shift = np.zeros_like(point)
        shift[j] = step
        f_plus = np.atleast_1d(np.asarray(func(point + shift), dtype=float))
        f_minus = np.atleast_1d(np.asarray(func(point - shift), dtype=float))
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise CostEvaluationError(point + shift, "non-finite map value")
        cols.append((f_plus - f_minus) / (2.0 * step))
    return np.column_stack(cols)
