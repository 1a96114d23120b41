"""Shared numeric kernels: Gauss-Hermite and Gauss-Legendre quadrature, scalar
minimization, linear least squares, and the Estimate record every estimator
returns.

A polynomial criterion is its power coefficients in theta, minimized exactly
at the bracket ends and the roots of its derivative (`poly_argmin`, for one
criterion or each row of a stack of them in one call); a smooth
one (`minimize_scalar`) goes there as its interpolant on a window around a
start or on the cell of a grid scan.  The module needs numpy alone: the
quadrature nodes come from Newton passes on the orthonormal recurrence, from
asymptotic nodes for Legendre (O(n^2) time, O(n) memory) and the eigenvalues
of a dense Jacobi matrix for Hermite; the rules are cached per order."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

SQRT_PI = math.sqrt(math.pi)

MAX_QUAD_ORDER = 2000

# minimize_scalar interpolates a smooth cost at this degree, on
# start +- LOCAL_HALF_WIDTH scales or on the cell of its fallback grid
SEARCH_DEGREE = 10
LOCAL_HALF_WIDTH = 6.0
FALLBACK_GRID_POINTS = 61

# the SEARCH_DEGREE + 1 Chebyshev points of [-1, 1], increasing, and the inverse
# of their power Vandermonde matrix (condition 3.6e3): values to coefficients
_CHEB_T = -np.cos(np.pi * (np.arange(SEARCH_DEGREE + 1) + 0.5) / (SEARCH_DEGREE + 1))
_TO_POWERS = np.linalg.inv(np.vander(_CHEB_T, increasing=True))

_EPS = np.finfo(float).eps
# values that agree to this many eps of their largest magnitude are flat
_FLAT = 16 * _EPS

# running sums of squared orthonormal polynomials are rescaled past this
_RESCALE_AT = 1e200
_RESCALE_BY = 1e-100

# _golub_welsch stops once no node moves by more than _NEWTON_TOL, and
# gives up after _NEWTON_PASSES passes
_NEWTON_TOL = 1e-11
_NEWTON_PASSES = 8


class NumericsError(Exception):
    """Base class for numeric-kernel failures."""


class CostEvaluationError(NumericsError):
    """A cost returned a non-finite value."""

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


def _golub_welsch(
    off_diag: np.ndarray, log_mu0: float, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the Gauss rule of a symmetric weight function,
    by Newton passes on the orthonormal recurrence from approximate nodes.

    off_diag holds the recurrence coefficients b_1..b_{n-1} of the Jacobi
    matrix with zero diagonal, log_mu0 the log of the weight function's total
    mass, and start the n approximate nodes, increasing.  Each pass (O(n^2)
    time, O(n) memory) runs the recurrence x p_k = b_{k+1} p_{k+1} +
    b_k p_{k-1} at every node, takes one Newton step on p_n, and the log
    weight of the Christoffel function w_i = 1 / sum_k p_k(x_i)^2, which is
    accurate in relative terms even where the weight is far below the
    smallest double; the sums are rescaled as they grow, the scale kept in
    log form, and the log weight follows the step to first order.  Passes
    repeat until the largest step is at most _NEWTON_TOL; NumericsError,
    naming the order, after _NEWTON_PASSES passes (a non-finite start among
    them), so unconverged nodes are never returned.
    """
    x = start
    for _ in range(_NEWTON_PASSES):
        step, log_weights = _newton_christoffel_pass(x, off_diag, log_mu0)
        x = x - step
        if np.abs(step).max() <= _NEWTON_TOL:
            return x, log_weights
    raise NumericsError(
        f"Gauss rule of order {len(x)}: Newton steps above {_NEWTON_TOL} "
        f"after {_NEWTON_PASSES} passes"
    )


def _newton_christoffel_pass(
    x: np.ndarray, off_diag: np.ndarray, log_mu0: float
) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step on p_n at each node x and the log weight after it."""
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
    return step, log_weights


def _symmetrized(nodes: np.ndarray, log_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes made exactly odd and log weights exactly even about 0."""
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (log_weights + log_weights[::-1])


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def check_quad_order(order: int, name: str = "order") -> None:
    """ValueError unless 1 <= order <= MAX_QUAD_ORDER: the rules are checked
    against independent ones up to that order, and past it the dense Jacobi
    matrix of gauss_hermite's start alone would exceed 32 MB."""
    if order < 1:
        raise ValueError(f"{name} must be >= 1")
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"{name} must be <= {MAX_QUAD_ORDER}, got {order}")


@functools.lru_cache(maxsize=32)
def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights by _golub_welsch from the Jacobi matrix's eigenvalues.

    The start is a dense symmetric eigensolve of the Jacobi matrix (O(n^3),
    cached per order), which one Newton pass confirms to order
    MAX_QUAD_ORDER = 2000; weights come from the Christoffel function in log
    scale, so they are accurate in relative terms at every node (they match
    numpy's hermgauss to about 1e-13 at order 150).  Nodes and weights are
    symmetrized exactly about 0.
    """
    check_quad_order(order)
    off_diag = np.sqrt(np.arange(1, order) / 2.0)
    start = np.linalg.eigvalsh(np.diag(off_diag, -1), UPLO="L")
    nodes, log_weights = _symmetrized(*_golub_welsch(off_diag, math.log(SQRT_PI), start))
    weights = np.exp(log_weights)
    return QuadratureRule(order, *_read_only(nodes, weights, log_weights))


@functools.lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and log weights on [-1, 1], increasing, by
    _golub_welsch from Tricomi's asymptotic nodes

        x_k = (1 - 1/(8n^2) + 1/(8n^3) - (39 - 28/sin^2 t_k)/(384n^4)) cos t_k,
        t_k = pi (4k - 1)/(4n + 2),

    in O(n) memory and O(n^2) time: at most three Newton passes at every
    order up to MAX_QUAD_ORDER (about 0.05 s at order 1000 on a 2-core
    x86-64 VM, cached per order).  Nodes are made exactly odd and log
    weights exactly even about 0."""
    check_quad_order(order)
    n = float(order)
    k = np.arange(1, order, dtype=float)
    off_diag = k / np.sqrt(4.0 * k * k - 1.0)
    t = np.pi * (4.0 * np.arange(order, 0, -1) - 1.0) / (4.0 * n + 2.0)
    shrink = 1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)
    start = (shrink - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n**4)) * np.cos(t)
    nodes, log_weights = _symmetrized(*_golub_welsch(off_diag, math.log(2.0), start))
    return _read_only(nodes, log_weights)


@dataclass(frozen=True)
class OptimizerSettings:
    """The bracket of a scalar search: finite ends, lo < hi."""

    bracket: tuple[float, float] = (-3.0, 3.0)

    def __post_init__(self):
        lo, hi = self.bracket
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"bracket must be finite with lo < hi, got {self.bracket}")


@dataclass(frozen=True)
class ScalarMinResult:
    """Outcome of one bracketed search.

    iterations counts the points where a polynomial was valued (poly_argmin)
    or the cost called (minimize_scalar); min_value is the polynomial's or
    interpolant's value at argmin; at_bracket_edge is true when argmin is an
    end of the bracket, so the true minimum may lie outside it; degenerate
    is true when the criterion took one value at every point of the first
    scan; fallback is true when a seeded minimize_scalar search fell back to
    the full bracket scan.
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
    scalar search behind the estimate, which every estimator makes.
    """

    theta_hat: np.ndarray
    predicted_std: float | None = None
    diagnostics: ScalarMinResult | None = None


def _checked_values(xs: np.ndarray, vals) -> np.ndarray:
    """vals, a criterion's values at xs, as a float array shaped like xs; the
    first non-finite one in the order of xs raises CostEvaluationError with
    its point."""
    vals = np.broadcast_to(np.asarray(vals, dtype=float), xs.shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise CostEvaluationError(float(xs[bad[0]]), float(vals[bad[0]]))
    return vals


def _flat(vals: np.ndarray, bracket, n: int) -> ScalarMinResult | None:
    """The degenerate result of n values that agree to 16 ulps, else None."""
    if vals.max() - vals.min() > _FLAT * np.abs(vals).max():
        return None
    x = min(max(0.0, bracket[0]), bracket[1])  # the bracket point nearest 0
    return ScalarMinResult(x, float(vals.min()), n, degenerate=True, at_bracket_edge=x in bracket)


class StackMinResult(NamedTuple):
    """Outcome of poly_argmin on each row of an (R, K) coefficient stack, one
    entry per row: the fields of ScalarMinResult as arrays, and `errors`,
    the CostEvaluationError the row raises alone (its first non-finite
    value, with the point) or None; a row with an error has no other
    meaningful field.  `row(i)` is row i's ScalarMinResult, or raises its
    error."""

    argmin: np.ndarray
    min_value: np.ndarray
    iterations: np.ndarray
    degenerate: np.ndarray
    at_bracket_edge: np.ndarray
    errors: list[CostEvaluationError | None]

    def row(self, i: int) -> ScalarMinResult:
        if self.errors[i] is not None:
            raise self.errors[i]
        return ScalarMinResult(
            self.argmin.item(i), self.min_value.item(i), self.iterations.item(i),
            degenerate=self.degenerate.item(i), at_bracket_edge=self.at_bracket_edge.item(i),
        )


class StackEstimate(NamedTuple):
    """An estimator on each row of a stack, one entry per row: theta_hat and
    predicted_std (None for a method that predicts none), the searches
    behind them (a StackMinResult), and `errors`, the exception the row
    raises alone or None; a row with an error has NaN estimates.  `row(i)`
    is row i's Estimate, or raises its error."""

    theta_hat: np.ndarray
    predicted_std: np.ndarray | None
    diagnostics: StackMinResult
    errors: list[Exception | None]

    def row(self, i: int) -> Estimate:
        if self.errors[i] is not None:
            raise self.errors[i]
        std = None if self.predicted_std is None else self.predicted_std.item(i)
        return Estimate(self.theta_hat[i : i + 1].copy(), std, self.diagnostics.row(i))


@functools.lru_cache(maxsize=32)
def _shift(m: int) -> np.ndarray:
    """The m x m matrix of ones on the superdiagonal: a companion matrix
    less its first column."""
    (shift,) = _read_only(np.eye(m, k=1))
    return shift


def _roots(c: np.ndarray) -> np.ndarray:
    """The complex roots of each row of an (R, m + 1) stack of ascending
    coefficients, each with a nonzero c[:, m], from one stacked eigensolve
    of their companion matrices, rotated as in chebroots so that small
    roots are found beside large ones."""
    m = c.shape[1] - 1
    companion = np.empty((len(c), m, m))
    companion[:] = _shift(m)
    companion[:, :, 0] -= c[:, m - 1 :: -1] / c[:, m : m + 1]
    return np.linalg.eigvals(companion)


@functools.lru_cache(maxsize=64)
def _derivative_scales(k: int, reach: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For K = k coefficients: the factors 1..k-1 of the derivative, its
    powers 0..k-2, and reach to those powers."""
    powers = np.arange(k - 1)
    return _read_only(powers + 1.0, powers, reach ** powers)


def poly_argmin(coeffs, settings: OptimizerSettings = OptimizerSettings()):
    """Minimize on settings.bracket the polynomial of ascending power
    coefficients `coeffs` in theta, or each row of an (R, K) stack of them.
    Its candidates are the bracket ends and the real parts of its
    derivative's roots inside (a multiple root may come out as a complex
    cluster); the smallest value wins (exact ties: the smallest magnitude,
    then the first of lo, hi and the roots), and iterations counts the
    candidates.  The extremes on the bracket lie among them, so values that
    agree to 16 ulps make it degenerate.  A non-finite value is an error
    with its point: a non-finite coefficient gives one at every theta, so
    at lo.

    A stack gives a StackMinResult; its rows share one companion
    eigensolve per kept degree, and each row's result is bit for bit that
    of its own call.  1-D coeffs are the stack of one: they give its
    ScalarMinResult, or raise its CostEvaluationError."""
    lo, hi = settings.bracket
    c = np.asarray(coeffs, dtype=float)
    stack = c[None] if c.ndim == 1 else c
    rows, k = stack.shape
    # a non-finite value is its row's error, so numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        factors, powers, scales = _derivative_scales(k, max(-lo, hi))
        d = stack[:, 1:] * factors
        # derivative terms below eps of the largest on the bracket move no
        # root there but would swamp the companion matrix (a non-finite one
        # keeps no root); rotated as in chebroots, it finds small roots
        # beside large ones
        size = np.abs(d) * scales
        kept = size > _EPS * np.maximum.reduce(size, axis=1, initial=0.0, keepdims=True)
        degree = np.maximum.reduce(kept * powers, axis=1, initial=0)  # each row's kept degree
        degrees = set(degree.tolist())
        # the candidates of each row: lo, hi, then the roots in the
        # eigensolver's order, clipped to the bracket.  A root outside copies
        # an end that comes before it, which changes no value, no tie-break
        # and no first non-finite point
        xs = np.empty((rows, 2 + max(degrees, default=0)))
        xs[:] = lo
        xs[:, 1] = hi
        for m in degrees - {0}:
            idx = slice(None) if len(degrees) == 1 else np.flatnonzero(degree == m)
            xs[idx, 2 : 2 + m] = _roots(d[idx, : m + 1]).real
        roots = xs[:, 2:]
        np.minimum(np.maximum(roots, lo, out=roots), hi, out=roots)
        # Horner's rule, each coefficient spread over its row's candidates
        terms = stack.T[:, :, None].repeat(xs.shape[1], axis=2)
        vals = terms[-1]
        for term in terms[-2::-1]:
            vals *= xs
            vals += term
        best = np.lexsort((np.abs(xs), vals))[:, 0]
        r = np.arange(rows)
        argmin, min_value, high = xs[r, best], vals[r, best], np.maximum.reduce(vals, axis=1)
        # the largest magnitude among the values is that of min_value or high
        degenerate = high - min_value <= _FLAT * np.maximum(-min_value, high)
        # every value is finite where their sum is; an overflowing sum only
        # makes the rows be checked one by one
        all_finite = math.isfinite(np.add.reduce(vals, axis=None))
    # a filled slot never wins over lo, and a root inside is no bracket end
    edge = best < 2
    if np.logical_or.reduce(degenerate):
        x = min(max(0.0, lo), hi)  # the bracket point nearest 0
        argmin = np.where(degenerate, x, argmin)
        edge = np.where(degenerate, x in (lo, hi), edge)
    errors = [None] * rows
    if not all_finite:
        finite = np.isfinite(vals)
        for i in np.flatnonzero(~finite.all(axis=1)):
            j = np.argmin(finite[i])
            errors[i] = CostEvaluationError(float(xs[i, j]), float(vals[i, j]))
    # the candidates: the bracket ends and the roots strictly inside
    iterations = np.add.reduce((lo < roots) & (roots < hi), axis=1, initial=2)
    result = StackMinResult(argmin, min_value, iterations, degenerate, edge, errors)
    return result.row(0) if c.ndim == 1 else result


def horner(coeffs, x) -> np.ndarray:
    """sum_k coeffs[k] x^k, elementwise in x, by Horner's rule; a zero
    coefficient costs no addition, so x^3 is exactly x * x * x."""
    out = np.full_like(x, coeffs[-1], dtype=float)
    for c in coeffs[-2::-1]:
        out *= x
        if c:
            out += c
    return out


def gram_coeffs(Q) -> np.ndarray:
    """Ascending coefficients of p' Q p in theta, p = (1, theta, ..., theta^d),
    for a (d + 1, d + 1) Q or a stack of them: at theta^k, the sum of Q's
    k-th anti-diagonal, added from its first row down."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[-1]
    out = np.zeros(Q.shape[:-2] + (2 * n - 1,))
    for i in range(n):
        out[..., i : i + n] += Q[..., i, :]
    return out


def _window(start, lo: float, hi: float) -> OptimizerSettings | None:
    """The seeded search's bracket center +- LOCAL_HALF_WIDTH * scale, clipped
    to [lo, hi]; None when the start is not usable or the window is empty."""
    center, scale = (float(v) for v in start)
    if not (0.0 < scale < math.inf and lo <= center <= hi):  # the bracket is finite
        return None
    reach = LOCAL_HALF_WIDTH * scale
    w_lo, w_hi = max(lo, center - reach), min(hi, center + reach)
    return OptimizerSettings((w_lo, w_hi)) if w_lo < w_hi else None


def _interpolant_argmin(cost, window: OptimizerSettings, bracket) -> ScalarMinResult:
    """Minimize a smooth cost on the window by one cost call at its
    SEARCH_DEGREE + 1 Chebyshev points: values that agree to 16 ulps are
    degenerate; otherwise poly_argmin takes the interpolant in t = (2 theta
    - lo - hi) / (hi - lo) on [-1, 1], t = -1, 1 mapping exactly to the
    window's ends.  at_bracket_edge refers to `bracket`."""
    lo, hi = window.bracket
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_T
    vals = _checked_values(nodes, cost(nodes))
    if (flat := _flat(vals, window.bracket, len(nodes))) is not None:
        return replace(flat, at_bracket_edge=flat.argmin in bracket)
    res = poly_argmin(_TO_POWERS @ vals, OptimizerSettings((-1.0, 1.0)))
    x = float(np.interp(res.argmin, (-1.0, 1.0), (lo, hi)))
    return ScalarMinResult(x, res.min_value, len(nodes), at_bracket_edge=x in bracket)


def minimize_scalar(
    cost, settings: OptimizerSettings = OptimizerSettings(), start=None
) -> ScalarMinResult:
    """Minimize a smooth scalar cost on a bracket through its interpolant at
    SEARCH_DEGREE on a subinterval (`_interpolant_argmin`): the cost is taken
    to be analytic in theta, so that interpolant converges geometrically.
    The cost broadcasts over theta (a 1-D array gives an array of its shape).

    start = (center, scale), a consistent first estimate and its standard
    deviation, makes the subinterval center +- LOCAL_HALF_WIDTH * scale,
    clipped to the bracket: SEARCH_DEGREE + 1 evaluations in one call.  The
    fallback runs after it (fallback=True, iterations counting both) when
    that minimum lies on a window edge that is not a bracket end, or when the
    cost is flat on the window; an unusable start (a non-finite value,
    scale <= 0, a center outside the bracket, or an empty window) is ignored.
    The fallback scans FALLBACK_GRID_POINTS points of the bracket in one
    call: a cost equal at all of them is degenerate, its argmin the grid
    point nearest 0; otherwise the interpolant covers the grid cell around
    the grid minimum (exact ties: the smallest magnitude).  Non-finite cost
    values raise CostEvaluationError with the offending point, the first one
    in bracket order on the grid.  at_bracket_edge: an end of the bracket.
    """
    lo, hi = settings.bracket
    window = None if start is None else _window(start, lo, hi)
    spent = 0  # the window's evaluations: > 0 when the fallback follows one
    if window is not None:
        result = _interpolant_argmin(cost, window, settings.bracket)
        inner_edge = result.argmin in window.bracket and not result.at_bracket_edge
        if not (result.degenerate or inner_edge):
            return result
        spent = result.iterations
    xs = np.linspace(lo, hi, FALLBACK_GRID_POINTS)
    vals = _checked_values(xs, cost(xs))
    i = int(np.lexsort((np.abs(xs), vals))[0])
    if vals.max() == vals[i]:
        return ScalarMinResult(
            float(xs[i]), float(vals[i]), spent + len(xs), degenerate=True, fallback=bool(spent)
        )
    cell = OptimizerSettings((float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])))
    result = _interpolant_argmin(cost, cell, settings.bracket)
    iterations = spent + len(xs) + result.iterations
    return replace(result, iterations=iterations, degenerate=False, fallback=bool(spent))


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
    cutoff = _EPS * max(n, m) * sing[0]
    if rank < m or sing[-1] <= cutoff:
        raise RankDeficiencyError(float(sing[-1]))
    return coef, y - X @ coef
