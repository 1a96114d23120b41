"""Shared numeric kernels: Gauss-Hermite and Gauss-Legendre quadrature, scalar
minimization (exact for a polynomial cost in `poly_argmin`, a seeded grid scan
and bounded Brent in `minimize_scalar`), linear least squares, and the
Estimate record every estimator returns.

The module needs numpy alone: the quadrature nodes are the eigenvalues of a
dense symmetric Jacobi matrix (computed once per order, the rules are
cached), and bounded Brent is an in-house transcription (`_brent`)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as cheb

SQRT_PI = math.sqrt(math.pi)

MAX_QUAD_ORDER = 2000

# a seeded search scans this many points on start +- LOCAL_HALF_WIDTH scales
LOCAL_GRID_POINTS = 9
LOCAL_HALF_WIDTH = 6.0

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
    """Bracketed scalar search: poly_argmin reads the bracket alone, and
    minimize_scalar also its grid scan and Brent refinement settings."""

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

    iterations counts every point the cost was evaluated at; at_bracket_edge
    is true when the minimum found is an end of the bracket (for
    minimize_scalar: the grid minimum), so the true minimum may lie outside
    it; degenerate is true when the cost took one value (to rounding, for
    poly_argmin) at every point of the first scan; fallback is true when a
    seeded minimize_scalar search fell back to the full bracket scan.
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
    `degree` in theta and broadcasts over theta as for minimize_scalar.

    One call at the degree + 1 Chebyshev points of the bracket gives its
    interpolant; a second evaluates the cost at the bracket ends and at the
    real parts of its critical points inside, and the smallest value wins
    (exact ties: the smallest magnitude).  A cost equal at every node to 16
    ulps is degenerate, its argmin the bracket point nearest 0.  Non-finite
    values raise CostEvaluationError with the offending point."""
    lo, hi = settings.bracket
    nodes, _, to_slopes = chebyshev_points(degree, lo, hi)
    vals = _checked_values(cost, nodes)
    if np.ptp(vals) <= 16 * np.finfo(float).eps * np.abs(vals).max():
        x = min(max(0.0, lo), hi)
        return ScalarMinResult(
            x, float(vals[0]), degree + 1, degenerate=True, at_bracket_edge=x in (lo, hi)
        )
    s = cheb.chebroots(to_slopes @ vals).real
    inner = np.clip(0.5 * (lo + hi) + 0.5 * (hi - lo) * s[abs(s) < 1.0], lo, hi)
    xs = np.concatenate([[lo, hi], inner])
    cand = _checked_values(cost, xs)
    i = min(range(len(xs)), key=lambda k: (cand[k], abs(xs[k])))
    return ScalarMinResult(
        float(xs[i]), float(cand[i]), degree + 1 + len(xs), at_bracket_edge=xs[i] in (lo, hi)
    )


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _brent(func, lo: float, hi: float, xatol: float, maxiter: int):
    """Minimize func on [lo, hi] by golden-section search with parabolic
    steps; returns the best point, its value and the evaluation count, which
    maxiter caps.

    A step-for-step transcription of `_minimize_scalar_bounded` (fminbound)
    in scipy.optimize, which is BSD-3-Clause licensed (Copyright (c)
    2001-2002 Enthought, Inc. and 2003- SciPy Developers), without its
    message printing and result object.  On finite values it returns what
    `scipy.optimize.minimize_scalar(method="bounded")` returns, bit for bit.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


def _scan_and_refine(cost, xs: np.ndarray, settings: OptimizerSettings):
    """Scan the grid xs in one call of the cost, then refine in the cell
    around the grid minimum with bounded Brent.

    Returns the search result and whether the grid minimum is the first or
    last grid point without being a bracket end (only a grid narrower than
    the bracket has such an edge); a degenerate scan skips Brent.
    """

    def checked(x: float) -> float:
        val = float(cost(x))
        if not math.isfinite(val):
            raise CostEvaluationError(x, val)
        return val

    vals = _checked_values(cost, xs)
    vmin = vals.min()
    if vals.max() == vmin:
        mid = xs[int(np.argmin(np.abs(xs)))]
        return ScalarMinResult(float(mid), float(vmin), len(xs), degenerate=True), False
    ties = np.flatnonzero(vals == vmin)
    i = int(ties[np.argmin(np.abs(xs[ties]))])
    sub_lo = float(xs[max(i - 1, 0)])
    sub_hi = float(xs[min(i + 1, len(xs) - 1)])
    x_best, v_best, nfev = _brent(checked, sub_lo, sub_hi, settings.abs_tol, settings.max_iter)
    if vmin < v_best:
        x_best, v_best = float(xs[i]), float(vmin)
    on_edge = i in (0, len(xs) - 1)
    at_bracket_edge = on_edge and float(xs[i]) in settings.bracket
    result = ScalarMinResult(
        x_best, v_best, len(xs) + nfev, at_bracket_edge=at_bracket_edge
    )
    return result, on_edge and not at_bracket_edge


def _local_grid(start, lo: float, hi: float) -> np.ndarray | None:
    """The seeded scan's grid on center +- LOCAL_HALF_WIDTH * scale, clipped
    to [lo, hi]; None when the start is not usable."""
    center, scale = (float(v) for v in start)
    if not (math.isfinite(center) and math.isfinite(scale)) or scale <= 0:
        return None
    if not lo <= center <= hi:
        return None
    reach = LOCAL_HALF_WIDTH * scale
    return np.linspace(max(lo, center - reach), min(hi, center + reach), LOCAL_GRID_POINTS)


def minimize_scalar(
    cost, settings: OptimizerSettings = OptimizerSettings(), start=None
) -> ScalarMinResult:
    """Minimize a scalar cost on a bracket.

    The cost broadcasts over theta: a float gives a float and a 1-D array
    gives an array of the same shape (a cost that ignores theta may return a
    scalar).  One call on the whole grid of settings.grid_points locates the
    coarse minimum (exact ties preferring the point of smallest magnitude,
    for determinism on symmetric costs), then golden-section/parabolic
    refinement runs on the neighboring grid cell, calling the cost with one
    float at a time.  Non-finite cost values raise CostEvaluationError with
    the offending point, the first one in bracket order on the grid.

    start = (center, scale) seeds the search from a consistent first
    estimate and its standard deviation: the grid is then LOCAL_GRID_POINTS
    points on center +- LOCAL_HALF_WIDTH * scale, clipped to the bracket,
    and the refinement runs in its cell as above.  The full bracket scan
    runs after it (fallback=True, iterations counting both scans) when the
    local minimum sits on a local grid edge that is not a bracket edge, or
    when the local scan is degenerate.  A start that is not usable (a
    non-finite value, scale <= 0, or a center outside the bracket) is
    ignored, and the result is that of the call without it.
    """
    lo, hi = settings.bracket
    local = None if start is None else _local_grid(start, lo, hi)
    spent = 0
    if local is not None:
        result, inner_edge = _scan_and_refine(cost, local, settings)
        if not (result.degenerate or inner_edge):
            return result
        spent = result.iterations
    result, _ = _scan_and_refine(cost, np.linspace(lo, hi, settings.grid_points), settings)
    return replace(result, iterations=spent + result.iterations, fallback=local is not None)


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
