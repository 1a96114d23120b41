"""Shared numeric kernels: Gauss-Hermite and Gauss-Legendre quadrature, exact
polynomial minimization, linear least squares, the Estimate record every
estimator returns, and RowErrors, the one per-row failure rule of every
stacked kernel, with Stackable, the one row-or-stack form of every result.

A polynomial criterion is its power coefficients in theta, minimized exactly
at the bracket ends and the roots of its derivative (`poly_argmin`, for one
criterion or each row of a stack of them in one call); the likelihood, the
one criterion that is not a polynomial, has its own search in `ml`.  The
module needs numpy alone: the quadrature nodes come from Newton passes on
the orthonormal recurrence, from asymptotic nodes for Legendre (O(n^2) time,
O(n) memory) and the eigenvalues of a dense Jacobi matrix for Hermite; the
rules are cached per order."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

SQRT_PI = math.sqrt(math.pi)

MAX_QUAD_ORDER = 2000

# the search interval of theta of every estimator
BRACKET = (-3.0, 3.0)

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

    def __reduce__(self):  # pickled from its fields, as a process pool returns it
        return type(self), (self.point, self.value)


class RankDeficiencyError(NumericsError):
    """Regressor matrix numerically rank deficient."""

    def __init__(self, smallest_singular_value):
        self.smallest_singular_value = smallest_singular_value
        super().__init__(
            f"rank-deficient regressors (smallest singular value "
            f"{smallest_singular_value:.3e})"
        )

    def __reduce__(self):  # pickled from its fields, as a process pool returns it
        return type(self), (self.smallest_singular_value,)


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


class RowErrors(list):
    """The failure rule of every stacked kernel, one entry per row: the
    exception the row's own call raises, or None.  A row keeps the first
    error it gets, from `fail(bad, make_error)` (make_error(i) for each row
    i of the mask `bad`) or `merge(errors)` (another kernel's errors), and
    the later checks skip it.  A failed row's numbers are NaN; `ok` masks
    the rows without an error, and `check(i)` raises row i's."""

    def fail(self, bad, make_error) -> None:
        for i in np.flatnonzero(bad):
            if self[i] is None:
                self[i] = make_error(i)

    def merge(self, errors) -> None:
        for i, error in enumerate(errors):
            if self[i] is None:
                self[i] = error

    @property
    def ok(self) -> np.ndarray:
        return np.array([e is None for e in self], dtype=bool)

    def check(self, i: int) -> None:
        if self[i] is not None:
            raise self[i]


class Stackable:
    """A result that holds one row or a stack of K rows.  A stack carries
    its rows on the leading axis of every array field and nested result,
    and their RowErrors in `errors`, which is None for one row.  `row(i)`
    is row i as one result, a 0-d entry a Python scalar, or raises row i's
    error; the fields that are not arrays are every row's."""

    def row(self, i: int):
        self.errors.check(i)
        return type(self)(**{f.name: _row(getattr(self, f.name), i)
                             for f in fields(self) if f.name != "errors"})


def _row(value, i: int):
    if isinstance(value, Stackable):
        return value.row(i)
    if not isinstance(value, np.ndarray):
        return value
    value = value[i]
    return value.item() if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class ScalarMinResult(Stackable):
    """Outcome of one bracketed search, or of a stack of them (Stackable).

    iterations counts the points where a polynomial was valued (poly_argmin)
    or, for ML (`ml.ml_estimate`), the likelihood evaluations of every
    stage: the bracket scan and Newton's at each quadrature order; min_value
    is the polynomial's value at argmin, or for ML ml.neg_log_likelihood at
    argmin, bit for bit, at order quad_order (the unweighted PEM's mean
    squared error with sigma_v2 = 0); at_bracket_edge is true when argmin
    is an end of the bracket, so the true minimum may lie outside it;
    degenerate is true when the criterion took one value at every point
    valued; fallback is true when ML's seeded Newton gave up and the
    bracket scan followed, iterations counting the evaluations of both.
    quad_order is the quadrature order of ML's min_value, and quad_change
    the |change| of the likelihood at argmin from the order of the stage
    before: NaN when one stage ran, inf when the last stage moved argmin or
    followed a stage that gave up, so that no value of the order before is
    known there.  ML states its accuracy when quad_change is within 16 ulps
    of |min_value|; both are None for a search without quadrature.
    """

    argmin: float
    min_value: float
    iterations: int
    degenerate: bool = False
    at_bracket_edge: bool = False
    fallback: bool = False
    quad_order: int | None = None
    quad_change: float | None = None
    errors: RowErrors | None = None


@dataclass(frozen=True)
class Estimate(Stackable):
    """One estimator's output on one data record, or on each row of a stack
    (Stackable).

    theta_hat is shaped like SystemSpec.theta, (K,) in a stack of K;
    predicted_std is the asymptotic standard deviation where the method
    predicts one (None otherwise, inf when the prediction is undefined);
    diagnostics is the scalar search behind the estimate, which every
    estimator makes.
    """

    theta_hat: np.ndarray
    predicted_std: float | None = None
    diagnostics: ScalarMinResult | None = None
    errors: RowErrors | None = None

    def __post_init__(self):
        # a row's theta_hat comes out of row() a Python float
        object.__setattr__(self, "theta_hat", np.atleast_1d(self.theta_hat))


def _roots(c: np.ndarray) -> np.ndarray:
    """The complex roots of each row of an (R, m + 1) stack of ascending
    coefficients, each with a nonzero c[:, m], from one stacked eigensolve
    of their companion matrices, rotated as in chebroots so that small
    roots are found beside large ones."""
    m = c.shape[1] - 1
    companion = np.empty((len(c), m, m))
    companion[:] = np.eye(m, k=1)
    companion[:, :, 0] -= c[:, m - 1 :: -1] / c[:, m : m + 1]
    return np.linalg.eigvals(companion)


def poly_argmin(coeffs, bracket: tuple[float, float] = BRACKET):
    """Minimize on bracket = (lo, hi), finite with lo < hi, the polynomial
    of ascending power coefficients `coeffs` in theta, or each row of an
    (R, K) stack of them.  Its candidates are the bracket ends and the real
    parts of its derivative's roots inside (a multiple root may come out as
    a complex cluster), every row valued at its own in one `horner` call;
    the smallest value wins (exact ties: the smallest magnitude, then the
    first of lo, hi and the roots), and iterations counts the candidates.
    The extremes on the bracket lie among them, so values that agree to 16
    ulps make it degenerate.  A non-finite value is an error with its
    point: a non-finite coefficient gives one at every theta, so at lo.

    A stack gives the stacked ScalarMinResult; its rows share one
    companion eigensolve per kept degree, and each row's result is bit for
    bit that of its own call.  1-D coeffs are the stack of one: they give
    its ScalarMinResult, or raise its CostEvaluationError.  Coefficients of
    another shape, or none, raise ValueError."""
    lo, hi = bracket
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise ValueError(f"poly_argmin needs (K,) or (R, K) coefficients, K >= 1, got shape {c.shape}")
    stack = c[None] if c.ndim == 1 else c
    rows, k = stack.shape
    # a non-finite value is its row's error, so numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.arange(k - 1)
        d = stack[:, 1:] * (powers + 1.0)
        # derivative terms below eps of the largest on the bracket move no
        # root there but would swamp the companion matrix (a non-finite one
        # keeps no root); rotated as in chebroots, it finds small roots
        # beside large ones
        size = np.abs(d) * max(-lo, hi) ** powers
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
        # each row's coefficients against its own candidates
        vals = horner(stack.T[:, :, None], xs)
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
    errors = RowErrors([None] * rows)
    if not all_finite:
        finite = np.isfinite(vals)
        first = np.argmin(finite, axis=1)  # each row's first non-finite value
        errors.fail(~finite.all(axis=1), lambda i: CostEvaluationError(
            float(xs[i, first[i]]), float(vals[i, first[i]])))
    # the candidates: the bracket ends and the roots strictly inside
    iterations = np.add.reduce((lo < roots) & (roots < hi), axis=1, initial=2)
    result = ScalarMinResult(argmin, min_value, iterations, degenerate, edge, errors=errors)
    return result.row(0) if c.ndim == 1 else result


def horner(coeffs, x) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, elementwise in x.  Each
    coefficient is a number, or an array that broadcasts against x, all of
    one shape; the result has the broadcast shape of x and coeffs[-1].  A
    zero number costs no addition, so x^3 is exactly x * x * x; an array
    coefficient is always added."""
    out = np.full(np.broadcast_shapes(np.shape(coeffs[-1]), np.shape(x)), coeffs[-1], dtype=float)
    for c in coeffs[-2::-1]:
        out *= x
        if np.ndim(c) or c:
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


def least_squares(regressors: np.ndarray, targets: np.ndarray):
    """Least-squares coefficients and residuals (targets - fit) of a stack
    of K problems, regressors (K, N, m) and targets (K, N), from the R
    factor of one QR factorization of each [regressors | targets].

    Returns (K, m) coefficients, (K, N) residuals and the RowErrors of the
    rows: a RankDeficiencyError where the smallest singular value falls
    below the usual eps * max(N, m) * s_max threshold, taken on the
    singular values of R (those of the regressors).  The rows share one
    QR, SVD and solve, each slice computed as it is alone, so a row is bit
    for bit its stack of one.
    (N, m) regressors and (N,) targets are the stack of one.
    """
    X = np.asarray(regressors, dtype=float)
    y = np.asarray(targets, dtype=float)
    *_, n, m = X.shape
    if n < m:
        raise ValueError(f"need at least as many rows as columns, got {n} x {m}")
    if y.shape != X.shape[:-1]:
        raise ValueError(f"targets of shape {y.shape} do not match regressors of shape {X.shape}")
    X, y = X.reshape(-1, n, m), y.reshape(-1, n)
    # [regressors | targets] column by column, the layout LAPACK reads,
    # which spares the QR a strided copy
    augmented = np.empty((len(X), m + 1, n))
    augmented[:, :m] = X.swapaxes(1, 2)
    augmented[:, m] = y
    r = np.linalg.qr(augmented.swapaxes(1, 2), mode="r")
    sing = np.linalg.svd(r[:, :m, :m], compute_uv=False)
    ok = sing[:, -1] > _EPS * max(n, m) * sing[:, 0]
    errors = RowErrors([None] * len(X))
    errors.fail(~ok, lambda i: RankDeficiencyError(float(sing[i, -1])))
    coef = np.full((len(X), m), np.nan)
    coef[ok] = np.linalg.solve(r[ok, :m, :m], r[ok, :m, m:])[..., 0]
    return coef, y - (X @ coef[..., None])[..., 0], errors
