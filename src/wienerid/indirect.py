"""Two-step indirect inference on top of the best linear approximation.

Step 1 fits the auxiliary linear model (bla module).  Step 2 picks the
structured parameter whose implied auxiliary coefficients best match the fit
in a W-weighted metric, using either the closed-form binding function of the
cubic FIR example or a simulated binding function with common random
numbers.  For white input the closed form depends on the input only through
its power sigma_u2 and its fourth-moment ratio kappa = E{u^4} / sigma_u2^2
(Distribution.kurtosis), so one AnalyticMap serves every input kind.

Both maps are polynomials in theta, and each is its matrix `coeffs` of
ascending power coefficients, one row per power and one column per
auxiliary coefficient.  The simulated map builds that matrix once, from the
replicate moments of the noise (`pem.theta_coeffs`, PEM's expansion) and
the pseudo-inverse of the lagged regressors.  Step 2 reads the matrix
alone: with R the matrix less beta_hat in its constant row, the W-metric
criterion p' R M R' p, p = (1, theta, ...), is a polynomial of twice the
map's degree, minimized exactly from its coefficients (`gram_coeffs`,
`poly_argmin`); G comes from the matrix's derivative.  The predicted std
is the square root of the asymptotic sandwich variance inflation * H^-1 G'
W Sigma W G H^-1, H = G' W G, Sigma the covariance of the auxiliary fit.
Step 2 takes one fit or a stack of them, each row bit for bit its own call,
so an experiment matches all its records in one call per method.

The order-zero method is Step 2 on the slope of y on u(t) against the
closed-form map's first component: with as many auxiliary coefficients as
theta the match solves beta1(theta) = slope on the bracket, the weighting
drops out and the sandwich is the delta method through that inverse.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .numerics import (
    Estimate, RankDeficiencyError, RowErrors, gram_coeffs, least_squares, poly_argmin,
)
from .pem import theta_coeffs
from .signals import (
    Distribution, DistributionKind, Seed, StreamRole, gaussian_white, gen_white, uniform_white,
)
from .system import DataRecord, SystemSpec, lagged_matrix, linear_output, stack_records

# the lags of the first-order auxiliary fit, u(t) and u(t - 1), and of the simulated map
FIRST_ORDER_LAGS = (0, 1)


@dataclass(frozen=True)
class AnalyticMap:
    """Closed-form binding function beta(theta) of the cubic FIR example.

    For white input of power sigma_u2 and fourth-moment ratio
    kappa = E{u^4} / sigma_u2^2 (3 gaussian, 9/5 uniform):
        beta1 = kappa sigma_u2 theta^3 + 3 (sigma_u2 + sigma_v2) theta
        beta2 = 3 sigma_u2 theta^2 + kappa sigma_u2 + 3 sigma_v2
    `coeffs` holds them as a (4, 2) matrix, row k the coefficients of
    theta^k.  At kappa = 3 both components share one gain, so
    beta1/beta2 = theta.  A float theta gives shape (2,), a (G,) array
    gives (G, 2).
    """

    sigma_u2: float
    sigma_v2: float
    kappa: float
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    inflation = 1.0  # exact map: no simulation noise to inflate by

    def __post_init__(self):
        if self.sigma_u2 < 0 or self.sigma_v2 < 0:
            raise ValueError("variances must be >= 0")
        su2, sv2, kappa = self.sigma_u2, self.sigma_v2, self.kappa
        # grouped so that at kappa = 3 beta2's constant is bit for bit
        # beta1's linear coefficient, and beta1 = theta * beta2 exactly
        coeffs = [[0.0, 3.0 * (kappa / 3.0 * su2 + sv2)], [3.0 * (su2 + sv2), 0.0],
                  [0.0, 3.0 * su2], [kappa * su2, 0.0]]
        object.__setattr__(self, "coeffs", np.array(coeffs))

    def __call__(self, theta) -> np.ndarray:
        return npoly.polyval(theta, self.coeffs).T


def beta_map_gaussian(theta, sigma_u2: float, sigma_v2: float):
    """(beta1, beta2) for gaussian white input (kappa = 3), on the first axis."""
    return AnalyticMap(sigma_u2, sigma_v2, gaussian_white(sigma_u2).kurtosis)(theta).T


def beta_map_uniform(theta, sigma_u2: float, sigma_v2: float):
    """(beta1, beta2) for uniform white input (kappa = 9/5), on the first axis."""
    return AnalyticMap(sigma_u2, sigma_v2, uniform_white(sigma_u2).kurtosis)(theta).T


@dataclass
class SimulatedMap:
    """Simulated binding function with common random numbers.

    The map is the fit of the S stacked replicate outputs
    f(theta x + w_s) on tile(phi, S), with x the free tap's input, w_s the
    fixed taps' output plus the process-noise replicate v_s, and phi the
    N x 2 regressors at FIRST_ORDER_LAGS.  That fit equals pinv(phi)
    applied to the replicate mean of the outputs, a polynomial in theta of
    the nonlinearity's degree: for f(z) = sum_j c_j z^j its coefficient at
    theta^k is, per sample, x^k sum_j c_j C(j, k) mean_s(w_s^(j-k))
    (`pem.theta_coeffs` of the replicate means).  Construction draws the
    replicates, checks the rank of phi (rank-deficient regressors raise
    RankDeficiencyError) and projects those per-sample rows once, into
    `coeffs`, a (degree + 1, 2) matrix; the noise draws are not kept.  A
    (G,) array of theta gives a (G, 2) array, row g bit for bit equal to the
    call with theta[g].
    """

    u: np.ndarray
    spec_template: SystemSpec
    s_count: int
    seed: Seed
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.s_count < 1:
            raise ValueError("s_count must be >= 1")
        fir, nl = self.spec_template.fir, self.spec_template.nonlinearity
        self.u = np.asarray(self.u, dtype=float)
        n = len(self.u) - max(fir.max_lag, *FIRST_ORDER_LAGS)
        m = len(FIRST_ORDER_LAGS)
        phi = lagged_matrix(self.u, n, FIRST_ORDER_LAGS)
        left, sing, right_t = np.linalg.svd(phi, full_matrices=False)
        # tile(phi, S) has the singular values sqrt(S) * sing, so this is
        # least_squares' eps * max(rows, m) * s_max threshold on the stacked
        # problem; fewer rows than lags leave a zero singular value
        smallest = float(sing[-1]) if len(sing) == m else 0.0
        if smallest <= np.finfo(float).eps * max(self.s_count * n, m) * sing[0]:
            raise RankDeficiencyError(math.sqrt(self.s_count) * smallest)

        v_dist = Distribution(DistributionKind.GAUSSIAN_WHITE, self.spec_template.sigma_v2)
        n_max = len(self.u) - fir.max_lag
        w = linear_output(fir, 0.0, self.u)[-n:] + np.stack([
            gen_white(v_dist, n_max, self.seed, path=(int(StreamRole.SIMULATION), s))[-n:]
            for s in range(self.s_count)
        ])
        x = lagged_matrix(self.u, n, fir.free_lags)[:, 0]
        # one (S, N) power at a time: a (degree + 1, S, N) stack is slower
        power, moments = np.ones_like(w), [np.ones(n)]
        for _ in range(nl.degree):
            power = power * w
            moments.append(power.mean(axis=0))
        rows = theta_coeffs(nl.coeffs, x, np.array(moments))
        self.coeffs = (rows @ left / sing) @ right_t

    @property
    def inflation(self) -> float:
        return 1.0 + 1.0 / self.s_count

    def __call__(self, theta) -> np.ndarray:
        return npoly.polyval(theta, self.coeffs).T


def step2(beta_hat: np.ndarray, W: np.ndarray, beta_map, beta_cov: np.ndarray):
    """Match the binding function to the auxiliary fit in the W metric.

    beta_map gives `coeffs`, the (degree + 1, len(beta_hat)) ascending power
    coefficients of the binding function in theta, and may give `inflation`
    (default 1); it is not called.  A non-finite beta_hat, W, coeffs or
    beta_cov raises ValueError naming it.
    The criterion, the Gram form of R M R' (R the coeffs less beta_hat in the
    constant row, M the metric) of degree 2 * degree in theta, is minimized
    exactly on numerics.BRACKET, and G is the derivative of the coefficients at the estimate.
    The criterion weighs residuals by W / trace(W) rounded to 40 binary
    places, so the argmin is invariant to positive rescaling of W (unless an
    entry lies within a few ulps of a rounding boundary).  predicted_std is
    the square root of the sandwich inflation * H^-1 G' W beta_cov W G H^-1,
    H = G' W G, where beta_cov is the covariance of beta_hat.  It is
    infinite when the criterion is flat or its minimum is a bracket end.

    A stack of R fits, beta_hat (R, m), gives their stacked Estimate, and
    every other input is stacked with it: W and beta_cov (R, m, m), coeffs
    (R, degree + 1, m) and inflation (R,).  Every check runs per row under
    numerics.RowErrors, so the other rows go on.  The rows share one
    matmul, inverse and search per step, each slice computed as its own
    call computes it, so a row's estimate is bit for bit that of its own
    call.  A 1-D beta_hat is the stack of one, with every input unstacked:
    it gives its Estimate, or raises its error.  An input of any other
    shape raises ValueError naming it.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_hat.ndim not in (1, 2):
        raise ValueError(f"beta_hat of shape {beta_hat.shape}; step2 needs (m,) or an (R, m) stack")
    lead, width = beta_hat.shape[:-1], beta_hat.shape[-1]  # lead (R,) for a stack, () for one fit
    fits = beta_hat.reshape(-1, width)
    rows = len(fits)

    def row_stack(name, value, shape, needs=None):
        """value as (rows, *shape); ValueError naming it unless its shape is lead + shape."""
        value = np.asarray(value, dtype=float)
        if value.shape != lead + shape:
            needs = str(lead + (needs or shape)).replace("'", "")
            raise ValueError(f"{name} of shape {value.shape}; step2 needs {needs}")
        return value.reshape(rows, *shape)

    # coeffs has its own number of powers, and no powers is a wrong shape
    powers = max((1, *np.shape(beta_map.coeffs)[-2:-1]))
    coeffs = row_stack("beta_map.coeffs", beta_map.coeffs, (powers, width), ("degree + 1", width))
    W = row_stack("W", W, (width, width))
    beta_cov = row_stack("beta_cov", beta_cov, (width, width))
    inflation = row_stack("beta_map.inflation", getattr(beta_map, "inflation", np.ones(lead)), ())

    # the checks run in the order of a call of its own
    errors = RowErrors([None] * rows)
    named = [("beta_hat", fits), ("W", W), ("beta_map.coeffs", coeffs), ("beta_cov", beta_cov)]
    for name, value in named:
        if not (finite := np.isfinite(value)).all():
            bad = ~finite.reshape(rows, -1).all(axis=1)
            errors.fail(bad, lambda i, n=name: ValueError(f"{n} must be finite"))
    finite_rows = errors.ok
    # a failed row's numbers are dropped, so its warnings would say nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.isclose(W, W') at rtol 1e-10 and atol 1e-12, on finite rows
        transposed = W.swapaxes(1, 2)
        symmetric = (np.abs(W - transposed) <= 1e-12 + 1e-10 * np.abs(transposed)).all(axis=(1, 2))
        errors.fail(~symmetric, lambda i: ValueError("W must be symmetric"))
        # only the finite metrics: LAPACK refuses a non-finite one
        eigvals = np.ones((rows, width))
        eigvals[finite_rows] = np.linalg.eigvalsh(W[finite_rows])
        errors.fail(eigvals[:, 0] <= 1e-12 * np.maximum(eigvals[:, -1], 0.0),
                    lambda i: ValueError(f"W must be positive definite (eigenvalues {eigvals[i]})"))

        metric = np.round(W / np.trace(W, axis1=1, axis2=2)[:, None, None] * 2.0**40) / 2.0**40
        # the residual beta(theta) - beta_hat is R' p(theta), p = (1, theta, ...)
        R = coeffs.copy()
        R[:, 0] -= fits
        search = poly_argmin(gram_coeffs(R @ metric @ R.swapaxes(1, 2)))
        errors.merge(search.errors)
        ok = errors.ok
        # G, the coefficients' derivative at the estimate, as npoly.polyder
        # and npoly.polyval form it for one row
        slope = coeffs[:, 1:] * np.arange(1, powers)[:, None] if powers > 1 else coeffs * 0.0
        g = npoly.polyval(search.argmin[:, None], np.moveaxis(slope, 1, 0), tensor=False)
        G = g[:, :, None]

        wg = W @ G
        h = G.swapaxes(1, 2) @ wg
        # a flat criterion has no curvature, and at a bracket edge the minimum
        # may lie outside the bracket: neither gives a finite prediction, nor
        # does a singular H
        curved = ok & ~(search.at_bracket_edge | search.degenerate) & (h[:, 0, 0] != 0.0)
        cov = np.full((rows, 1, 1), np.inf)
        h_inv, wg = np.linalg.inv(h[curved]), wg[curved]
        sandwich = wg.swapaxes(1, 2) @ beta_cov[curved] @ wg
        cov[curved] = inflation[curved, None, None] * h_inv @ sandwich @ h_inv
        theta_hat = np.where(ok, search.argmin, np.nan)
        std = np.where(ok, np.sqrt(cov[:, 0, 0]), np.nan)
    result = Estimate(theta_hat, std, search, errors)
    return result if lead else result.row(0)


def analytic_binding(spec_template: SystemSpec) -> AnalyticMap:
    """The closed-form map of the template's input."""
    dist = spec_template.input_dist
    return AnalyticMap(dist.variance, spec_template.sigma_v2, dist.kurtosis)


def zero_order_fit(data: DataRecord | Sequence[DataRecord]):
    """The order-zero auxiliary fit of a stack of K records of one len(u)
    and one n_obs: per record the slope of y on u(t) alone, and its
    heteroskedasticity-robust variance sum u^2 eps^2 / (sum u^2)^2 with eps
    the regression residual, from one stacked least_squares.

    Returns the (K,) slopes and variances and the RowErrors of the rows,
    a failed row's numbers NaN.  Squares that overflow, or an input whose
    squares underflow to zero, leave that variance non-finite, a
    LinAlgError (a ValueError), as in bla.estimate_weighting.  One
    DataRecord is the stack of one.
    """
    u, y = stack_records(data)
    u0 = lagged_matrix(u, y.shape[1], (0,))
    beta1, resid, errors = least_squares(u0, y)
    # a square that overflows, or a sum of squares of u that underflows to
    # zero, raises LinAlgError below, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u2 = u0[..., 0] ** 2
        variance = np.sum(u2 * resid * resid, axis=1) / np.sum(u2, axis=1) ** 2
    errors.fail(~np.isfinite(variance), lambda i: np.linalg.LinAlgError(
        f"robust slope variance is not finite (squares overflow or underflow): {variance[i]}"))
    ok = errors.ok
    return np.where(ok, beta1[:, 0], np.nan), np.where(ok, variance, np.nan), errors
