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
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import bla as bla_mod
from .numerics import (
    Estimate, OptimizerSettings, RankDeficiencyError, RowErrors, gram_coeffs, least_squares,
    poly_argmin,
)
from .pem import theta_coeffs
from .signals import (
    Distribution, DistributionKind, Seed, StreamRole, gaussian_white, gen_white, uniform_white,
)
from .system import DataRecord, SystemSpec, lagged_matrix, linear_output, stack_records


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
    N x len(lags) lagged regressors.  That fit equals pinv(phi) applied to
    the replicate mean of the outputs, a polynomial in theta of the
    nonlinearity's degree: for f(z) = sum_j c_j z^j its coefficient at
    theta^k is, per sample, x^k sum_j c_j C(j, k) mean_s(w_s^(j-k))
    (`pem.theta_coeffs` of the replicate means).  Construction draws the
    replicates, checks the rank of phi (rank-deficient regressors raise
    RankDeficiencyError) and projects those per-sample rows once, into
    `coeffs`, a (degree + 1, len(lags)) matrix; the noise draws are not
    kept.  A (G,) array of theta gives a (G, len(lags)) array, row g bit for
    bit equal to the call with theta[g].
    """

    u: np.ndarray
    spec_template: SystemSpec
    s_count: int
    seed: Seed
    lags: tuple[int, ...] = (0, 1)
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.s_count < 1:
            raise ValueError("s_count must be >= 1")
        fir, nl = self.spec_template.fir, self.spec_template.nonlinearity
        self.u = np.asarray(self.u, dtype=float)
        self.lags = tuple(int(l) for l in self.lags)
        n = len(self.u) - max(fir.max_lag, *self.lags)
        m = len(self.lags)
        left, sing, right_t = np.linalg.svd(lagged_matrix(self.u, n, self.lags), full_matrices=False)
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


def step2(
    beta_hat: np.ndarray,
    W: np.ndarray,
    beta_map,
    settings: OptimizerSettings = OptimizerSettings(),
    *,
    n_obs: int | None = None,
    beta_cov: np.ndarray | None = None,
):
    """Match the binding function to the auxiliary fit in the W metric.

    beta_map gives `coeffs`, the (degree + 1, len(beta_hat)) ascending power
    coefficients of the binding function in theta (any other shape raises
    ValueError), and may give `inflation` (default 1); it is not called.
    A non-finite beta_hat, W, coeffs or beta_cov raises ValueError naming it.
    The criterion, the Gram form of R M R' (R the coeffs less beta_hat in the
    constant row, M the metric) of degree 2 * degree in theta, is minimized
    exactly, and G is the derivative of the coefficients at the estimate.
    The criterion weighs residuals by W / trace(W) rounded to 40 binary
    places, so the argmin is invariant to positive rescaling of W (unless an
    entry lies within a few ulps of a rounding boundary).  predicted_std is
    the square root of the sandwich inflation * H^-1 G' W beta_cov W G H^-1,
    H = G' W G, where beta_cov is the covariance of beta_hat; it defaults to
    (n_obs W)^-1, for which the sandwich reduces to inflation * H^-1 / n_obs,
    and without either of them step2 raises ValueError.  It is infinite
    when the criterion is flat or its minimum is a bracket end.

    A stack of R fits, beta_hat (R, m), gives their stacked Estimate.  W
    and beta_cov are then (R, m, m), coeffs (R, degree + 1, m) and inflation
    (R,), or any of them one value shared by every row.  Every check runs
    per row under numerics.RowErrors, so the other rows go on.  The rows
    share one matmul, inverse and search per step, each slice computed as
    its own call computes it, so a row's estimate is bit for bit that of
    its own call.  A 1-D beta_hat is the stack of one: it gives its
    Estimate, or raises its error.  A beta_hat of another shape raises
    ValueError.
    """
    if n_obs is None and beta_cov is None:
        raise ValueError("step2 needs n_obs or beta_cov for the predicted std")
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_hat.ndim not in (1, 2):
        raise ValueError(f"beta_hat of shape {beta_hat.shape}; step2 needs (m,) or an (R, m) stack")
    fits = beta_hat.reshape(-1, beta_hat.shape[-1])
    rows, width = fits.shape
    stacked = beta_hat.ndim == 2
    square = (rows, width, width)
    coeffs = np.asarray(beta_map.coeffs, dtype=float)
    shared = coeffs.ndim == 2  # one map for every row
    if coeffs.shape[-1:] != (width,) or coeffs.shape[-2:-1] == (0,) or not (
        shared or stacked and coeffs.ndim == 3 and len(coeffs) == rows
    ):
        raise ValueError(
            f"binding function coeffs of shape {coeffs.shape}; step2 needs"
            f" (degree + 1, {width}) for beta of length {width}"
            + (f", or ({rows}, degree + 1, {width}) for {rows} of them" if stacked else "")
        )
    W = np.asarray(W, dtype=float)
    if W.shape != (width, width) and not (stacked and W.shape == square):
        raise ValueError(f"W shape {W.shape} does not match beta of length {width}")
    # a shared value goes to every row
    W = np.array(np.broadcast_to(W, square))
    if beta_cov is not None:
        beta_cov = np.array(np.broadcast_to(beta_cov, square), dtype=float)
    inflation = np.array(np.broadcast_to(getattr(beta_map, "inflation", 1.0), rows), dtype=float)

    # the checks run in the order of a call of its own
    errors = RowErrors([None] * rows)
    named = [("beta_hat", fits), ("W", W), ("beta_map.coeffs", coeffs), ("beta_cov", beta_cov)]
    for name, value in named:
        if value is not None and not (finite := np.isfinite(value)).all():
            bad = ~finite.reshape(1 if value is coeffs and shared else rows, -1).all(axis=1)
            errors.fail(np.broadcast_to(bad, rows), lambda i, n=name: ValueError(f"{n} must be finite"))
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
        R = np.empty((rows,) + coeffs.shape[-2:])
        R[:, 0] = coeffs[..., 0, :] - fits
        R[:, 1:] = coeffs[..., 1:, :]
        search = poly_argmin(gram_coeffs(R @ metric @ R.swapaxes(1, 2)), settings)
        errors.merge(search.errors)
        ok = errors.ok
        # G, the coefficients' derivative at the estimate, as npoly.polyder
        # and npoly.polyval form it for one row
        n = coeffs.shape[-2]
        slope = coeffs[..., 1:, :] * np.arange(1, n)[:, None] if n > 1 else coeffs * 0.0
        g = npoly.polyval(search.argmin[:, None], np.moveaxis(slope, -2, 0), tensor=False)
        G = g[:, :, None]

        if beta_cov is None:
            beta_cov = np.zeros(square)
            beta_cov[ok] = np.linalg.inv(n_obs * W[ok])
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
    return result if stacked else result.row(0)


def analytic_binding(
    spec_template: SystemSpec, input_kind: DistributionKind | None
) -> AnalyticMap:
    """The closed-form map of the template's input, or of input_kind when given."""
    dist = spec_template.input_dist
    if input_kind is not None:
        dist = Distribution(input_kind, dist.variance)
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


def zero_order_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    input_kind: DistributionKind | None = None,
) -> Estimate:
    """Order-zero indirect inference: match the first component of the
    closed-form map to the slope of y on u(t) (`zero_order_fit`) in step2.

    The fit has as many coefficients as theta, so the match solves
    beta1(theta) = slope on the bracket and the metric drops out (W = 1);
    the sandwich of step2 is then the delta method through that inverse.
    The match is step2's stack of one, so it is bit for bit bench's II0 on
    the same record, whose Step 2 stacks the slopes of all its records.
    """
    slope, variance, errors = zero_order_fit(data)
    errors.check(0)
    beta_map = SimpleNamespace(coeffs=analytic_binding(spec_template, input_kind).coeffs[:, :1])
    return step2(slope, np.eye(1), beta_map, beta_cov=variance[:, None])


def first_order_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    input_kind: DistributionKind | None = None,
    weighted: bool = True,
    settings: OptimizerSettings = OptimizerSettings(),
    beta_map=None,
) -> Estimate:
    """Order-one indirect inference: fit the lag-(0, 1) BLA with its
    sandwich weighting (`estimate_weighting`) and match beta_map to it in
    step2.

    beta_map defaults to the analytic binding function of the template's
    input (of input_kind when given); a SimulatedMap gives the simulated
    variant.  Unweighted uses the identity metric; weighted uses the
    inverse sandwich covariance of the auxiliary fit.  Both predict their
    std from that covariance.  The match is step2's stack of one, so with
    the default settings it is bit for bit bench's II1_UNW or II1_W on the
    same record and map, whose Step 2 stacks the fits of all its records.
    """
    if beta_map is None:
        beta_map = analytic_binding(spec_template, input_kind)
    fit = bla_mod.estimate_weighting(data, bla_mod.fit_bla(data, lags=(0, 1)))
    W = fit.W if weighted else np.eye(2)
    return step2(fit.beta_hat, W, beta_map, settings, beta_cov=fit.cov_beta)
