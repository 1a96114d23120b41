"""Two-step indirect inference on top of the best linear approximation.

Step 1 fits the auxiliary linear model (bla module).  Step 2 picks the
structured parameter whose implied auxiliary coefficients best match the fit
in a W-weighted metric, using either the closed-form binding function of the
cubic FIR example or a simulated binding function with common random
numbers.  For white input the closed form depends on the input only through
its power sigma_u2 and its fourth-moment ratio kappa = E{u^4} / sigma_u2^2
(Distribution.kurtosis), so one AnalyticMap serves every input kind.  The
simulated map draws its noise
replicates, checks the rank of the lagged regressors and builds their
pseudo-inverse once; each evaluation then averages the S replicate outputs
and projects the mean, for a whole grid of theta at a time.  Step 2 reports
the predicted standard deviation of the matched estimate, the square root of
the asymptotic sandwich variance inflation * H^-1 G' W Sigma W G H^-1 with
H = G' W G and Sigma the covariance of the auxiliary fit.  Both maps are
polynomials in theta (of `degree` 3 and deg f), so Step 2 calls the map once,
at degree + 1 Chebyshev points of the bracket, minimizes the criterion of
its interpolant exactly (`numerics.poly_argmin`) and differentiates it for G.

The order-zero method needs no search: it inverts the first component of
the closed-form map at the slope of y on u(t), and predicts its std by the
delta method through that inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bla as bla_mod
from .numerics import (
    Estimate, OptimizerSettings, RankDeficiencyError, chebyshev_points, chebyshev_value,
    least_squares, poly_argmin,
)
from .signals import (
    Distribution, DistributionKind, Seed, StreamRole, gaussian_white, gen_white, uniform_white,
)
from .system import DataRecord, SystemSpec, lagged_matrix, linear_output


class BindingMapError(ValueError):
    """A binding function broke step2's contract: it must declare a non-negative
    int `degree` (theta_shape is None when it does not) and give a
    (G, len(beta_hat)) array for a (G,) array of theta."""

    def __init__(self, theta_shape, width, detail):
        self.theta_shape = theta_shape
        need = "a non-negative int degree" if theta_shape is None else (
            f"shape {theta_shape + (width,)} for theta of shape {theta_shape}: the map must"
            f" broadcast over theta (a float gives shape ({width},), a (G,) array gives"
            f" (G, {width}))"
        )
        super().__init__(f"binding function {detail}; step2 needs {need}")


@dataclass(frozen=True)
class AnalyticMap:
    """Closed-form binding function beta(theta) of the cubic FIR example.

    For white input of power sigma_u2 and fourth-moment ratio
    kappa = E{u^4} / sigma_u2^2 (3 gaussian, 9/5 uniform):
        beta1 = kappa sigma_u2 theta^3 + 3 (sigma_u2 + sigma_v2) theta
        beta2 = 3 sigma_u2 theta^2 + kappa sigma_u2 + 3 sigma_v2
    At kappa = 3 both components share one gain, so beta1/beta2 = theta.
    A float theta gives shape (2,), a (G,) array gives (G, 2).
    """

    sigma_u2: float
    sigma_v2: float
    kappa: float
    inflation = 1.0  # exact map: no simulation noise to inflate by
    degree = 3

    def __post_init__(self):
        if self.sigma_u2 < 0 or self.sigma_v2 < 0:
            raise ValueError("variances must be >= 0")

    def _components(self, theta):
        su2, sv2, kappa = self.sigma_u2, self.sigma_v2, self.kappa
        # grouped so that at kappa = 3 beta2 is bit for bit beta1's gain
        beta1 = (kappa * su2 * theta**2 + 3.0 * (su2 + sv2)) * theta
        beta2 = 3.0 * su2 * theta**2 + 3.0 * (kappa / 3.0 * su2 + sv2)
        return beta1, beta2

    def __call__(self, theta) -> np.ndarray:
        return np.stack(self._components(theta), axis=-1)

    def beta1_coeffs(self) -> tuple[float, float]:
        """(cubic, linear) coefficients of the first component in theta."""
        return self.kappa * self.sigma_u2, 3.0 * (self.sigma_u2 + self.sigma_v2)


def beta_map_gaussian(theta, sigma_u2: float, sigma_v2: float):
    """(beta1, beta2) for gaussian white input (kappa = 3)."""
    return AnalyticMap(sigma_u2, sigma_v2, gaussian_white(sigma_u2).kurtosis)._components(theta)


def beta_map_uniform(theta, sigma_u2: float, sigma_v2: float):
    """(beta1, beta2) for uniform white input (kappa = 9/5)."""
    return AnalyticMap(sigma_u2, sigma_v2, uniform_white(sigma_u2).kurtosis)._components(theta)


@dataclass
class SimulatedMap:
    """Simulated binding function with common random numbers.

    The process-noise replicates v_s and the pseudo-inverse of the N x m
    lagged regressor matrix phi are built once at construction and reused at
    every theta the optimizer visits, so the matching criterion is a smooth
    deterministic function of theta.  The fit of the S stacked replicates on
    tile(phi, S) equals pinv(phi) @ mean_s f(lin(theta) + v_s), so an
    evaluation accumulates the S replicate outputs and projects their mean.
    The rank check of the stacked problem depends on phi alone and runs at
    construction: rank-deficient regressors raise RankDeficiencyError there.
    A (G,) array of theta gives a (G, len(lags)) array, row g bit for bit
    equal to the call with theta[g].  The map is a polynomial in theta of the
    nonlinearity's degree.
    """

    u: np.ndarray
    spec_template: SystemSpec
    s_count: int
    seed: Seed
    lags: tuple[int, ...] = (0, 1)
    _v_draws: np.ndarray = field(init=False, repr=False)
    _pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.s_count < 1:
            raise ValueError("s_count must be >= 1")
        self.u = np.asarray(self.u, dtype=float)
        self.lags = tuple(int(l) for l in self.lags)
        fir = self.spec_template.fir
        n_max = len(self.u) - fir.max_lag
        n = len(self.u) - max(fir.max_lag, *self.lags)
        v_dist = Distribution(DistributionKind.GAUSSIAN_WHITE, self.spec_template.sigma_v2)
        self._v_draws = np.stack([
            gen_white(v_dist, n_max, self.seed, path=(int(StreamRole.SIMULATION), s))
            for s in range(self.s_count)
        ])[:, -n:]
        m = len(self.lags)
        left, sing, right_t = np.linalg.svd(lagged_matrix(self.u, n, self.lags), full_matrices=False)
        # tile(phi, S) has the singular values sqrt(S) * sing, so this is
        # least_squares' eps * max(rows, m) * s_max threshold on the stacked
        # problem; fewer rows than lags leave a zero singular value
        smallest = float(sing[-1]) if len(sing) == m else 0.0
        if smallest <= np.finfo(float).eps * max(self.s_count * n, m) * sing[0]:
            raise RankDeficiencyError(math.sqrt(self.s_count) * smallest)
        self._pinv = (right_t.T / sing) @ left.T

    @property
    def inflation(self) -> float:
        return 1.0 + 1.0 / self.s_count

    @property
    def degree(self) -> int:
        return self.spec_template.nonlinearity.degree

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        n = self._v_draws.shape[1]
        lin = linear_output(self.spec_template.fir, theta[..., None], self.u)[..., -n:]
        f = self.spec_template.nonlinearity.value
        mean = f(lin + self._v_draws[0])
        for v in self._v_draws[1:]:
            mean += f(lin + v)
        mean /= self.s_count
        return np.vecdot(mean[..., None, :], self._pinv)


def step2(
    beta_hat: np.ndarray,
    W: np.ndarray,
    beta_map,
    settings: OptimizerSettings = OptimizerSettings(),
    *,
    n_obs: int,
    beta_cov: np.ndarray | None = None,
) -> Estimate:
    """Match the binding function to the auxiliary fit in the W metric.

    beta_map is a polynomial in theta of degree beta_map.degree, an int >= 0,
    and broadcasts over theta: a (G,) array gives a (G, len(beta_hat)) array.
    It is called once, at degree + 1 Chebyshev points of the bracket; a map
    breaking that contract raises BindingMapError.  Its interpolant gives the
    criterion, minimized exactly (degree 2 * degree), and G at the estimate.
    The criterion weighs residuals by W / trace(W) rounded to 40 binary
    places, so the argmin is invariant to positive rescaling of W (unless an
    entry lies within a few ulps of a rounding boundary).  predicted_std is
    the square root of the sandwich inflation * H^-1 G' W beta_cov W G H^-1,
    H = G' W G, where beta_cov is the covariance of beta_hat; it defaults to
    (n_obs W)^-1, for which the sandwich reduces to inflation * H^-1 / n_obs.
    It is infinite when the criterion is flat or its minimum is a bracket end.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    W = np.asarray(W, dtype=float)
    width = len(beta_hat)
    if W.shape != (width, width):
        raise ValueError(f"W shape {W.shape} does not match beta of length {width}")
    if not np.allclose(W, W.T, rtol=1e-10, atol=1e-12):
        raise ValueError("W must be symmetric")
    eigvals = np.linalg.eigvalsh(W)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 0.0):
        raise ValueError(f"W must be positive definite (eigenvalues {eigvals})")

    degree = getattr(beta_map, "degree", None)
    if not (isinstance(degree, (int, np.integer)) and degree >= 0):
        raise BindingMapError(None, width, f"declares degree {degree!r}")
    lo, hi = settings.bracket
    nodes, to_coeffs, to_slopes = chebyshev_points(degree, lo, hi)
    try:
        mapped = beta_map(nodes)
    except (TypeError, ValueError) as exc:
        raise BindingMapError(nodes.shape, width, f"raised {exc!r}") from exc
    if np.shape(mapped) != nodes.shape + (width,):
        raise BindingMapError(nodes.shape, width, f"returned shape {np.shape(mapped)}")
    coeffs, slopes = to_coeffs @ mapped, to_slopes @ mapped
    metric = np.round(W / np.trace(W) * 2.0**40) / 2.0**40

    def cost(theta):
        # theta is a float or a (G,) array; vecdot takes each row through the
        # dot kernel of r @ metric @ r, so batch and pointwise values agree bit for bit
        r = chebyshev_value(coeffs, theta, lo, hi) - beta_hat
        return np.vecdot(r @ metric, r)

    result = poly_argmin(cost, 2 * degree, settings)
    theta_hat = result.argmin
    G = chebyshev_value(slopes, theta_hat, lo, hi)[:, None]

    if beta_cov is None:
        beta_cov = np.linalg.inv(n_obs * W)
    inflation = float(getattr(beta_map, "inflation", 1.0))
    wg = W @ G
    # a flat criterion has no curvature, and at a bracket edge the minimum
    # may lie outside the bracket: neither gives a finite prediction
    cov = np.full((1, 1), np.inf)
    if not (result.at_bracket_edge or result.degenerate):
        try:
            h_inv = np.linalg.inv(G.T @ wg)
            cov = inflation * h_inv @ (wg.T @ beta_cov @ wg) @ h_inv
        except np.linalg.LinAlgError:
            pass
    return Estimate(np.array([theta_hat]), float(np.sqrt(cov[0, 0])), result)


def solve_increasing_cubic(c3: float, c1: float, target: float, tol: float = 1e-13) -> float:
    """Unique real root of c3 x^3 + c1 x = target for c3 >= 0, c1 >= 0.

    Safeguarded Newton: iterates stay inside a sign-change bracket, falling
    back to bisection whenever a Newton step leaves it.
    """
    if c3 < 0 or c1 < 0 or (c3 == 0 and c1 == 0):
        raise ValueError("need c3 >= 0, c1 >= 0 and not both zero")

    def g(x: float) -> float:
        return c3 * x**3 + c1 * x - target

    hi = max(1.0, abs(target))
    while g(hi) < 0:
        hi *= 2.0
    lo = -hi
    while g(lo) > 0:
        lo *= 2.0
        hi = -lo

    x = target / c1 if c1 > 0 else math.copysign(abs(target / c3) ** (1.0 / 3.0), target)
    x = min(max(x, lo), hi)
    for _ in range(200):
        gx = g(x)
        if gx > 0:
            hi = x
        else:
            lo = x
        slope = 3.0 * c3 * x**2 + c1
        x_new = x - gx / slope if slope > 0 else 0.5 * (lo + hi)
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def _analytic_binding(spec_template: SystemSpec, input_kind: DistributionKind | None) -> AnalyticMap:
    """The closed-form map of the template's input, or of input_kind when given."""
    dist = spec_template.input_dist
    if input_kind is not None:
        dist = Distribution(input_kind, dist.variance)
    return AnalyticMap(dist.variance, spec_template.sigma_v2, dist.kurtosis)


def zero_order_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    input_kind: DistributionKind | None = None,
) -> Estimate:
    """Order-zero indirect inference: regress y on u(t) alone and invert the
    first binding-function component (strictly increasing, so no weighting is
    needed and the inversion is unique).

    The predicted std is the delta method through that inverse: the
    heteroskedasticity-robust std of the slope, sqrt(sum u^2 eps^2) / sum u^2
    with eps the regression residual, over the slope 3 c3 theta^2 + c1 of
    the component at the estimate.
    """
    u0 = data.lagged(0)
    beta1, resid = least_squares(u0[:, None], data.y)
    c3, c1 = _analytic_binding(spec_template, input_kind).beta1_coeffs()
    theta_hat = solve_increasing_cubic(c3, c1, float(beta1[0]))
    u2 = u0 * u0
    slope_std = math.sqrt(float(np.sum(u2 * resid * resid))) / float(np.sum(u2))
    return Estimate(np.array([theta_hat]), slope_std / (3.0 * c3 * theta_hat**2 + c1))


def first_order_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    input_kind: DistributionKind | None = None,
    weighted: bool = True,
    settings: OptimizerSettings = OptimizerSettings(),
    beta_map=None,
) -> Estimate:
    """Order-one indirect inference: fit the lag-(0, 1) BLA and match
    beta_map to it in step2.

    beta_map defaults to the analytic binding function of the template's
    input (of input_kind when given); a SimulatedMap gives the simulated
    variant.  Unweighted uses the identity metric; weighted uses the inverse
    sandwich covariance of the auxiliary fit.  Both predict their std from
    that covariance.
    """
    if beta_map is None:
        beta_map = _analytic_binding(spec_template, input_kind)
    est = bla_mod.estimate_weighting(data, bla_mod.fit_bla(data, lags=(0, 1)))
    W = est.W if weighted else np.eye(2)
    return step2(est.beta_hat, W, beta_map, settings, n_obs=data.n_obs, beta_cov=est.cov_beta)
