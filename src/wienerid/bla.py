"""Best linear approximation of the observed data: the auxiliary fit of
indirect inference, with its heteroskedasticity-robust weighting.

Conventions are fixed so that cov_beta approximates Cov(beta_hat) literally
and W = (N * cov_beta)^-1, i.e. W is the inverse covariance of
sqrt(N) (beta_hat - beta).  The residual sign is
eps(t) = y(t) - sum_k beta_k u(t - lag_k).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import least_squares
from .system import DataRecord

RIDGE_CONDITION_LIMIT = 1e12


@dataclass
class BlaEstimate:
    """Fitted linear coefficients with optional sandwich weighting.

    I_hat is the outer-product moment (1/N) sum eps^2 phi phi', J_hat the
    curvature (2/N) sum phi phi'; cov_beta = J^-1 (4 I) J^-1 / N and
    W = (N cov_beta)^-1, so W @ cov_beta = I/N by construction.
    """

    beta_hat: np.ndarray
    lags: tuple[int, ...]
    residuals: np.ndarray
    n_obs: int
    I_hat: np.ndarray | None = None
    J_hat: np.ndarray | None = None
    W: np.ndarray | None = None
    cov_beta: np.ndarray | None = None
    ridge_applied: bool = False

    @property
    def order(self) -> int:
        return len(self.beta_hat)


def fit_bla(data: DataRecord, lags) -> BlaEstimate:
    """Minimize the mean-square linear prediction error over the given lags."""
    lags = tuple(int(l) for l in lags)
    if data.n_obs <= len(lags):
        raise ValueError(f"need more than {len(lags)} observations, got {data.n_obs}")
    phi = data.regressors(lags)
    beta, resid = least_squares(phi, data.y)
    return BlaEstimate(beta_hat=beta, lags=lags, residuals=resid, n_obs=data.n_obs)


def estimate_weighting(data: DataRecord, est: BlaEstimate) -> BlaEstimate:
    """Fill the sandwich matrices of a fitted estimate.

    The middle term I_hat may be ridge-regularized when its condition number
    exceeds RIDGE_CONDITION_LIMIT; the event is recorded on the estimate.
    """
    phi = data.regressors(est.lags)
    n = est.n_obs
    m = est.order
    eps2 = est.residuals**2
    I_hat = (phi * eps2[:, None]).T @ phi / n
    J_hat = 2.0 * (phi.T @ phi) / n
    I_hat = 0.5 * (I_hat + I_hat.T)
    J_hat = 0.5 * (J_hat + J_hat.T)

    j_cond = np.linalg.cond(J_hat)
    if not np.isfinite(j_cond) or j_cond > 1e14:
        raise np.linalg.LinAlgError(f"J_hat is numerically singular (cond {j_cond:.3e})")

    ridge_applied = False
    if np.linalg.cond(I_hat) > RIDGE_CONDITION_LIMIT:
        I_hat = I_hat + (1e-10 * np.trace(I_hat) / m) * np.eye(m)
        ridge_applied = True
        warnings.warn("I_hat ill-conditioned; ridge added before inversion", stacklevel=2)

    J_inv = np.linalg.inv(J_hat)
    cov_beta = J_inv @ (4.0 * I_hat) @ J_inv / n
    cov_beta = 0.5 * (cov_beta + cov_beta.T)
    W = np.linalg.inv(n * cov_beta)
    W = 0.5 * (W + W.T)
    return replace(
        est, I_hat=I_hat, J_hat=J_hat, W=W, cov_beta=cov_beta, ridge_applied=ridge_applied
    )

