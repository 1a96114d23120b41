"""Best linear approximation of the observed data: the auxiliary fit of
indirect inference, with its heteroskedasticity-robust weighting.

Conventions are fixed so that cov_beta approximates Cov(beta_hat) literally
and W = (N * cov_beta)^-1, i.e. W is the inverse covariance of
sqrt(N) (beta_hat - beta).  The residual sign is
eps(t) = y(t) - sum_k beta_k u(t - lag_k).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .numerics import RowErrors, Stackable, least_squares
from .system import DataRecord, lagged_matrix, stack_records

RIDGE_CONDITION_LIMIT = 1e12


@dataclass
class BlaEstimate(Stackable):
    """Fitted linear coefficients with optional sandwich weighting, of one
    record or of a stack of records (numerics.Stackable).

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
    errors: RowErrors | None = None

    @property
    def order(self) -> int:
        return self.beta_hat.shape[-1]


def fit_bla(data: DataRecord | Sequence[DataRecord], lags) -> BlaEstimate:
    """Minimize the mean-square linear prediction error over the given lags.

    A sequence of records of one len(u) and one n_obs gives their stacked
    fit from one stacked least_squares, each row bit for bit its own call;
    one DataRecord is the stack of one: it gives its fit, or raises.
    """
    lags = tuple(int(l) for l in lags)
    u, y = stack_records(data)
    rows, n = y.shape
    if n <= len(lags):
        raise ValueError(f"need more than {len(lags)} observations, got {n}")
    beta, resid, errors = least_squares(lagged_matrix(u, n, lags), y)
    fit = BlaEstimate(beta_hat=beta, lags=lags, residuals=resid, n_obs=n,
                      ridge_applied=np.zeros(rows, dtype=bool), errors=errors)
    return fit.row(0) if isinstance(data, DataRecord) else fit


def _condition(sym: np.ndarray) -> np.ndarray:
    """Condition number of a symmetric positive semi-definite matrix, or of
    each of a stack of them: the ratio of its extreme eigenvalues, infinite
    when the smallest is not positive (one eigvalsh instead of cond's SVD)."""
    eig = np.linalg.eigvalsh(sym)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(eig[..., 0] > 0, eig[..., -1] / eig[..., 0], math.inf)


def _inv(stack: np.ndarray, errors: RowErrors) -> np.ndarray:
    """The inverse of each matrix of a stack from one stacked inv; a singular
    one (a zero I_hat, from residuals that are all zero) fails its row with
    the LinAlgError its own inv raises."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        out, own = np.full_like(stack, np.nan), [None] * len(stack)
        for i, matrix in enumerate(stack):
            try:
                out[i] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError as exc:
                own[i] = exc
        errors.merge(own)
        return out


def estimate_weighting(data: DataRecord | Sequence[DataRecord], est: BlaEstimate) -> BlaEstimate:
    """Fill the sandwich matrices of a fitted estimate.

    The middle term I_hat may be ridge-regularized when its condition number
    exceeds RIDGE_CONDITION_LIMIT; the event is recorded on the estimate.
    Residuals whose squares overflow leave I_hat non-finite, and raise
    LinAlgError (a ValueError).

    The stacked fit of a sequence of records gives their weighted fit:
    every check runs per row under numerics.RowErrors, after the fit's own
    errors, a failed row going on with the identity; one UserWarning covers
    every ridged row.  The rows share one matmul, eigvalsh and inv per
    step, each slice computed as its own call computes it, so a row is bit
    for bit its own call.  One DataRecord and its single fit are the stack
    of one: they give the weighted fit, or raise.  A fit that is not the
    records' (a single fit with a sequence, a stacked one with a
    DataRecord, another number of rows or another n_obs) raises ValueError.
    """
    one = isinstance(data, DataRecord)
    u, y = stack_records(data)
    rows, n = y.shape
    fit_rows = 1 if est.errors is None else len(est.errors)
    if (est.errors is None) != one or fit_rows != rows or est.n_obs != n:
        raise ValueError(
            f"{'a single' if est.errors is None else 'a stacked'} fit of {fit_rows} row(s) and"
            f" n_obs {est.n_obs} is not the fit of {'one DataRecord' if one else 'a sequence'}"
            f" of {rows} record(s) and n_obs {n}")
    m = est.order
    phi = lagged_matrix(u, n, est.lags)
    errors = RowErrors([None] if one else est.errors)
    # a single fit's arrays as its stack of one
    beta_hat, residuals = est.beta_hat.reshape(rows, m), est.residuals.reshape(rows, n)
    # an overflowing square raises LinAlgError below, so numpy's warning
    # would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        eps2 = residuals**2
        I_hat = (phi * eps2[..., None]).swapaxes(1, 2) @ phi / n
        I_hat = 0.5 * (I_hat + I_hat.swapaxes(1, 2))
    J_hat = 2.0 * (phi.swapaxes(1, 2) @ phi) / n
    J_hat = 0.5 * (J_hat + J_hat.swapaxes(1, 2))
    errors.fail(~np.isfinite(I_hat).all(axis=(1, 2)), lambda i: np.linalg.LinAlgError(
        f"I_hat is not finite (squared residuals overflow): {I_hat[i]}"))

    # a failed row goes on with the identity, and its numbers are dropped
    def live(a: np.ndarray) -> np.ndarray:
        return np.where(errors.ok[:, None, None], a, np.eye(m))

    j_cond = _condition(live(J_hat))
    errors.fail(j_cond > 1e14, lambda i: np.linalg.LinAlgError(
        f"J_hat is numerically singular (cond {j_cond[i]:.3e})"))

    I_hat = live(I_hat)
    ridge = _condition(I_hat) > RIDGE_CONDITION_LIMIT
    if ridge.any():
        shift = 1e-10 * np.trace(I_hat[ridge], axis1=1, axis2=2) / m
        I_hat[ridge] += shift[:, None, None] * np.eye(m)
        warnings.warn("I_hat ill-conditioned; ridge added before inversion", stacklevel=2)

    J_inv = np.linalg.inv(live(J_hat))
    cov_beta = J_inv @ (4.0 * I_hat) @ J_inv / n
    cov_beta = 0.5 * (cov_beta + cov_beta.swapaxes(1, 2))
    W = _inv(n * live(cov_beta), errors)
    W = 0.5 * (W + W.swapaxes(1, 2))
    failed = ~errors.ok
    for a in (I_hat, J_hat, W, cov_beta):
        a[failed] = np.nan
    out = replace(est, beta_hat=beta_hat, residuals=residuals, I_hat=I_hat, J_hat=J_hat, W=W,
                  cov_beta=cov_beta, ridge_applied=ridge, errors=errors)
    return out.row(0) if one else out
