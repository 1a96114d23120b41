"""Prediction-error minimization with the conditional-mean predictor.

Both predictor moments are exact for every polynomial f: the mean is
h(a) = E{f(a + v)}, h = `gaussian_smoothed(f)`, and the variance is
sigma_e2 + sum_n sigma_v2^n h^(n)(a)^2 / n!, the Hermite expansion in v,
which cancels no second moment against a squared mean.  The predictor
h(theta x + w), x the free tap's input and w the fixed taps' output, has
per-sample coefficients in theta from `theta_coeffs`, as the simulated
binding function has.  With E those of the prediction errors, either cost
is the Gram form p' (E diag(1/lambda) E' / N) p, p = (1, theta, ...), with
weights lambda = 1, or frozen at the unweighted estimate, and
`numerics.poly_argmin` minimizes it exactly from its coefficients.
`pem_estimate` takes one record or a stack of records of one length: a
stack forms its Grams with one stacked matmul and minimizes them with one
stacked search per pass, each row bit for bit its own call, so an
experiment runs PEM on chunks of records.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .numerics import Estimate, gram_coeffs, horner, poly_argmin
from .system import DataRecord, Nonlinearity, SystemSpec, cubic, linear_output, stack_records


def gaussian_smoothed(coeffs, sigma_v2: float) -> np.ndarray:
    """Ascending coefficients of h(a) = E{p(a + v)}, v ~ N(0, sigma_v2), for p
    of ascending coefficients `coeffs`; E{v^j} is (j - 1)!! sigma_v2^(j/2) at
    even j and 0 at odd j."""
    moments = np.zeros(len(coeffs))
    moments[0] = 1.0
    for j in range(2, len(coeffs), 2):
        moments[j] = moments[j - 2] * (j - 1) * sigma_v2
    return theta_coeffs(coeffs, 1.0, moments)


def theta_coeffs(f_coeffs, x, moments) -> np.ndarray:
    """Ascending coefficients in theta of E{p(theta x + w)} for p of ascending
    coefficients `f_coeffs`, from the moments E{w^j}, j = 0..deg p, on the
    first axis of `moments`: x^k sum_j c_j C(j, k) E{w^(j-k)} at theta^k.
    Trailing axes of `moments` (one set per sample, a (deg p + 1, N) array
    with x of shape (N,)) carry over to the result, and so does the memory
    layout of an array `moments`."""
    out = np.zeros_like(moments, dtype=float)
    for j, c_j in enumerate(f_coeffs):
        for k in range(j + 1 if c_j else 0):  # a zero c_j adds nothing
            out[k] += c_j * math.comb(j, k) * moments[j - k]
    for k in range(1, len(out)):
        out[k:] *= x
    return out


def conditional_mean(nl: Nonlinearity, a, sigma_v2: float):
    """E{f(a + v)} for v ~ N(0, sigma_v2), elementwise in a."""
    return horner(gaussian_smoothed(nl.coeffs, sigma_v2), a)


def conditional_variance(nl: Nonlinearity, a, sigma_v2: float, sigma_e2: float):
    """E{(y - E{y})^2} given the input history, always >= sigma_e2: sigma_e2
    plus the polynomial sum_n sigma_v2^n h^(n)(a)^2 / n! over n = 1..deg f,
    h(a) = E{f(a + v)}, the Hermite expansion of Var{f(a + v)}."""
    h = gaussian_smoothed(nl.coeffs, sigma_v2)
    var = np.zeros(max(2 * len(h) - 3, 1))
    for n in range(1, len(h)):
        h = h[1:] * np.arange(1, len(h))  # the n-th derivative
        var[: 2 * len(h) - 1] += sigma_v2**n / math.factorial(n) * np.convolve(h, h)
    return np.maximum(horner(var, a), 0.0) + sigma_e2


def predict(theta: float, u_t, u_tm1, sigma_v2: float):
    """Conditional-mean output prediction for the lag-one FIR with unit fixed tap."""
    return conditional_mean(cubic(), np.multiply(theta, u_t) + u_tm1, sigma_v2)


def prediction_variance(theta: float, u_t, u_tm1, sigma_v2: float, sigma_e2: float):
    """Variance of the prediction error for the lag-one FIR with unit fixed tap."""
    return conditional_variance(cubic(), np.multiply(theta, u_t) + u_tm1, sigma_v2, sigma_e2)


def pem_estimate(
    data: DataRecord | Sequence[DataRecord],
    spec_template: SystemSpec,
    weighted: bool = True,
):
    """Minimize the (optionally variance-weighted) mean-square prediction error.

    The weighted search divides each squared prediction error by the
    prediction-error variance evaluated at the unweighted estimate; the
    weights stay frozen during the second search.

    A sequence of K records, all of one n_obs and one len(u) (else
    ValueError), gives their stacked Estimate: the records share one
    (K, d + 1, N) array of error coefficients, one stacked Gram and one
    stacked poly_argmin per pass, each row computed as its own call
    computes it, so a row's estimate is bit for bit that of its own call;
    a row's error (numerics.RowErrors) is its first pass's
    CostEvaluationError, else its second's.  One DataRecord is the stack
    of one: it gives its Estimate, or raises.
    """
    fir = spec_template.fir
    if fir.n_free != 1:
        raise ValueError("scalar search supports exactly one free coefficient")
    u, y = stack_records(data)
    nl, sv2 = spec_template.nonlinearity, spec_template.sigma_v2
    rows, n = y.shape
    lead, lag = u.shape[1] - n, fir.free_lags[0]
    if fir.max_lag > lead:
        raise ValueError(f"lag {fir.max_lag} exceeds the {lead} leading input samples available")
    # each temporary below is K N or (d + 1) K N floats, dropped once used,
    # so that a chunk's peak memory stays a few times its error coefficients.
    # The trailing slice aligns records whose lead exceeds the FIR depth
    w = linear_output(fir, np.zeros((rows, 1)), u)[:, -n:]
    # powers of w laid out (K, d + 1, N), so that theta_coeffs' result, read
    # (K, d + 1, N), gives each record a contiguous block as its own call does
    powers = np.empty((rows, nl.degree + 1, n))
    powers[:, 0] = 1.0
    for j in range(1, nl.degree + 1):
        np.multiply(powers[:, j - 1], w, out=powers[:, j])
    del w
    # per-sample coefficients in theta of the prediction error y - h(theta x + w)
    h = gaussian_smoothed(nl.coeffs, sv2)
    errors = theta_coeffs(h, u[:, lead - lag : lead - lag + n], powers.transpose(1, 0, 2))
    del powers
    np.negative(errors, out=errors)
    errors[0] += y
    del y
    errors = errors.transpose(1, 0, 2)

    # an overflowing Gram entry is its row's CostEvaluationError in
    # poly_argmin, so numpy's overflow warning would only repeat it
    with np.errstate(over="ignore"):
        gram = errors @ errors.swapaxes(1, 2) / n
    search = poly_argmin(gram_coeffs(gram))
    failures = search.errors
    if weighted:
        # a failed row's numbers are dropped, so its warnings would say nothing
        with np.errstate(over="ignore", invalid="ignore"):
            a = linear_output(fir, search.argmin[:, None], u)[:, -n:]
            weights = conditional_variance(nl, a, sv2, spec_template.sigma_e2)
            del u, a
            w_max = np.max(weights, axis=1, keepdims=True)
            # noise-free data: constant (zero) weights reduce to the unweighted cost
            weights = np.where(w_max <= 0.0, 1.0, np.maximum(weights, 1e-12 * w_max))
            gram = errors / weights[:, None] @ errors.swapaxes(1, 2) / n
        search = poly_argmin(gram_coeffs(gram))
        failures.merge(search.errors)
    result = Estimate(np.where(failures.ok, search.argmin, np.nan), None, search, failures)
    return result.row(0) if isinstance(data, DataRecord) else result
