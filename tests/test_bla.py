import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerid.bla import BlaEstimate, estimate_weighting, fit_bla
from wienerid.numerics import RankDeficiencyError
from wienerid.signals import gaussian_white, gen_white, uniform_white
from wienerid.system import DataRecord, SystemSpec, cubic, identity, paper_fir, simulate


def make_data(theta, sigma_v2, sigma_e2, input_dist, n, seed, nl=None):
    spec = SystemSpec(
        fir=paper_fir(), theta=np.array([theta]),
        nonlinearity=nl if nl is not None else cubic(),
        sigma_v2=sigma_v2, sigma_e2=sigma_e2, input_dist=input_dist,
    )
    u = gen_white(input_dist, n + 1, seed, path=(0,))
    v = gen_white(gaussian_white(sigma_v2), n, seed, path=(1,))
    e = gen_white(gaussian_white(sigma_e2), n, seed, path=(2,))
    _, y = simulate(spec, u, v, e)
    return spec, DataRecord(u=u, y=y)


class TestFitBla:
    def test_noise_free_linear_system_recovered_exactly(self):
        _, data = make_data(0.5, 0.0, 0.0, gaussian_white(1 / 3), 200, 1, nl=identity())
        est = fit_bla(data, lags=(0, 1))
        np.testing.assert_allclose(est.beta_hat, [0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(est.residuals, np.zeros(200), atol=1e-12)

    def test_cubic_gaussian_matches_binding_function(self):
        # asymptotic coefficients (0.925, 1.85); tolerance 3 sandwich SEs
        _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), 10**5, 2)
        est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
        se = np.sqrt(np.diag(est.cov_beta))
        assert abs(est.beta_hat[0] - 0.925) < 3 * se[0]
        assert abs(est.beta_hat[1] - 1.85) < 3 * se[1]

    def test_cubic_uniform_matches_binding_function(self):
        _, data = make_data(0.5, 0.2, 0.1, uniform_white(1 / 3), 10**5, 3)
        est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
        se = np.sqrt(np.diag(est.cov_beta))
        assert abs(est.beta_hat[0] - 0.875) < 3 * se[0]
        assert abs(est.beta_hat[1] - 1.45) < 3 * se[1]

    def test_constant_input_rank_deficient(self):
        data = DataRecord(u=np.ones(41), y=np.zeros(40))
        with pytest.raises(RankDeficiencyError):
            fit_bla(data, lags=(0, 1))

    def test_needs_enough_samples(self):
        data = DataRecord(u=np.array([1.0, 2.0, 0.5]), y=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_bla(data, lags=(0, 1))


class TestWeighting:
    def test_homoskedastic_identity_case_gives_scaled_identity(self):
        # identity nonlinearity: residual v + e has constant variance, so the
        # sandwich collapses to (sigma_u^2 / sigma_eps^2) I
        _, data = make_data(0.5, 0.05, 0.05, gaussian_white(1 / 3), 2 * 10**4, 4, nl=identity())
        est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
        W = est.W
        target = (1 / 3) / 0.1
        off = abs(W[0, 1]) / np.sqrt(W[0, 0] * W[1, 1])
        assert off < 0.05
        assert W[0, 0] == pytest.approx(target, rel=0.1)
        assert W[1, 1] == pytest.approx(target, rel=0.1)

    @given(seed=st.integers(0, 2**32), n=st.integers(60, 300))
    @settings(max_examples=20, deadline=None)
    def test_weighting_symmetric_positive_definite(self, seed, n):
        _, data = make_data(0.4, 0.2, 0.1, gaussian_white(1 / 3), n, seed)
        est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
        for mat in (est.I_hat, est.J_hat, est.W, est.cov_beta):
            np.testing.assert_allclose(mat, mat.T, rtol=1e-10)
        eig_w = np.linalg.eigvalsh(est.W)
        eig_c = np.linalg.eigvalsh(est.cov_beta)
        assert eig_w[0] > 1e-12 * eig_w[1]
        assert eig_c[0] > 1e-12 * eig_c[1]

    def test_w_is_inverse_of_scaled_covariance(self):
        _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), 500, 5)
        est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
        np.testing.assert_allclose(
            est.W @ est.cov_beta, np.eye(2) / data.n_obs, rtol=1e-8, atol=1e-12
        )

    def test_cov_beta_tracks_monte_carlo_variance(self):
        # 500 repetitions at N = 1e5: the sandwich diagonal should sit within
        # 15% of the observed variance of the fitted coefficients
        reps = 500
        n = 10**5
        betas = np.empty((reps, 2))
        cov_diags = np.empty((reps, 2))
        for r in range(reps):
            _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), n, seed=60000 + r)
            est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
            betas[r] = est.beta_hat
            cov_diags[r] = np.diag(est.cov_beta)
        empirical = betas.var(axis=0, ddof=1)
        predicted = cov_diags.mean(axis=0)
        assert np.all(np.abs(predicted - empirical) <= 0.15 * empirical)

    def test_cov_beta_shrinks_like_one_over_n(self):
        reps = 120
        traces = {}
        for n in (4000, 8000):
            acc = 0.0
            for r in range(reps):
                _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), n, seed=7000 + r)
                est = estimate_weighting(data, fit_bla(data, lags=(0, 1)))
                acc += np.trace(est.cov_beta)
            traces[n] = acc / reps
        ratio = traces[4000] / traces[8000]
        assert abs(ratio - 2.0) <= 0.2 * 2.0

    def test_ridge_fallback_on_degenerate_residuals(self):
        # residuals concentrated on one sample make I_hat numerically rank one
        rng = np.random.default_rng(8)
        u = rng.standard_normal(101)
        data = DataRecord(u=u, y=np.zeros(100))
        est = fit_bla(data, lags=(0, 1))
        resid = np.zeros(100)
        resid[17] = 5.0
        crafted = BlaEstimate(
            beta_hat=est.beta_hat, lags=est.lags, residuals=resid, n_obs=est.n_obs
        )
        with pytest.warns(UserWarning, match="ridge"):
            out = estimate_weighting(data, crafted)
        assert out.ridge_applied
        assert np.all(np.linalg.eigvalsh(out.W) > 0)


class TestBussgang:
    def test_scaling_property_on_data(self):
        # fitted coefficients approach b0 * (theta, 1) for gaussian input
        _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), 10**5, 10)
        est = fit_bla(data, lags=(0, 1))
        assert abs(est.beta_hat[0] / est.beta_hat[1] - 0.5) < 0.02
        # b0 = E{f'(z)} = 3 sigma_z^2 for the cubic, sigma_z^2 = (theta^2 + 1) sigma_u^2 + sigma_v^2
        b0 = 3.0 * ((0.5**2 + 1.0) / 3 + 0.2)
        np.testing.assert_allclose(est.beta_hat, [b0 * 0.5, b0], rtol=0.05)
