import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wienerid.pem as pem_mod
from wienerid.bench import ExperimentConfig, make_record, run_method
from wienerid.numerics import OptimizerSettings, gauss_hermite, minimize_scalar
from wienerid.pem import (
    conditional_mean,
    conditional_variance,
    pem_estimate,
    predict,
    prediction_variance,
)
from wienerid.signals import DistributionKind, gaussian_white, gen_white
from wienerid.system import DataRecord, SystemSpec, cubic, paper_fir, polynomial, simulate

from cost_checks import assert_grid_batch_is_pointwise, capture_costs, capture_searches


def paper_spec(sigma_v2=0.2, sigma_e2=0.1):
    return SystemSpec(
        fir=paper_fir(), theta=np.array([0.5]), nonlinearity=cubic(),
        sigma_v2=sigma_v2, sigma_e2=sigma_e2, input_dist=gaussian_white(1 / 3),
    )


class TestPredict:
    def test_no_process_noise_is_plain_cube(self):
        assert predict(0.5, 1.0, 1.0, 0.0) == pytest.approx(1.5**3, abs=0.0)

    def test_spot_value(self):
        # a = 1.5: 1.5^3 + 3 * 1.5 * 0.2 = 3.375 + 0.9
        assert predict(0.5, 1.0, 1.0, 0.2) == pytest.approx(4.275, abs=1e-12)

    def test_odd_moments_vanish_at_zero(self):
        assert predict(0.5, 0.0, 0.0, 0.7) == 0.0

    @given(
        theta=st.floats(-2, 2), u_t=st.floats(-3, 3), u_tm1=st.floats(-3, 3),
        sv2=st.floats(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_quadrature_fallback(self, theta, u_t, u_tm1, sv2):
        # same moments through the exact route of a general polynomial
        poly_cubic = polynomial([0.0, 0.0, 0.0, 1.0])
        a = np.array([theta * u_t + u_tm1])
        closed = predict(theta, u_t, u_tm1, sv2)
        quad = conditional_mean(poly_cubic, a, sv2)[0]
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-9)


class TestPredictionVariance:
    def test_pure_sixth_moment_at_zero(self):
        # Var(v^3) = 15 sigma_v^6
        assert prediction_variance(0.5, 0.0, 0.0, 0.2, 0.1) == pytest.approx(0.22, abs=1e-14)

    def test_no_process_noise_leaves_measurement_floor(self):
        assert prediction_variance(0.9, 1.0, -2.0, 0.0, 0.1) == pytest.approx(0.1, abs=0.0)

    def test_spot_value(self):
        got = prediction_variance(0.5, 1.0, 1.0, 0.2, 0.1)
        assert got == pytest.approx(12.5725, abs=1e-12)

    @given(
        theta=st.floats(-2, 2), u_t=st.floats(-3, 3), u_tm1=st.floats(-3, 3),
        sv2=st.floats(0.01, 2), se2=st.floats(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_exceeds_measurement_noise(self, theta, u_t, u_tm1, sv2, se2):
        assert prediction_variance(theta, u_t, u_tm1, sv2, se2) > se2

    @given(
        theta=st.floats(-2, 2), u_t=st.floats(-3, 3), u_tm1=st.floats(-3, 3),
        sv2=st.floats(0, 2), se2=st.floats(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_quadrature_fallback(self, theta, u_t, u_tm1, sv2, se2):
        poly_cubic = polynomial([0.0, 0.0, 0.0, 1.0])
        a = np.array([theta * u_t + u_tm1])
        closed = prediction_variance(theta, u_t, u_tm1, sv2, se2)
        quad = conditional_variance(poly_cubic, a, sv2, se2)[0]
        assert closed == pytest.approx(quad, rel=1e-8, abs=1e-8)


class TestMonteCarloOracle:
    def test_moments_match_simulation_over_process_noise(self):
        # brute-force draws of v at a few (theta, u_t, u_tm1) points
        rng = np.random.default_rng(123)
        draws = 10**6
        sv2, se2 = 0.2, 0.1
        v = rng.standard_normal(draws) * np.sqrt(sv2)
        for theta, u_t, u_tm1 in [(0.5, 1.0, 1.0), (0.0, 0.5, -1.0), (1.0, -0.8, 0.3)]:
            a = theta * u_t + u_tm1
            samples = (a + v) ** 3
            mc_mean = samples.mean()
            mc_se = samples.std(ddof=1) / np.sqrt(draws)
            assert abs(predict(theta, u_t, u_tm1, sv2) - mc_mean) < 3 * mc_se
            centered = (samples - samples.mean()) ** 2
            mc_var = centered.mean() + se2
            var_se = centered.std(ddof=1) / np.sqrt(draws)
            assert abs(prediction_variance(theta, u_t, u_tm1, sv2, se2) - mc_var) < 3 * var_se


class TestPemEstimate:
    def make_data(self, sigma_v2, sigma_e2, n, seed):
        spec = paper_spec(sigma_v2, sigma_e2)
        u = gen_white(gaussian_white(1 / 3), n + 1, seed, path=(0,))
        v = gen_white(gaussian_white(sigma_v2), n, seed, path=(1,))
        e = gen_white(gaussian_white(sigma_e2), n, seed, path=(2,))
        _, y = simulate(spec, u, v, e)
        return spec, DataRecord(u=u, y=y)

    def test_noise_free_data_recovers_theta_exactly(self):
        spec, data = self.make_data(0.0, 0.0, 400, 11)
        settings = OptimizerSettings(abs_tol=1e-9)
        for weighted in (False, True):
            report = pem_estimate(data, spec, weighted=weighted, settings=settings)
            assert report.theta_hat[0] == pytest.approx(0.5, abs=1e-7)

    def test_weighted_equals_unweighted_without_process_noise(self):
        spec, data = self.make_data(0.0, 0.1, 300, 12)
        unw = pem_estimate(data, spec, weighted=False)
        wgt = pem_estimate(data, spec, weighted=True)
        assert wgt.theta_hat[0] == pytest.approx(unw.theta_hat[0], abs=1e-9)

    def test_reasonable_estimate_on_noisy_data(self):
        spec, data = self.make_data(0.2, 0.1, 2000, 13)
        report = pem_estimate(data, spec, weighted=True)
        assert abs(report.theta_hat[0] - 0.5) < 0.1
        assert report.diagnostics is not None and not report.diagnostics.degenerate

    def test_record_with_extra_lead_samples(self):
        spec, data = self.make_data(0.2, 0.1, 300, 14)
        padded = DataRecord(u=np.concatenate([[0.33], data.u]), y=data.y)
        base = pem_estimate(data, spec, weighted=True)
        shifted = pem_estimate(padded, spec, weighted=True)
        assert shifted.theta_hat[0] == base.theta_hat[0]

    @pytest.mark.parametrize("lead_pad", [0, 2])
    @pytest.mark.parametrize("quadrature", [False, True])
    def test_grid_batch_matches_pointwise_costs(self, monkeypatch, lead_pad, quadrature):
        spec, data = self.make_data(0.2, 0.1, 300, 15)
        data = DataRecord(u=np.concatenate([np.full(lead_pad, 0.33), data.u]), y=data.y)
        if quadrature:  # the cubic as a plain polynomial takes the general moments
            spec.nonlinearity = polynomial([0.0, 0.0, 0.0, 1.0])
        costs = capture_costs(monkeypatch, pem_mod)
        pem_estimate(data, spec, weighted=True)
        assert len(costs) == 2  # unweighted search, then the weighted one
        for cost, settings in costs:
            assert_grid_batch_is_pointwise(cost, settings)


class TestExactMoments:
    def test_degree_60_against_gauss_hermite_120(self):
        # the 120-node rule is exact to degree 239, so it integrates both
        # moments of z^60; a 50-node rule misses the variance by 7.4e-7
        nl = polynomial([0.0] * 60 + [1.0])
        rule = gauss_hermite(120)
        for sv2 in (0.2, 1.0):
            sv = np.sqrt(sv2)
            for a in (-1.3, -0.4, 0.0, 0.5, 1.1, 3.0):
                mean = rule.normal_expectation(lambda x: (a + sv * x) ** 60)
                second = rule.normal_expectation(lambda x: (a + sv * x) ** 120)
                assert conditional_mean(nl, a, sv2) == pytest.approx(mean, rel=1e-12)
                got = conditional_variance(nl, a, sv2, 0.1)
                assert got == pytest.approx(second - mean**2 + 0.1, rel=1e-12)


class TestExactSearch:
    """run_method("PEM_W") minimizes both costs exactly as polynomials."""

    @staticmethod
    def config(theta_o=0.5, realizations=10):
        return ExperimentConfig(
            theta_o=theta_o, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
            input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=1000,
            realizations=realizations, methods=("PEM_W",), master_seed=20260809,
        )

    def test_matches_a_dense_scan(self, monkeypatch):
        # each search against the 61-point scan and Brent on the same cost
        config = self.config()
        tol = 2 * OptimizerSettings().abs_tol
        costs = capture_costs(monkeypatch, pem_mod)
        searches = capture_searches(monkeypatch, pem_mod)
        for r in range(config.realizations):
            run_method(config, "PEM_W", make_record(config, r), r)
        assert len(costs) == len(searches) == 2 * config.realizations
        for (cost, settings), exact in zip(costs, searches):
            scanned = minimize_scalar(cost, settings)
            assert abs(exact.argmin - scanned.argmin) <= tol
            assert exact.min_value <= scanned.min_value * (1 + 1e-12)
            assert exact.iterations < scanned.iterations

    def test_true_theta_outside_the_bracket_stops_at_the_edge(self):
        # theta0 = 4 lies outside [-3, 3]: both costs decrease up to the edge
        config = self.config(theta_o=4.0, realizations=1)
        est = run_method(config, "PEM_W", make_record(config, 0), 0)
        assert est.theta_hat[0] == OptimizerSettings().bracket[1]
        assert est.diagnostics.at_bracket_edge and not est.diagnostics.degenerate
