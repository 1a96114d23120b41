import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wienerid.pem as pem_mod
from wienerid.bench import ExperimentConfig, make_record, run_method
from wienerid.numerics import CostEvaluationError, OptimizerSettings, gauss_hermite, horner
from wienerid.pem import (
    conditional_mean,
    conditional_variance,
    pem_estimate,
    predict,
    prediction_variance,
)
from wienerid.signals import DistributionKind, gaussian_white, gen_white
from wienerid.system import DataRecord, SystemSpec, cubic, paper_fir, polynomial, simulate

from cost_checks import capture_costs, capture_searches, reference_argmin
from stack_checks import assert_rows_are_their_own_calls


# process-noise variances of the closed-form checks, the paper's 0.2 among them
SIGMA_V2S = [0.0, 1e-6, 0.2, 2.0]


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

    @pytest.mark.parametrize("sv2", SIGMA_V2S)
    def test_cubic_matches_closed_form(self, sv2):
        # the general moments of the cubic against E{(a+v)^3} = a^3 + 3 sigma_v2 a
        a = np.linspace(-10.0, 10.0, 2001)
        closed = a**3 + 3.0 * sv2 * a
        np.testing.assert_allclose(conditional_mean(cubic(), a, sv2), closed, rtol=1e-12, atol=0.0)


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

    @pytest.mark.parametrize("se2", [0.0, 0.1])
    @pytest.mark.parametrize("sv2", SIGMA_V2S)
    def test_cubic_matches_closed_form(self, sv2, se2):
        # the Hermite sum against Var{(a+v)^3} + sigma_e2
        # = 9 sigma_v2 a^4 + 36 sigma_v2^2 a^2 + 15 sigma_v2^3 + sigma_e2;
        # at sigma_v2 = 1e-6 a second moment less the squared mean would
        # cancel about 7 digits at |a| = 10
        a = np.linspace(-10.0, 10.0, 2001)
        closed = 9.0 * sv2 * a**4 + 36.0 * sv2**2 * a**2 + 15.0 * sv2**3 + se2
        got = conditional_variance(cubic(), a, sv2, se2)
        np.testing.assert_allclose(got, closed, rtol=1e-12, atol=0.0)


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
        for weighted in (False, True):
            report = pem_estimate(data, spec, weighted=weighted)
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
    @pytest.mark.parametrize("linear_term", [False, True])
    def test_criterion_coefficients_match_its_definition(self, monkeypatch, lead_pad, linear_term):
        # the polynomial each search minimizes against the mean of
        # (y - h(theta u_t + u_tm1))^2 / lambda on a grid, lambda = 1 and
        # then the prediction-error variance at the unweighted estimate
        spec, data = self.make_data(0.2, 0.1, 300, 15)
        data = DataRecord(u=np.concatenate([np.full(lead_pad, 0.33), data.u]), y=data.y)
        if linear_term:  # f(z) = z + z^3 / 2 in place of the cube
            spec.nonlinearity = polynomial([0.0, 1.0, 0.0, 0.5])
        costs = capture_costs(monkeypatch, pem_mod)
        searches = capture_searches(monkeypatch, pem_mod)
        pem_estimate(data, spec, weighted=True)
        assert len(costs) == 2  # unweighted search, then the weighted one
        u_t, u_tm1, nl = data.lagged(0), data.lagged(1), spec.nonlinearity
        frozen = conditional_variance(nl, searches[0].argmin * u_t + u_tm1, 0.2, 0.1)
        for (coeffs, settings), weights in zip(costs, (1.0, frozen)):
            for theta in np.linspace(*settings.bracket, 13):
                resid = data.y - conditional_mean(nl, theta * u_t + u_tm1, 0.2)
                assert horner(coeffs, theta) == pytest.approx(np.mean(resid**2 / weights), rel=1e-9)

    def test_overflowing_output_raises_cost_evaluation_error(self):
        # one y = 1e200 overflows the squared error: a typed error, not a
        # silent non-finite estimate
        spec, data = self.make_data(0.2, 0.1, 300, 16)
        y = data.y.copy()
        y[100] = 1e200
        with warnings.catch_warnings():
            # the typed error is the whole report: no RuntimeWarning before it
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CostEvaluationError):
                pem_estimate(DataRecord(u=data.u, y=y), spec, weighted=True)


class TestPemStack:
    """pem_estimate on a stack of records: each row bit for bit its own call."""

    R = 5

    def records(self, lead_pad=0):
        out = []
        for seed in range(20, 20 + self.R):
            spec, data = TestPemEstimate().make_data(0.2, 0.1, 300, seed)
            out.append(DataRecord(u=np.concatenate([np.full(lead_pad, 0.33), data.u]), y=data.y))
        return spec, out

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("lead_pad", [0, 2])
    @pytest.mark.parametrize("linear_term", [False, True])
    def test_rows_match_scalar_calls(self, weighted, lead_pad, linear_term):
        spec, records = self.records(lead_pad)
        if linear_term:  # f(z) = z + z^3 / 2 in place of the cube
            spec.nonlinearity = polynomial([0.0, 1.0, 0.0, 0.5])
        stack = pem_estimate(records, spec, weighted=weighted)
        assert stack.predicted_std is None and stack.errors == [None] * self.R
        assert_rows_are_their_own_calls(
            stack, [lambda r=r: pem_estimate(r, spec, weighted=weighted) for r in records])
        assert all(stack.row(i).predicted_std is None for i in range(self.R))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_failing_row_carries_its_own_error(self, bad):
        spec, records = self.records()
        y = records[bad].y.copy()
        y[100] = 1e200  # overflows the squared error
        records[bad] = DataRecord(u=records[bad].u, y=y)
        stack = pem_estimate(records, spec)
        assert_rows_are_their_own_calls(stack, [lambda r=r: pem_estimate(r, spec) for r in records])
        assert isinstance(stack.errors[bad], CostEvaluationError)
        assert np.isnan(stack.theta_hat).tolist() == [i == bad for i in range(self.R)]

    def test_mixed_lengths_raise_value_error(self):
        spec, records = self.records()
        padded = DataRecord(u=np.concatenate([[0.33], records[1].u]), y=records[1].y)
        with pytest.raises(ValueError, match="one len\\(u\\) and one n_obs"):
            pem_estimate([records[0], padded], spec)
        short = DataRecord(u=records[1].u[:-1], y=records[1].y[:-1])
        with pytest.raises(ValueError, match="one len\\(u\\) and one n_obs"):
            pem_estimate([records[0], short], spec)


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
        # each search against a 2001-point scan and scipy's Brent on the
        # criterion as defined, one theta at a time: the mean of
        # (y - predict(theta))^2 / lambda, with lambda = 1 and then
        # prediction_variance frozen at the unweighted estimate
        config = self.config()
        searches = capture_searches(monkeypatch, pem_mod)
        bracket = OptimizerSettings().bracket
        for r in range(config.realizations):
            record = make_record(config, r)
            run_method(config, "PEM_W", record, r)
            unweighted, weighted = searches[-2:]
            u_t, u_tm1, sv2 = record.lagged(0), record.lagged(1), config.sigma_v2
            frozen = prediction_variance(unweighted.argmin, u_t, u_tm1, sv2, config.sigma_e2)
            for exact, weights in ((unweighted, 1.0), (weighted, frozen)):

                def cost(theta):
                    resid = record.y - predict(theta, u_t, u_tm1, sv2)
                    return float(np.mean(resid**2 / weights))

                reference = reference_argmin(cost, bracket)
                assert abs(exact.argmin - reference) <= 2e-6
                assert cost(exact.argmin) <= cost(reference) * (1 + 1e-12)
                assert exact.iterations >= 2  # the bracket ends and the critical points
        assert len(searches) == 2 * config.realizations

    def test_true_theta_outside_the_bracket_stops_at_the_edge(self):
        # theta0 = 4 lies outside [-3, 3]: both costs decrease up to the edge
        config = self.config(theta_o=4.0, realizations=1)
        est = run_method(config, "PEM_W", make_record(config, 0), 0)
        assert est.theta_hat[0] == OptimizerSettings().bracket[1]
        assert est.diagnostics.at_bracket_edge and not est.diagnostics.degenerate
