import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

import wienerid.bench as bench_mod
import wienerid.indirect as indirect_mod
from wienerid.bench import (
    ExperimentConfig, first_order_estimate, make_record, run_method, zero_order_estimate,
)
from wienerid.bla import estimate_weighting, fit_bla
from wienerid.indirect import (
    FIRST_ORDER_LAGS,
    AnalyticMap,
    SimulatedMap,
    beta_map_gaussian,
    beta_map_uniform,
    step2,
)
from wienerid.numerics import BRACKET, CostEvaluationError, RankDeficiencyError, horner
from wienerid.pem import conditional_mean, pem_estimate
from wienerid.signals import DistributionKind, StreamRole, gaussian_white, gen_white, uniform_white
from wienerid.system import (
    DataRecord, FirStructure, Nonlinearity, SystemSpec, cubic, identity, lagged_matrix,
    paper_fir, simulate,
)

from cost_checks import capture_costs, reference_argmin
from stack_checks import assert_rows_are_their_own_calls

SU2, SV2, SE2 = 1.0 / 3.0, 0.2, 0.1


def paper_spec(input_dist=None):
    return SystemSpec(
        fir=paper_fir(), theta=np.array([0.5]), nonlinearity=cubic(),
        sigma_v2=SV2, sigma_e2=SE2,
        input_dist=input_dist if input_dist is not None else gaussian_white(SU2),
    )


def analytic_jacobian(amap, theta):
    """d beta / d theta of the closed-form map as a (2, 1) column."""
    su2, sv2 = amap.sigma_u2, amap.sigma_v2
    return np.array([[3.0 * amap.kappa * su2 * theta**2 + 3.0 * (su2 + sv2)], [6.0 * su2 * theta]])


def make_data(input_dist, n, seed, theta=0.5):
    spec = paper_spec(input_dist)
    spec.theta = np.array([theta])
    u = gen_white(input_dist, n + 1, seed, path=(0,))
    v = gen_white(gaussian_white(SV2), n, seed, path=(1,))
    e = gen_white(gaussian_white(SE2), n, seed, path=(2,))
    _, y = simulate(spec, u, v, e)
    return spec, DataRecord(u=u, y=y)


class TestAnalyticMaps:
    def test_gaussian_at_zero(self):
        b1, b2 = beta_map_gaussian(0.0, SU2, SV2)
        assert b1 == 0.0
        assert b2 == pytest.approx(3.0 * (SU2 + SV2))

    def test_gaussian_paper_point(self):
        np.testing.assert_allclose(beta_map_gaussian(0.5, SU2, SV2), (0.925, 1.85), rtol=1e-14)

    @given(theta=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_ratio_identity(self, theta):
        b1, b2 = beta_map_gaussian(theta, SU2, SV2)
        assert b1 / b2 == pytest.approx(theta, abs=1e-12)

    def test_uniform_at_zero(self):
        b1, b2 = beta_map_uniform(0.0, SU2, SV2)
        assert b1 == 0.0
        assert b2 == pytest.approx(1.8 * SU2 + 3.0 * SV2)

    def test_uniform_paper_point(self):
        np.testing.assert_allclose(beta_map_uniform(0.5, SU2, SV2), (0.875, 1.45), rtol=1e-14)

    @given(theta=st.floats(-3, 3), su2=st.floats(0.05, 2), sv2=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_uniform_fourth_moment_rebuild(self, theta, su2, sv2):
        # first principles: beta1 = E{y u}/su2 with E{u^4} = (9/5) su2^2,
        # beta2 = E{y u(t-1)}/su2, expanding (a+v)^3 termwise
        b1 = (1.8 * theta**3 * su2**2 + 3 * theta * su2**2 + 3 * theta * su2 * sv2) / su2
        b2 = (3 * theta**2 * su2**2 + 1.8 * su2**2 + 3 * su2 * sv2) / su2
        got = beta_map_uniform(theta, su2, sv2)
        np.testing.assert_allclose(got, (b1, b2), rtol=1e-10, atol=1e-12)

    @given(theta=st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_beta2_is_even_in_theta(self, theta):
        # the lag-one component alone cannot identify the sign of theta
        _, b2_pos = beta_map_gaussian(theta, SU2, SV2)
        _, b2_neg = beta_map_gaussian(-theta, SU2, SV2)
        assert b2_pos == b2_neg

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            beta_map_gaussian(0.5, -1.0, 0.2)
        with pytest.raises(ValueError):
            beta_map_uniform(0.5, 0.3, -0.1)
        with pytest.raises(ValueError, match="variances"):
            AnalyticMap(-1.0, 0.2, 3.0)


class TestSimulatedMap:
    def test_no_process_noise_is_deterministic(self):
        spec = paper_spec()
        spec.sigma_v2 = 0.0
        u = gen_white(gaussian_white(SU2), 501, 77, path=(0,))
        a = SimulatedMap(u, spec, s_count=3, seed=1)(0.5)
        b = SimulatedMap(u, spec, s_count=5, seed=999)(0.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)
        lin = spec.nonlinearity.value(0.5 * u[1:] + u[:-1])
        direct = np.linalg.lstsq(np.column_stack([u[1:], u[:-1]]), lin, rcond=None)[0]
        np.testing.assert_allclose(a, direct, rtol=1e-12)

    def test_same_seed_bitwise_identical(self):
        spec = paper_spec()
        u = gen_white(gaussian_white(SU2), 301, 78, path=(0,))
        a = SimulatedMap(u, spec, s_count=4, seed=123)(0.4)
        b = SimulatedMap(u, spec, s_count=4, seed=123)(0.4)
        np.testing.assert_array_equal(a, b)

    def test_matches_analytic_map_at_scale(self):
        spec = paper_spec()
        n = 10**5
        u = gen_white(gaussian_white(SU2), n + 1, 79, path=(0,))
        beta = SimulatedMap(u, spec, s_count=10, seed=5)(0.5)
        # conservative 3-sigma bound from a single-replicate sandwich fit
        v = gen_white(gaussian_white(SV2), n, 80, path=(1,))
        _, y_one = simulate(spec, u, v, np.zeros(n))
        one = estimate_weighting(
            DataRecord(u=u, y=y_one), fit_bla(DataRecord(u=u, y=y_one), (0, 1))
        )
        se = np.sqrt(np.diag(one.cov_beta))
        assert abs(beta[0] - 0.925) < 3 * se[0]
        assert abs(beta[1] - 1.85) < 3 * se[1]

    def test_common_random_numbers_smooth_in_theta(self):
        spec = paper_spec()
        u = gen_white(gaussian_white(SU2), 201, 81, path=(0,))
        smap = SimulatedMap(u, spec, s_count=3, seed=11)
        first = smap(0.5)
        again = smap(0.5)
        np.testing.assert_array_equal(first, again)
        assert smap.inflation == pytest.approx(1 + 1 / 3)

    @pytest.mark.parametrize("lags", [FIRST_ORDER_LAGS])
    @pytest.mark.parametrize("nl", [cubic(), Nonlinearity((0.1, 1.0, -0.3, 0.5)), identity()],
                             ids=["cubic", "polynomial", "identity"])
    @pytest.mark.parametrize("s_count", [1, 3, 10])
    def test_matches_stacked_least_squares(self, s_count, nl, lags):
        # the map's definition: one least-squares fit of all S replicate
        # outputs on the S-times stacked lagged regressors
        spec = paper_spec()
        spec.nonlinearity = nl
        u = gen_white(gaussian_white(SU2), 401, 83, path=(0,))
        smap = SimulatedMap(u, spec, s_count=s_count, seed=17)
        n = len(u) - max(lags[-1], 1)
        v = np.stack([
            gen_white(gaussian_white(SV2), len(u) - 1, 17, path=(int(StreamRole.SIMULATION), s))
            for s in range(s_count)
        ])[:, -n:]
        stacked = np.tile(lagged_matrix(u, n, lags), (s_count, 1))
        for theta in (-3.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            lin = (theta * u[1:] + u[:-1])[-n:]
            want = np.linalg.lstsq(stacked, nl.value(lin + v).ravel(), rcond=None)[0]
            np.testing.assert_allclose(smap(theta), want, rtol=1e-12)

    def test_no_replicates_rejected(self):
        u = gen_white(gaussian_white(SU2), 301, 78, path=(0,))
        with pytest.raises(ValueError, match="^s_count must be >= 1$"):
            SimulatedMap(u, paper_spec(), s_count=0, seed=1)

    def test_rank_deficient_regressors_rejected_at_construction(self):
        # a constant input makes the lagged columns equal
        with pytest.raises(RankDeficiencyError):
            SimulatedMap(np.ones(301), paper_spec(), s_count=3, seed=1)


class TestStep2:
    def test_exact_fixed_point(self):
        amap = AnalyticMap(SU2, SV2, 3.0)
        report = step2(amap(0.5), np.eye(2), amap.coeffs, beta_cov=np.eye(2) / 1000)
        assert report.theta_hat[0] == pytest.approx(0.5, abs=1e-6)
        G = analytic_jacobian(amap, report.theta_hat[0])
        assert report.predicted_std**2 == pytest.approx(1.0 / float(G[:, 0] @ G[:, 0]) / 1000, rel=1e-9)

    def test_weighting_scale_invariance(self):
        amap = AnalyticMap(SU2, SV2, 3.0)
        beta_hat = np.array([0.9, 1.8])
        W = np.array([[2.0, 0.3], [0.3, 1.0]])
        a = step2(beta_hat, W, amap.coeffs, beta_cov=np.eye(2) / 500)
        b = step2(beta_hat, 7.0 * W, amap.coeffs, beta_cov=np.eye(2) / 500)
        assert a.theta_hat[0] == b.theta_hat[0]

    def test_weighting_scale_invariance_on_random_metrics(self):
        amap = AnalyticMap(SU2, SV2, 3.0)
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            A = rng.normal(size=(2, 2))
            W = A @ A.T + 0.1 * np.eye(2)
            beta_hat = amap(rng.uniform(-2.0, 2.0)) + rng.normal(scale=0.05, size=2)
            a = step2(beta_hat, W, amap.coeffs, beta_cov=np.eye(2) / 500)
            scale = np.exp(rng.uniform(-10.0, 10.0))
            b = step2(beta_hat, scale * W, amap.coeffs, beta_cov=np.eye(2) / 500)
            assert a.theta_hat[0] == b.theta_hat[0]

    def test_identifiability_across_grid(self):
        amap = AnalyticMap(SU2, SV2, 3.0)
        for theta in np.linspace(-2.9, 2.9, 50):
            report = step2(amap(theta), np.eye(2), amap.coeffs, beta_cov=np.eye(2) / 100)
            assert abs(report.theta_hat[0] - theta) < 1e-6

    def test_non_positive_definite_weighting_rejected(self):
        amap = AnalyticMap(SU2, SV2, 3.0)
        with pytest.raises(ValueError, match="positive definite"):
            step2(amap(0.5), np.array([[1.0, 0.0], [0.0, -1.0]]), amap.coeffs, beta_cov=np.eye(2) / 100)
        with pytest.raises(ValueError, match="symmetric"):
            step2(amap(0.5), np.array([[1.0, 0.5], [0.0, 1.0]]), amap.coeffs, beta_cov=np.eye(2) / 100)

    @pytest.mark.parametrize("beta_cov", [
        -1e-3 * np.eye(2), np.diag([1e-3, -1e-9]), np.array([[1e-3, 0.0], [-3e-3, 1e-3]]),
    ], ids=["negative", "one-negative-direction", "negative-symmetric-part"])
    def test_beta_cov_not_positive_semi_definite_rejected(self, beta_cov):
        # the sandwich is negative along some direction: a named error, not
        # a NaN std
        amap = AnalyticMap(SU2, SV2, 3.0)
        with pytest.raises(ValueError, match="^beta_cov must be positive semi-definite"):
            step2(amap(0.5) + 0.01, np.eye(2), amap.coeffs, beta_cov=beta_cov)

    def test_singular_beta_cov_accepted(self):
        # positive semi-definite is enough: a zero covariance predicts a zero std
        amap = AnalyticMap(SU2, SV2, 3.0)
        rank_one = step2(amap(0.5) + 0.01, np.eye(2), amap.coeffs, beta_cov=np.ones((2, 2)) / 1000)
        zero = step2(amap(0.5) + 0.01, np.eye(2), amap.coeffs, beta_cov=np.zeros((2, 2)))
        assert rank_one.predicted_std > 0.0 and zero.predicted_std == 0.0

    @pytest.mark.parametrize("shape", [(), (1, 1, 2)], ids=["0-d", "3-D"])
    def test_beta_hat_of_the_wrong_shape_rejected(self, shape):
        amap = AnalyticMap(SU2, SV2, 3.0)
        with pytest.raises(ValueError, match=rf"^beta_hat of shape {re.escape(str(shape))}; step2"):
            step2(np.full(shape, 0.9), np.eye(2), amap.coeffs, beta_cov=np.eye(2) / 100)

    # (input, whether beta_hat is a stack of 3, a value of the wrong shape):
    # an input is stacked exactly as beta_hat is, with m = 2
    @pytest.mark.parametrize("argument, stacked, value", [
        pytest.param("W", False, np.ones(2), id="W-(m,)"),
        pytest.param("W", False, 1.0, id="W-scalar"),
        pytest.param("W", False, np.eye(3), id="W-(m+1,m+1)"),
        pytest.param("W", True, np.eye(2), id="W-unstacked"),
        pytest.param("W", True, np.stack([np.eye(2)] * 2), id="W-short-stack"),
        pytest.param("beta_cov", False, np.full(2, 1e-3), id="beta_cov-(m,)"),
        pytest.param("beta_cov", False, 1e-3, id="beta_cov-scalar"),
        pytest.param("beta_cov", False, np.eye(3) / 500, id="beta_cov-(m+1,m+1)"),
        pytest.param("beta_cov", True, np.eye(2) / 500, id="beta_cov-unstacked"),
        pytest.param("coeffs", True, AnalyticMap(SU2, SV2, 3.0).coeffs, id="coeffs-unstacked"),
        pytest.param("coeffs", False, AnalyticMap(SU2, SV2, 3.0).coeffs[None], id="coeffs-stacked"),
    ])
    def test_input_of_the_wrong_shape_rejected_by_name(self, argument, stacked, value):
        # a shared or misshapen value is never broadcast into a covariance
        amap = AnalyticMap(SU2, SV2, 3.0)
        inputs = {"beta_hat": amap(0.5) + 0.01, "W": np.eye(2), "coeffs": amap.coeffs,
                  "beta_cov": np.eye(2) / 500}
        if stacked:
            inputs = {name: np.stack([v] * 3) for name, v in inputs.items()}
        inputs[argument] = value
        shape = re.escape(str(np.shape(value)))
        with pytest.raises(ValueError, match=rf"^{argument} of shape {shape}; step2 needs"):
            step2(*inputs.values())

    def test_needs_beta_cov(self):
        # beta_cov scales the predicted std alone
        amap = AnalyticMap(SU2, SV2, 3.0)
        with pytest.raises(TypeError, match="beta_cov"):
            step2(amap(0.5), np.eye(2), amap.coeffs)
        a = step2(amap(0.45), np.eye(2), amap.coeffs, beta_cov=np.eye(2) / 100)
        b = step2(amap(0.45), np.eye(2), amap.coeffs, beta_cov=np.eye(2) / 400)
        assert a.theta_hat[0] == b.theta_hat[0]
        assert b.predicted_std == pytest.approx(a.predicted_std / 2.0, rel=1e-14)

    def test_flat_criterion_flagged(self):
        # a constant cubic
        flat = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        report = step2(np.array([0.0, 0.0]), np.eye(2), flat, beta_cov=np.eye(2) / 100)
        assert report.diagnostics.degenerate
        assert report.predicted_std == np.inf

    def test_predicted_covariance_formula(self):
        amap = AnalyticMap(SU2, SV2, 3.0)
        W = np.diag([2.0, 3.0])
        report = step2(amap(0.5), W, amap.coeffs, beta_cov=np.linalg.inv(250 * W))
        G = analytic_jacobian(amap, report.theta_hat[0])
        expected = 1.0 / float(G[:, 0] @ W @ G[:, 0]) / 250
        assert report.predicted_std**2 == pytest.approx(expected, rel=1e-9)

    def test_simulated_map_predicted_std(self):
        spec = paper_spec()
        spec.sigma_v2 = 0.0
        u = gen_white(gaussian_white(SU2), 2001, 82, path=(0,))
        smap = SimulatedMap(u, spec, s_count=1, seed=3)
        report = step2(smap(0.5), np.eye(2), smap.coeffs, beta_cov=np.eye(2) / 2000 * smap.inflation)
        assert abs(report.theta_hat[0] - 0.5) < 1e-10
        # G against a central difference of the map (error about 1e-10),
        # the covariance inflated by 1 + 1/S
        h = 1e-5
        G = (smap(report.theta_hat[0] + h) - smap(report.theta_hat[0] - h)) / (2 * h)
        assert report.predicted_std**2 == pytest.approx(2.0 / float(G @ G) / 2000, rel=1e-8)


class TestStep2Stack:
    """step2 on R rows gives each row, bit for bit, its own call's estimate,
    and each failing row its own call's error."""

    R = 8

    def fits(self):
        out = []
        for r in range(self.R):
            spec, data = make_data(gaussian_white(SU2), 400, 60 + r)
            out.append((data, estimate_weighting(data, fit_bla(data, (0, 1)))))
        return out

    def check_rows(self, beta_hat, W, maps, beta_cov):
        # each row's covariance carries its map's inflation
        beta_cov = beta_cov * np.array([m.inflation for m in maps])[:, None, None]
        result = step2(beta_hat, W, np.array([m.coeffs for m in maps]), beta_cov)
        own = [lambda i=i: step2(beta_hat[i], W[i], maps[i].coeffs, beta_cov[i])
               for i in range(self.R)]
        assert_rows_are_their_own_calls(result, own)
        ok = result.errors.ok
        assert np.isnan(result.theta_hat[~ok]).all() and np.isnan(result.predicted_std[~ok]).all()
        for i in np.flatnonzero(ok):
            e = own[i]()
            assert (result.theta_hat[i], result.predicted_std[i]) == (e.theta_hat[0], e.predicted_std)
        return result

    def test_analytic_map(self):
        fits = self.fits()
        amap = AnalyticMap(SU2, SV2, 3.0)
        beta_hat = np.array([f.beta_hat for _, f in fits])
        W = np.array([f.W for _, f in fits])
        beta_cov = np.array([f.cov_beta for _, f in fits])
        self.check_rows(beta_hat, W, [amap] * self.R, beta_cov)

    def test_simulated_maps_with_failing_rows(self):
        fits = self.fits()
        maps = [SimulatedMap(data.u, paper_spec(), s_count=3, seed=r) for r, (data, _) in enumerate(fits)]
        beta_hat = np.array([f.beta_hat for _, f in fits])
        W = np.array([f.W for _, f in fits])
        beta_cov = np.array([f.cov_beta for _, f in fits])
        beta_hat[1, 0] = np.nan
        W[3] = [[1.0, 0.0], [0.0, -1.0]]
        W[4, 0, 1] += 0.5
        maps[5].coeffs = maps[5].coeffs.copy()
        maps[5].coeffs[2, 1] = np.inf
        beta_cov[6, 1, 1] = np.nan
        result = self.check_rows(beta_hat, W, maps, beta_cov)
        assert [type(e).__name__ if e else None for e in result.errors] == [
            None, "ValueError", None, "ValueError", "ValueError", "ValueError", "ValueError", None]
        assert str(result.errors[3]).startswith("W must be positive definite")
        assert str(result.errors[5]) == "coeffs must be finite"


    @given(rows=st.integers(1, 4), width=st.integers(1, 3), degree=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1),
           poison=st.lists(st.one_of(st.none(), st.sampled_from([
               "beta_hat", "beta_cov", "coeffs", "not SPD", "cov not PSD"])),
               min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rows_are_their_own_calls_on_random_stacks(self, rows, width, degree, seed, poison):
        # random finite fits near random maps of the bracket, SPD metrics
        # and covariances, and some rows poisoned by NaN, a non-SPD W or a
        # negative definite covariance
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(rows, degree + 1, width))
        theta = rng.uniform(*BRACKET, size=rows)
        beta_hat = np.array([npoly.polyval(t, c) for t, c in zip(theta, coeffs)])
        beta_hat += rng.normal(scale=0.1, size=(rows, width))
        spd = lambda: (a := rng.normal(size=(width, width))) @ a.T + 0.1 * np.eye(width)
        W = np.array([spd() for _ in range(rows)])
        beta_cov = np.array([spd() for _ in range(rows)]) / 100
        for i, bad in enumerate(poison[:rows]):
            if bad == "not SPD":
                W[i] = -W[i]
            elif bad == "cov not PSD":
                beta_cov[i] = -beta_cov[i]
            elif bad is not None:
                {"beta_hat": beta_hat, "beta_cov": beta_cov, "coeffs": coeffs}[bad][i].flat[0] = np.nan
        stack = step2(beta_hat, W, coeffs, beta_cov)
        assert_rows_are_their_own_calls(stack, [
            lambda i=i: step2(beta_hat[i], W[i], coeffs[i], beta_cov[i]) for i in range(rows)])


class TestBindingMapContract:
    # step2 reads a map as its coeffs: one row per power of theta, one
    # column per auxiliary coefficient
    @pytest.mark.parametrize("coeffs", [
        np.zeros(4), np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((4, 2, 1)), np.zeros((0, 2)),
    ], ids=["1-D", "too-wide", "too-narrow", "3-D", "no-rows"])
    def test_coeffs_of_the_wrong_shape_rejected(self, coeffs):
        message = rf"^coeffs of shape {re.escape(str(coeffs.shape))}; step2 needs \(degree \+ 1, 2\)$"
        with pytest.raises(ValueError, match=message):
            step2(np.array([0.9, 1.8]), np.eye(2), coeffs, beta_cov=np.eye(2) / 500)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("argument", ["beta_hat", "W", "coeffs", "beta_cov"])
    def test_non_finite_input_rejected_by_name(self, argument, bad):
        # bad input, not a theta point, is named in the error
        inputs = {
            "beta_hat": np.array([0.9, 1.8]), "W": np.eye(2),
            "coeffs": AnalyticMap(SU2, SV2, 3.0).coeffs.copy(),
            "beta_cov": np.eye(2) / 500,
        }
        inputs[argument].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{argument} must be finite"):
            step2(*inputs.values())


class TestStep2Criterion:
    # the polynomial step2 minimizes against (beta(theta) - beta_hat)' W
    # (beta(theta) - beta_hat) / trace(W), its definition, on a grid
    @staticmethod
    def assert_criterion_is_its_definition(monkeypatch, beta_map, est, W):
        costs = capture_costs(monkeypatch, indirect_mod)
        step2(est.beta_hat, W, beta_map.coeffs, beta_cov=est.cov_beta)
        (coeffs, bracket), = costs
        for theta in np.linspace(*bracket, 13):
            resid = beta_map(theta) - est.beta_hat
            definition = float(resid @ W @ resid) / np.trace(W)
            assert horner(coeffs, theta) == pytest.approx(definition, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("input_dist", [gaussian_white(SU2), uniform_white(SU2)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_analytic_map_criterion(self, monkeypatch, input_dist, weighted):
        spec, data = make_data(input_dist, 1000, 31)
        est = estimate_weighting(data, fit_bla(data, (0, 1)))
        W = est.W if weighted else np.eye(2)
        amap = AnalyticMap(SU2, SV2, input_dist.kurtosis)
        self.assert_criterion_is_its_definition(monkeypatch, amap, est, W)

    def test_simulated_map_criterion(self, monkeypatch):
        spec, data = make_data(gaussian_white(SU2), 300, 32)
        smap = SimulatedMap(data.u, spec, s_count=2, seed=7)
        est = estimate_weighting(data, fit_bla(data, (0, 1)))
        self.assert_criterion_is_its_definition(monkeypatch, smap, est, est.W)


class TestBracketEdge:
    def estimates(self, theta):
        spec, data = make_data(gaussian_white(SU2), 1000, 33, theta=theta)
        return [
            pem_estimate(data, spec, weighted=True),
            zero_order_estimate(data, spec),
            first_order_estimate(data, spec, weighted=False),
            first_order_estimate(data, spec, weighted=True),
        ]

    def test_true_theta_outside_bracket_is_flagged(self):
        # PEM_W, II0, II1_UNW and II1_W in turn; the bracket is [-3, 3]
        reports = self.estimates(4.0)
        for report in reports:
            assert report.diagnostics.at_bracket_edge
            assert float(np.ravel(report.theta_hat)[0]) == 3.0
        # a flagged estimate carries no finite predicted std
        for report in reports[1:]:
            assert report.predicted_std == np.inf

    def test_paper_system_is_not_flagged(self):
        reports = self.estimates(0.5)
        for report in reports:
            assert not report.diagnostics.at_bracket_edge
        for report in reports[1:]:
            assert np.isfinite(report.predicted_std)


def invert_cubic(c3, c1, target):
    """II0's match of beta1(theta) = c3 theta^3 + c1 theta to a slope."""
    coeffs = np.array([[0.0], [c1], [0.0], [c3]])
    return step2(np.array([target]), np.eye(1), coeffs, beta_cov=np.eye(1) / 1000)


class TestMonotoneCubic:
    """II0 inverts the increasing cubic beta1(theta), the first component
    of the closed-form map, by Step 2 on the order-zero fit: the match of
    one coefficient to one parameter, on the bracket."""

    def test_paper_inversion_point(self):
        theta = invert_cubic(3 * SU2, 3 * (SU2 + SV2), 0.925).theta_hat[0]
        assert theta == pytest.approx(0.5, abs=1e-8)
        assert 3 * SU2 * theta**3 + 3 * (SU2 + SV2) * theta == pytest.approx(0.925, abs=1e-12)

    def test_zero_maps_to_zero(self):
        got = invert_cubic(3 * SU2, 3 * (SU2 + SV2), 0.0)
        assert got.theta_hat[0] == 0.0 and not got.diagnostics.at_bracket_edge

    @given(kappa=st.sampled_from([3.0, 9.0 / 5.0]), theta=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, kappa, theta):
        # beta1 of the gaussian and the uniform map, at every theta of the bracket
        beta_map = AnalyticMap(SU2, SV2, kappa)
        (_, c1, _, c3) = beta_map.coeffs[:, 0]
        got = invert_cubic(c3, c1, beta_map(theta)[0])
        assert abs(got.theta_hat[0] - theta) <= 1e-12

    def test_pure_cubic_branch(self):
        assert invert_cubic(2.0, 0.0, 16.0).theta_hat[0] == pytest.approx(2.0, rel=1e-10)

    def test_degenerate_rejected(self):
        # a map with no slope matches nothing: flagged, with no finite std
        got = invert_cubic(0.0, 0.0, 1.0)
        assert got.diagnostics.degenerate and got.predicted_std == np.inf

    @pytest.mark.parametrize("target", [1e120, -1e120, 1e300, -1e300])
    def test_huge_targets(self, target):
        # beyond the bracket's reach: a flagged estimate with no finite std,
        # or, where the criterion (about target^2) overflows, a typed error
        c3, c1 = 3 * SU2, 3 * (SU2 + SV2)
        if abs(target) > 1e154:
            with pytest.raises(CostEvaluationError):
                invert_cubic(c3, c1, target)
        else:
            got = invert_cubic(c3, c1, target)
            assert got.diagnostics.degenerate and got.predicted_std == np.inf

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="beta_hat must be finite"):
            invert_cubic(3 * SU2, 3 * (SU2 + SV2), target)


class TestZeroOrder:
    def test_recovers_on_noise_free_gaussian_data(self):
        dist = gaussian_white(SU2)
        spec, data = make_data(dist, 3000, 83)
        report = zero_order_estimate(data, spec)
        assert abs(report.theta_hat[0] - 0.5) < 0.2

    def test_zero_coefficient_maps_to_zero_theta(self):
        # a zero slope matches beta1(0) = 0 in Step 2; y = 0 gives that
        # slope with residuals that are all zero, so no sandwich: II0
        # raises there, as II1_UNW does
        amap = AnalyticMap(SU2, SV2, 3.0)
        report = step2(np.zeros(1), np.eye(1), amap.coeffs[:, :1], beta_cov=np.eye(1) / 100)
        assert report.theta_hat[0] == 0.0 and np.isfinite(report.predicted_std)
        dist = gaussian_white(SU2)
        spec, _ = make_data(dist, 100, 84)
        data = DataRecord(u=gen_white(dist, 101, 85, path=(0,)), y=np.zeros(100))
        for call in (lambda: zero_order_estimate(data, spec),
                     lambda: first_order_estimate(data, spec, weighted=False)):
            with pytest.raises(np.linalg.LinAlgError, match=r"^I_hat is zero \(the fit's residuals"):
                call()

    def test_huge_outputs_give_a_finite_estimate(self):
        # a slope near 1e119 makes beta1(theta) - slope one value to 16 ulps
        # on the whole bracket: a degenerate criterion, with no finite std
        dist = gaussian_white(SU2)
        spec, _ = make_data(dist, 100, 84)
        y = np.where(np.arange(100) % 2, 1e120, -1e120)
        data = DataRecord(u=gen_white(dist, 101, 85, path=(0,)), y=y)
        report = zero_order_estimate(data, spec)
        assert np.isfinite(report.theta_hat[0]) and report.diagnostics.degenerate
        assert report.predicted_std == np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_slope_variance_raises_lin_alg_error(self):
        # one y = 1e200 overflows the squared residual of the order-zero
        # fit's I_hat: a typed error, not theta_hat = -8.4e65 with an
        # infinite std, and no warning before it
        spec, data = make_data(gaussian_white(SU2), 120, 88)
        y = data.y.copy()
        y[5] = 1e200
        with pytest.raises(np.linalg.LinAlgError, match="^I_hat is not finite"):
            zero_order_estimate(DataRecord(u=data.u, y=y), spec)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_input_raises_lin_alg_error(self):
        # u of 1e-160 passes the relative rank check, but its squares are
        # subnormal and J_hat's inverse overflows: a typed error, not a
        # ZeroDivisionError or a warning
        spec, data = make_data(gaussian_white(SU2), 120, 88)
        with pytest.raises(np.linalg.LinAlgError, match="^cov_beta is not finite"):
            zero_order_estimate(DataRecord(u=data.u * 1e-160, y=data.y), spec)


class TestFirstOrder:
    @pytest.mark.parametrize("dist_maker", [gaussian_white, uniform_white])
    def test_weighted_and_unweighted_run(self, dist_maker):
        dist = dist_maker(SU2)
        spec, data = make_data(dist, 2000, 86)
        unw = first_order_estimate(data, spec, weighted=False)
        wgt = first_order_estimate(data, spec, weighted=True)
        # unweighted matches in the identity metric, weighted in the sandwich one
        amap = AnalyticMap(SU2, SV2, dist.kurtosis)
        est = estimate_weighting(data, fit_bla(data, (0, 1)))
        for report, W in ((unw, np.eye(2)), (wgt, est.W)):
            direct = step2(est.beta_hat, W, amap.coeffs, beta_cov=est.cov_beta)
            assert report.theta_hat[0] == direct.theta_hat[0]
            assert report.predicted_std == direct.predicted_std
            assert abs(report.theta_hat[0] - 0.5) < 0.25
            assert report.predicted_std**2 > 0

    @pytest.mark.parametrize("dist_maker", [gaussian_white, uniform_white])
    def test_weighted_sandwich_reduces_to_inverse_curvature(self, dist_maker):
        # W = (N cov_beta)^-1, so the sandwich is (G'WG)^-1 / N up to rounding
        dist = dist_maker(SU2)
        spec, data = make_data(dist, 2000, 87)
        est = estimate_weighting(data, fit_bla(data, (0, 1)))
        amap = AnalyticMap(SU2, SV2, dist.kurtosis)
        sandwich = step2(est.beta_hat, est.W, amap.coeffs, beta_cov=est.cov_beta)
        G = analytic_jacobian(amap, sandwich.theta_hat[0])[:, 0]
        inverse_curvature = 1.0 / float(G @ est.W @ G) / data.n_obs
        assert sandwich.predicted_std**2 == pytest.approx(inverse_curvature, rel=1e-12)


class TestOtherSystemsRejected:
    """The single-record helpers match the closed-form map of the paper's
    FIR and cubic, so the template of another system is an error, not that
    system's data matched against the paper's map."""

    @pytest.mark.parametrize("change", ["identity", "free lag 1"])
    def test_other_template_rejected(self, change):
        spec, data = make_data(gaussian_white(SU2), 300, 89)
        if change == "identity":
            spec.nonlinearity = identity()
        else:
            spec.fir = FirStructure(free_lags=(1,))
        for call in (lambda: zero_order_estimate(data, spec),
                     lambda: first_order_estimate(data, spec, weighted=False),
                     lambda: first_order_estimate(data, spec, weighted=True)):
            with pytest.raises(ValueError, match="the paper's FIR and cubic alone"):
                call()


class TestUnweightedPredictedStd:
    """II1_UNW's predicted std, a sandwich around the identity metric,
    against the spread of its estimates over the 1000-realization tables.
    The tolerance, 10%, was fixed before measuring: about twice the Monte
    Carlo SE of a std over 1000 realizations (2.2%) plus a margin for the
    asymptotic approximation."""

    @pytest.mark.parametrize("table", ["gaussian_experiment", "uniform_experiment"])
    def test_mean_prediction_matches_empirical_std(self, request, table):
        result = request.getfixturevalue(table)
        predicted = result.predicted_stds["II1_UNW"]
        predicted = float(np.mean(predicted[np.isfinite(predicted)]))
        empirical = result.summary("II1_UNW").std
        assert predicted == pytest.approx(empirical, rel=0.10), (
            f"mean predicted std {predicted:.4f} vs empirical {empirical:.4f}"
        )


class TestZeroOrderPredictedStd:
    """II0's predicted std, Step 2's sandwich of the order-zero fit (the
    delta method through the inverse of beta1), against the spread of its estimates over the 1000-realization tables.
    The tolerance, 10%, was fixed before measuring: the Monte Carlo SE of a
    std over 1000 realizations (about 2.2%) plus a margin for the asymptotic
    approximation."""

    @pytest.mark.parametrize("table", ["gaussian_experiment", "uniform_experiment"])
    def test_mean_prediction_matches_empirical_std(self, request, table):
        result = request.getfixturevalue(table)
        predicted = result.predicted_stds["II0"]
        assert np.all(np.isfinite(predicted))
        predicted = float(np.mean(predicted))
        empirical = result.summary("II0").std
        assert predicted == pytest.approx(empirical, rel=0.10), (
            f"mean predicted std {predicted:.4f} vs empirical {empirical:.4f}"
        )


class TestExactStep2:
    """run_method("II1_UNW") and run_method("II1_W") minimize the Step 2
    criterion exactly, from one call of the binding function."""

    @staticmethod
    def config(theta_o=0.5, realizations=10, s_count=None):
        return ExperimentConfig(
            theta_o=theta_o, sigma_v2=SV2, sigma_e2=SE2, sigma_u2=SU2,
            input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=1000,
            realizations=realizations, methods=("II1_UNW", "II1_W"), master_seed=20260809,
            s_count=s_count,
        )

    @pytest.mark.parametrize("method", ["II1_UNW", "II1_W"])
    def test_matches_a_dense_scan(self, method):
        # against a 2001-point scan and scipy's Brent on the criterion of the
        # map itself, for the analytic map and the simulated one (S = 10)
        for config in (self.config(), self.config(realizations=3, s_count=10)):
            for r in range(config.realizations):
                record = make_record(config, r)
                exact = run_method(config, method, record, r)
                est = estimate_weighting(record, fit_bla(record, (0, 1)))
                W = est.W if method == "II1_W" else np.eye(2)
                if config.s_count is None:
                    beta_map = AnalyticMap(SU2, SV2, 3.0)
                else:
                    beta_map = SimulatedMap(
                        record.u, config.template(), config.s_count,
                        bench_mod._simulation_seed(config, r),
                    )

                def cost(theta):
                    resid = beta_map(theta) - est.beta_hat
                    return np.vecdot(resid @ W, resid)

                reference = reference_argmin(cost, BRACKET)
                assert abs(exact.theta_hat[0] - reference) <= 2e-6
                assert exact.diagnostics.iterations >= 2  # the bracket ends and the critical points
                if config.s_count is None:
                    # the sandwich with the exact Jacobian at the estimate
                    G = analytic_jacobian(beta_map, exact.theta_hat[0])[:, 0]
                    wg = W @ G
                    var = float(wg @ est.cov_beta @ wg) / float(G @ wg) ** 2
                    assert exact.predicted_std == pytest.approx(np.sqrt(var), rel=1e-9)

    @pytest.mark.parametrize("method", ["II1_UNW", "II1_W"])
    def test_true_theta_outside_the_bracket_stops_at_the_edge(self, method):
        # theta0 = 4 lies outside [-3, 3]: Step 2 stops at the edge, flags it
        # and predicts an infinite std
        config = self.config(theta_o=4.0, realizations=1)
        est = run_method(config, method, make_record(config, 0), 0)
        assert est.theta_hat[0] == BRACKET[1]
        assert est.diagnostics.at_bracket_edge and est.predicted_std == np.inf


INFLATION_N = 500
INFLATION_R = 400
INFLATION_S = (1, 5, 50)


@pytest.fixture(scope="module")
def inflation_runs():
    """Estimates from the analytic, conditional-limit, and simulated Step 2."""
    dist = gaussian_white(SU2)
    analytic = np.empty(INFLATION_R)
    conditional = np.empty(INFLATION_R)
    simulated = {s: np.empty(INFLATION_R) for s in INFLATION_S}
    amap = AnalyticMap(SU2, SV2, 3.0)
    for r in range(INFLATION_R):
        spec, data = make_data(dist, INFLATION_N, 90000 + r)
        est = estimate_weighting(data, fit_bla(data, (0, 1)))
        analytic[r] = step2(est.beta_hat, est.W, amap.coeffs, beta_cov=est.cov_beta).theta_hat[0]

        phi = data.regressors((0, 1))
        gram = phi.T @ phi

        # exact large-S limit of the simulated map on this input, a cubic in
        # theta: the coefficients interpolating its values at 4 points
        thetas = np.array([-3.0, -1.0, 1.0, 3.0])
        u_t, u_tm1 = data.regressors([0, 1]).T
        a = thetas[:, None] * u_t + u_tm1
        target = conditional_mean(spec.nonlinearity, a, spec.sigma_v2)

        cond_coeffs = npoly.polyfit(thetas, np.linalg.solve(gram, (target @ phi).T).T, 3)
        conditional[r] = step2(est.beta_hat, est.W, cond_coeffs, beta_cov=est.cov_beta).theta_hat[0]
        for s in INFLATION_S:
            smap = SimulatedMap(data.u, spec, s_count=s, seed=50000 + r)
            cov = est.cov_beta * smap.inflation
            simulated[s][r] = step2(est.beta_hat, est.W, smap.coeffs, beta_cov=cov).theta_hat[0]
    return analytic, conditional, simulated


class TestInflation:
    """Variance inflation of the simulated Step 2 (process-noise replicates on
    the observed input, measurement noise excluded, per the matching-criterion
    definition)."""

    def test_inflation_against_analytic_map(self, inflation_runs):
        # stated property: variance ratio to the analytic-map estimator
        # approaches (1 + 1/S); see notes for the measured decomposition
        analytic, _, simulated = inflation_runs
        var_a = np.var(analytic - 0.5, ddof=1)
        for s in INFLATION_S:
            ratio = np.var(simulated[s] - 0.5, ddof=1) / var_a
            target = 1.0 + 1.0 / s
            assert abs(ratio - target) <= 0.25 * target, (
                f"S={s}: measured ratio {ratio:.3f} vs (1+1/S)={target:.3f}"
            )

    def test_inflation_against_large_s_limit(self, inflation_runs):
        # same factor measured against the construction's exact S -> inf
        # limit (the input-conditional binding function)
        _, conditional, simulated = inflation_runs
        var_c = np.var(conditional - 0.5, ddof=1)
        for s in INFLATION_S:
            ratio = np.var(simulated[s] - 0.5, ddof=1) / var_c
            target = 1.0 + 1.0 / s
            assert abs(ratio - target) <= 0.25 * target, (
                f"S={s}: measured ratio {ratio:.3f} vs (1+1/S)={target:.3f}"
            )
