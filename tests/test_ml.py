import math

import numpy as np
import pytest
from scipy.integrate import quad

from wienerid.bench import DESK_ML_QUAD_ORDER, ExperimentConfig, make_record, run_method
from wienerid.indirect import first_order_estimate
from wienerid.ml import MlSettings, QuadratureUnderflowError, ml_estimate, neg_log_likelihood
from wienerid.signals import DistributionKind, gaussian_white, gen_white
from wienerid.system import DataRecord, SystemSpec, cubic, identity, paper_fir, polynomial, simulate

from cost_checks import reference_argmin


def paper_spec(sigma_v2=0.2, sigma_e2=0.1, nl=None):
    return SystemSpec(
        fir=paper_fir(), theta=np.array([0.5]), nonlinearity=nl if nl is not None else cubic(),
        sigma_v2=sigma_v2, sigma_e2=sigma_e2, input_dist=gaussian_white(1 / 3),
    )


def make_data(sigma_v2, sigma_e2, n, seed, nl=None):
    spec = paper_spec(sigma_v2, sigma_e2, nl)
    u = gen_white(gaussian_white(1 / 3), n + 1, seed, path=(0,))
    v = gen_white(gaussian_white(sigma_v2), n, seed, path=(1,))
    e = gen_white(gaussian_white(sigma_e2), n, seed, path=(2,))
    _, y = simulate(spec, u, v, e)
    return spec, DataRecord(u=u, y=y)


def log_term_oracle(theta, data, sigma_v2, sigma_e2, t):
    """Adaptive quadrature of one likelihood term (standard-normal measure)."""
    a = theta * data.lagged(0)[t] + data.lagged(1)[t]
    sv = np.sqrt(sigma_v2)
    y_t = data.y[t]

    def integrand(vb):
        return np.exp(-((y_t - (a + sv * vb) ** 3) ** 2) / (2 * sigma_e2) - vb * vb / 2.0)

    peak = float((np.cbrt(y_t) - a) / sv)
    val, _ = quad(
        integrand, min(-14.0, peak - 14.0), max(14.0, peak + 14.0),
        points=[peak, 0.0], limit=500, epsabs=1e-280, epsrel=1e-12,
    )
    return float(np.log(val) - 0.5 * np.log(2 * np.pi))


def log_term_oracle_f(nl, y_t, a, sigma_v2, sigma_e2):
    """Adaptive quadrature of one likelihood term for any nonlinearity: the
    integrand is scaled by its largest value on a fine grid of s, and that
    point and 0 are the break points."""
    sv = math.sqrt(sigma_v2)

    def log_g(s):
        return -((y_t - nl.value(a + sv * s)) ** 2) / (2 * sigma_e2) - s * s / 2.0

    grid = np.linspace(-40.0, 40.0, 80001)
    values = log_g(grid)
    peak, top = float(grid[np.argmax(values)]), float(np.max(values))
    val, _ = quad(
        lambda s: math.exp(log_g(s) - top), min(-14.0, peak - 14.0), max(14.0, peak + 14.0),
        points=[peak, 0.0], limit=500, epsabs=0.0, epsrel=1e-12,
    )
    return top + math.log(val) - 0.5 * math.log(2 * math.pi)


class TestNegLogLikelihood:
    def test_vanishing_process_noise_limit(self):
        # sigma_v^2 -> 0: the marginal collapses to the plain squared error sum
        spec, data = make_data(0.2, 0.1, 300, 21)
        spec.sigma_v2 = 1e-12
        settings = MlSettings(quad_order=200)
        for theta in (0.2, 0.5, 0.9):
            got = neg_log_likelihood(theta, data, spec, settings)
            a = theta * data.lagged(0) + data.lagged(1)
            explicit = float(np.sum((data.y - a**3) ** 2) / (2 * 0.1))
            assert got == pytest.approx(explicit, rel=1e-4)

    def test_terms_match_adaptive_quadrature_oracle(self):
        # 20 random (t, theta) pairs, log-integrand agreement at order 1000
        spec, data = make_data(0.2, 0.1, 1000, 22)
        rule_settings = MlSettings(quad_order=1000)
        rng = np.random.default_rng(0)
        ts = rng.integers(0, 1000, size=20)
        thetas = rng.uniform(0.2, 0.8, size=20)
        for t, theta in zip(ts, thetas):
            single = DataRecord(u=data.u[t : t + 2], y=data.y[t : t + 1])
            got = -neg_log_likelihood(theta, single, spec, rule_settings)
            want = log_term_oracle(theta, data, 0.2, 0.1, int(t))
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("order", [200, 1000])
    @pytest.mark.parametrize("theta", [-3.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    def test_terms_match_oracle_across_theta(self, theta, order):
        # theta far from the truth puts the output's peak far from the
        # process-noise mode, where a fixed-node rule loses whole nats
        spec, data = make_data(0.2, 0.1, 1000, 22)
        settings = MlSettings(quad_order=order)
        # at theta = -3 the peaks of terms 539, 576 and 608 lie at |s| of 13.1 to 14.1
        for t in [*np.random.default_rng(1).integers(0, 1000, size=25), 539, 576, 608]:
            single = DataRecord(u=data.u[t : t + 2], y=data.y[t : t + 1])
            got = -neg_log_likelihood(theta, single, spec, settings)
            want = log_term_oracle(theta, data, 0.2, 0.1, int(t))
            assert got == pytest.approx(want, abs=1e-6), f"t = {t}"

    @pytest.mark.parametrize("order", [200, 1000])
    def test_identity_terms_match_closed_form(self, order):
        # identity f: each term is a gaussian density in y - a, exactly; the
        # measurement scale goes through the generic nonlinearity path
        spec, data = make_data(0.2, 0.1, 300, 33, nl=identity())
        for theta in (-3.0, 0.5, 3.0):
            a = theta * data.lagged(0) + data.lagged(1)
            want = -0.5 * np.log(0.3 / 0.1) - (data.y - a) ** 2 / (2 * 0.3)
            for t in range(0, 300, 20):
                single = DataRecord(u=data.u[t : t + 2], y=data.y[t : t + 1])
                got = -neg_log_likelihood(theta, single, spec, MlSettings(quad_order=order))
                assert got == pytest.approx(want[t], abs=1e-12), f"t = {t}"

    @pytest.mark.parametrize("coeffs, order", [
        ((0.0, 1.0, 0.0, 0.5), 200),
        ((0.0, 1.0, 0.0, 0.5), 1000),
        # not monotone: the integrand has two peaks where y is near a local
        # extremum of f; order 200 resolves both to about 3e-6 only
        ((1.0, -2.0, 0.0, 0.5, 0.25), 1000),
    ], ids=["monotone-200", "monotone-1000", "quartic-1000"])
    def test_polynomial_terms_match_oracle(self, coeffs, order):
        nl = polynomial(coeffs)
        spec, data = make_data(0.2, 0.1, 1000, 22, nl=nl)
        for theta in (-3.0, 0.5, 3.0):
            a = theta * data.lagged(0) + data.lagged(1)
            for t in np.random.default_rng(1).integers(0, 1000, size=15):
                single = DataRecord(u=data.u[t : t + 2], y=data.y[t : t + 1])
                got = -neg_log_likelihood(theta, single, spec, MlSettings(quad_order=order))
                want = log_term_oracle_f(nl, data.y[t], a[t], 0.2, 0.1)
                assert got == pytest.approx(want, abs=1e-6), f"theta = {theta}, t = {t}"

    def test_degenerate_polynomials(self):
        # trailing zero coefficients do not change the window, and a constant
        # f leaves nothing to integrate: each term is -(y - c)^2 / (2 sigma_e^2)
        spec, data = make_data(0.2, 0.1, 200, 34, nl=identity())
        settings = MlSettings(quad_order=200)
        padded = paper_spec(nl=polynomial([0.0, 1.0, 0.0, 0.0]))
        assert neg_log_likelihood(0.4, data, padded, settings) == pytest.approx(
            neg_log_likelihood(0.4, data, spec, settings), rel=1e-13
        )
        constant = paper_spec(nl=polynomial([2.0]))
        want = np.sum((data.y - 2.0) ** 2) / (2 * 0.1)
        assert neg_log_likelihood(0.4, data, constant, settings) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("y_t, a_t", [(125.0, 0.0), (-125.0, 1.0), (8.0, -3.5)])
    def test_term_with_disjoint_windows(self, y_t, a_t):
        # cbrt(y) lies more than 9 sigma_v from a and f(a) more than
        # 9 sigma_e from y, so the two nine-sigma windows do not overlap
        spec = paper_spec()
        record = DataRecord(u=np.array([a_t, 0.0]), y=np.array([y_t]))
        got = -neg_log_likelihood(0.5, record, spec, MlSettings(quad_order=200))
        want = log_term_oracle(0.5, record, 0.2, 0.1, 0)
        assert got == pytest.approx(want, abs=1e-6)

    def test_zero_process_noise_is_squared_error(self):
        # sigma_v^2 = 0 exactly: no integral, and no division by sigma_v
        spec, data = make_data(0.2, 0.1, 300, 21)
        spec.sigma_v2 = 0.0
        for theta in (0.2, 0.5, 0.9):
            with np.errstate(all="raise"):
                got = neg_log_likelihood(theta, data, spec, MlSettings(quad_order=200))
            a = theta * data.lagged(0) + data.lagged(1)
            assert got == pytest.approx(np.sum((data.y - a**3) ** 2) / (2 * 0.1), rel=1e-12)

    def test_additive_constant_does_not_move_argmin(self):
        spec, data = make_data(0.2, 0.1, 400, 23)
        settings = MlSettings(quad_order=200)
        grid = np.linspace(0.2, 0.8, 25)
        base = np.array([neg_log_likelihood(t, data, spec, settings) for t in grid])
        shifted = base + 400 * np.log(np.sqrt(0.2) / np.sqrt(2 * np.pi))
        assert np.argmin(base) == np.argmin(shifted)
        np.testing.assert_allclose(np.diff(base), np.diff(shifted), rtol=1e-12)

    @pytest.mark.parametrize("sigma_v2", [0.01, 0.05, 0.2, 1.0])
    def test_finite_over_process_noise_sweep(self, sigma_v2):
        spec, data = make_data(sigma_v2, 0.1, 200, 24)
        settings = MlSettings(quad_order=300)
        values = [neg_log_likelihood(t, data, spec, settings) for t in np.linspace(-1, 1, 9)]
        assert np.all(np.isfinite(values))

    def test_consistency_smoke_large_sample(self):
        # one realization, N = 1e4: truth beats every coarse grid point
        spec, data = make_data(0.2, 0.1, 10**4, 25)
        settings = MlSettings(quad_order=200)
        at_truth = neg_log_likelihood(0.5, data, spec, settings)
        grid = [t for t in np.linspace(-3, 3, 41) if abs(t - 0.5) > 1e-9]
        assert all(at_truth <= neg_log_likelihood(t, data, spec, settings) for t in grid)

    def test_underflow_reported_with_time_indices(self):
        spec, data = make_data(0.2, 0.1, 50, 26)
        data.y[7] = 1e200
        with pytest.raises(QuadratureUnderflowError) as excinfo:
            neg_log_likelihood(0.5, data, spec, MlSettings(quad_order=100))
        assert 8 in excinfo.value.time_indices  # t is 1-based
        assert excinfo.value.theta == 0.5

    def test_overflowing_residual_is_named_in_the_message(self):
        # at y = 1e200 the squared residual overflows rather than underflows
        spec, data = make_data(0.2, 0.1, 50, 26)
        data.y[7] = 1e200
        message = r"not finite \(underflow or overflow\)"
        with pytest.raises(QuadratureUnderflowError, match=message) as excinfo:
            neg_log_likelihood(0.5, data, spec, MlSettings(quad_order=100))
        assert excinfo.value.time_indices == [8]
        assert "t = [8]" in str(excinfo.value)

    def test_measurement_noise_required(self):
        spec, data = make_data(0.2, 0.0, 50, 28)
        with pytest.raises(ValueError):
            neg_log_likelihood(0.5, data, spec, MlSettings(quad_order=50))

    def test_record_with_extra_lead_samples(self):
        spec, data = make_data(0.2, 0.1, 120, 32)
        padded = DataRecord(u=np.concatenate([[0.5], data.u]), y=data.y)
        settings = MlSettings(quad_order=60)
        assert neg_log_likelihood(0.4, padded, spec, settings) == neg_log_likelihood(
            0.4, data, spec, settings
        )

    def test_refinement_order_500_vs_1000(self):
        # benchmark-scale data, where large outputs give the integrand narrow
        # peaks; the windowed rule is converged well before order 500
        spec, data = make_data(0.2, 0.1, 1000, 29)
        worst = 0.0
        for theta in (-1.0, 0.0, 0.5, 1.0):
            l500 = neg_log_likelihood(theta, data, spec, MlSettings(quad_order=500))
            l1000 = neg_log_likelihood(theta, data, spec, MlSettings(quad_order=1000))
            worst = max(worst, abs(l500 - l1000) / abs(l1000))
        assert worst < 1e-6, f"order-500 vs order-1000 relative gap {worst:.3e}"


class TestMlSettings:
    @pytest.mark.parametrize("order", [2001, 50000])
    def test_quad_order_above_the_bound_rejected_when_built(self, order):
        with pytest.raises(ValueError, match=f"quad_order must be <= 2000, got {order}"):
            MlSettings(quad_order=order)

    def test_largest_quad_order_accepted(self):
        assert MlSettings(quad_order=2000).quad_order == 2000


class TestMlEstimate:
    def test_near_noise_free_recovery(self):
        spec, data = make_data(1e-12, 1e-6, 500, 30)
        report = ml_estimate(data, spec, MlSettings(quad_order=100))
        assert report.theta_hat[0] == pytest.approx(0.5, abs=1e-3)

    def test_paper_scale_single_run(self):
        spec, data = make_data(0.2, 0.1, 1000, 31)
        report = ml_estimate(data, spec, MlSettings(quad_order=200))
        assert abs(report.theta_hat[0] - 0.5) < 0.2


class TestSeededSearch:
    """run_method("ML") starts the likelihood search at II1_W's estimate."""

    @staticmethod
    def config(theta_o=0.5, realizations=10, master_seed=20260809):
        return ExperimentConfig(
            theta_o=theta_o, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
            input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=1000,
            realizations=realizations, methods=("ML",), master_seed=master_seed,
            desk_scale=True,
        )

    def test_matches_the_full_scan_at_desk_scale(self):
        config = self.config()
        settings = MlSettings(quad_order=DESK_ML_QUAD_ORDER)
        for r in range(config.realizations):
            record = make_record(config, r)
            seeded = run_method(config, "ML", record, r)
            full = ml_estimate(record, config.template(), settings)
            assert not seeded.diagnostics.fallback and not full.diagnostics.fallback
            assert abs(seeded.theta_hat[0] - full.theta_hat[0]) <= 2e-6
            assert seeded.diagnostics.iterations == 11
            assert full.diagnostics.iterations == 72

    @pytest.mark.parametrize("master_seed", [20260809, 20261017])
    def test_matches_a_dense_scan(self, master_seed):
        # against a 31-point scan of the bracket and scipy's Brent in its
        # cell, on the desk-scale likelihood of 20 realizations
        config = self.config(realizations=20, master_seed=master_seed)
        settings = MlSettings(quad_order=DESK_ML_QUAD_ORDER)
        for r in range(config.realizations):
            record = make_record(config, r)
            seeded = run_method(config, "ML", record, r)

            def cost(theta):
                return neg_log_likelihood(theta, record, config.template(), settings)

            reference = reference_argmin(cost, settings.optimizer.bracket, points=31)
            assert abs(seeded.theta_hat[0] - reference) <= 2e-6

    def test_start_at_bracket_edge_runs_the_full_scan(self):
        # theta0 = 4 lies outside [-3, 3]: II1_W stops at the edge with an
        # infinite predicted std, so ML keeps the unseeded search
        config = self.config(theta_o=4.0, realizations=1)
        record = make_record(config, 0)
        start = first_order_estimate(record, config.template(), config.input_kind)
        assert start.diagnostics.at_bracket_edge and start.predicted_std == np.inf
        seeded = run_method(config, "ML", record, 0)
        full = ml_estimate(record, config.template(), MlSettings(quad_order=DESK_ML_QUAD_ORDER))
        assert seeded.theta_hat[0] == full.theta_hat[0]
        assert seeded.diagnostics == full.diagnostics
        assert not seeded.diagnostics.fallback
