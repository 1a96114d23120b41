import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from wienerid.bench import (
    DESK_ML_QUAD_ORDER, ExperimentConfig, first_order_estimate, make_record, run_method,
)
from wienerid import ml
from wienerid.ml import MlSettings, QuadratureUnderflowError, ml_estimate, neg_log_likelihood
from wienerid.numerics import BRACKET, Estimate, NumericsError, _FLAT
from wienerid.pem import pem_estimate
from wienerid.signals import DistributionKind, gaussian_white, gen_white
from wienerid.system import (
    DataRecord, FirStructure, Nonlinearity, SystemSpec, cubic, identity, linear_output, paper_fir,
    simulate,
)

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


def fir_output(theta, data):
    """theta u(t) + u(t - 1), the paper FIR's output on data's input."""
    u_t, u_tm1 = data.regressors([0, 1]).T
    return theta * u_t + u_tm1


def log_term_oracle(theta, data, sigma_v2, sigma_e2, t):
    """Adaptive quadrature of one likelihood term (standard-normal measure)."""
    a = fir_output(theta, data)[t]
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
            a = fir_output(theta, data)
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
            a = fir_output(theta, data)
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
        nl = Nonlinearity(coeffs)
        spec, data = make_data(0.2, 0.1, 1000, 22, nl=nl)
        for theta in (-3.0, 0.5, 3.0):
            a = fir_output(theta, data)
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
        padded = paper_spec(nl=Nonlinearity([0.0, 1.0, 0.0, 0.0]))
        assert neg_log_likelihood(0.4, data, padded, settings) == pytest.approx(
            neg_log_likelihood(0.4, data, spec, settings), rel=1e-13
        )
        constant = paper_spec(nl=Nonlinearity([2.0]))
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
            a = fir_output(theta, data)
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

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_raises_value_error(self, theta):
        spec, data = make_data(0.2, 0.1, 50, 26)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta must be finite"):
                neg_log_likelihood(theta, data, spec, MlSettings(quad_order=100))

    @pytest.mark.parametrize("theta", [1e200, -1e200])
    def test_huge_theta_raises_without_a_warning(self, theta):
        # every term's window lies near a = 1e200 u: its sum underflows or
        # its squared center overflows, and no RuntimeWarning comes first
        spec, data = make_data(0.2, 0.1, 50, 26)
        settings = MlSettings(quad_order=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (neg_log_likelihood, ml._nll_derivatives):
                with pytest.raises(QuadratureUnderflowError) as excinfo:
                    call(theta, data, spec, settings)
                assert excinfo.value.theta == theta

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


def richardson_derivatives(cost, theta):
    """First and second central differences of cost at theta, from values at
    h = 1e-3 and 2e-3 only, each with one Richardson step."""
    f0 = cost(theta)
    fp1, fm1, fp2, fm2 = (cost(theta + h) for h in (1e-3, -1e-3, 2e-3, -2e-3))
    first = (4 * (fp1 - fm1) / 2e-3 - (fp2 - fm2) / 4e-3) / 3
    second = (4 * (fp1 - 2 * f0 + fm1) / 1e-6 - (fp2 - 2 * f0 + fm2) / 4e-6) / 3
    return first, second


class TestExactDerivatives:
    """The likelihood's score and observed information from the quadrature
    nodes of one evaluation (ml._nll_derivatives)."""

    @pytest.mark.parametrize("order", [200, 1000])
    @pytest.mark.parametrize("nl", [cubic(), identity(), Nonlinearity([0.0, 1.0, 0.0, 0.5])],
                             ids=["cube", "identity", "polynomial"])
    def test_match_richardson_differences(self, nl, order):
        # the polynomial's windows come from _level_set_hull
        spec, data = make_data(0.2, 0.1, 300, 41, nl=nl)
        settings = MlSettings(quad_order=order)

        def cost(theta):
            return neg_log_likelihood(theta, data, spec, settings)

        for theta in (-1.0, 0.3, 0.5, 0.9):
            value, score, information = ml._nll_derivatives(theta, data, spec, settings)
            first, second = richardson_derivatives(cost, theta)
            assert value == pytest.approx(cost(theta), rel=1e-14)
            assert score == pytest.approx(first, abs=1e-9 * max(1.0, abs(first)))
            assert information == pytest.approx(second, rel=1e-8)

    def test_identity_matches_closed_form(self):
        # identity f: the negative log-likelihood is sum (y - a)^2 / (2 s2),
        # s2 = sigma_v2 + sigma_e2, up to a constant
        spec, data = make_data(0.2, 0.1, 300, 41, nl=identity())
        u, u_tm1 = data.regressors([0, 1]).T
        for theta in (-1.0, 0.5, 0.9):
            _, score, information = ml._nll_derivatives(theta, data, spec, MlSettings(200))
            residual = data.y - theta * u - u_tm1
            assert score == pytest.approx(-np.sum(u * residual) / 0.3, rel=1e-11, abs=1e-11)
            assert information == pytest.approx(np.sum(u * u) / 0.3, rel=1e-11)

    @pytest.mark.parametrize("master_seed", [20260809, 20261017])
    def test_newton_estimate_is_stationary(self, master_seed):
        # the Richardson score at the estimate, over the information, is the
        # distance to the stationary point that the differences see; the
        # former interpolant's estimates were up to 3.2e-8 off
        config = TestSeededSearch.config(realizations=8, master_seed=master_seed)
        settings = MlSettings(quad_order=DESK_ML_QUAD_ORDER)
        for r in range(config.realizations):
            record = make_record(config, r)
            est = run_method(config, "ML", record, r)
            assert not est.diagnostics.fallback

            def cost(theta):
                return neg_log_likelihood(theta, record, config.template(), settings)

            first, second = richardson_derivatives(cost, est.theta_hat[0])
            assert abs(first / second) <= 3e-12, f"realization {r}"


class TestNewtonSafeguards:
    """ml_estimate hands over to the bracket scan when the seeded Newton
    cannot go on: the result is the scan path's, with fallback set and the
    seeded Newton's evaluations added."""

    def test_window_without_the_minimum(self):
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=200)
        newton = ml_estimate(data, spec, settings, start=Estimate(np.array([0.5]), 0.05))
        assert not newton.diagnostics.fallback
        # +- 6 stds of 0.01 around 1.5 excludes the minimum near 0.5: the
        # first Newton step leaves the window
        seed = newton.theta_hat[0] + 1.0
        est = ml_estimate(data, spec, settings, start=Estimate(np.array([seed]), 0.01))
        scan = ml_estimate(data, spec, settings)
        assert est.theta_hat[0] == scan.theta_hat[0]
        assert abs(est.theta_hat[0] - newton.theta_hat[0]) <= 1e-11
        # one evaluation each for the coarse and the configured-order Newton
        assert est.diagnostics == dataclasses.replace(
            scan.diagnostics, iterations=scan.diagnostics.iterations + 2, fallback=True
        )

    def test_non_positive_information(self, monkeypatch):
        # Newton gives up from the seed and again in the scan's cell
        spec, data = make_data(0.2, 0.1, 300, 42)
        exact = ml._nll_derivatives

        def concave(theta, *args):
            value, score, information = exact(theta, *args)
            return value, score, -information

        monkeypatch.setattr(ml, "_nll_derivatives", concave)
        with pytest.raises(NumericsError, match="scan cell"):
            ml_estimate(data, spec, MlSettings(quad_order=200), start=Estimate(np.array([0.45]), 0.05))

    def test_window_clipped_at_the_bracket(self):
        start = Estimate(np.array([2.9]), 0.05)
        assert ml._window(start, -3.0, 3.0) == pytest.approx((2.6, 3.0), abs=1e-15)
        assert ml._window(start, -3.0, 3.0)[1] == 3.0
        assert ml._window(Estimate(np.array([-2.9]), 0.05), -3.0, 3.0)[0] == -3.0

    def test_stops_at_a_bracket_end_whose_step_points_out(self):
        # (t - 5)^2 from t = 3 on the bracket [-3, 3]: the step +2 leaves it
        result, evals = ml._newton(
            lambda t: ((t - 5.0) ** 2, 2 * (t - 5.0), 2.0), 3.0, (2.0, 3.0), (-3.0, 3.0))
        assert evals == 1 and result.argmin == 3.0 and result.at_bracket_edge
        # the same point inside a wider bracket is only a window edge
        assert ml._newton(
            lambda t: ((t - 5.0) ** 2, 2 * (t - 5.0), 2.0), 3.0, (2.0, 3.0), (-4.0, 4.0)) == (None, 1)

    def test_halves_a_step_on_which_the_cost_rises(self):
        # sqrt(1 + t^2): the Newton step from t = 2 is -10, to a larger cost
        # at t = -8 and at t = -3; the second halving lands at t = -0.5
        visited = []

        def pseudo_huber(t):
            visited.append(t)
            root = math.sqrt(1.0 + t * t)
            return root, t / root, root**-3

        result, evals = ml._newton(pseudo_huber, 2.0, (-20.0, 20.0), (-20.0, 20.0))
        assert visited[:4] == pytest.approx([2.0, -8.0, -3.0, -0.5], abs=1e-12)
        assert evals == len(visited) <= ml._NEWTON_EVALS
        assert abs(result.argmin) <= 1e-12 and result.iterations == evals

    @pytest.mark.parametrize("cost, start, evals", [
        # t^4: each step goes a third of the way, so the cap ends the search
        (lambda t: (t**4, 4 * t**3, 12 * t**2), 1.0, ml._NEWTON_EVALS),
        # |t| from 0 with a step of 1: the cost rises on every halving
        (lambda t: (abs(t), -1.0, 1.0), 0.0, ml._HALVINGS + 2),
        # a step that leaves the window
        (lambda t: ((t - 5.0) ** 2, 2 * (t - 5.0), 2.0), 0.0, 1),
        # a score that is not finite, and information that is not positive
        (lambda t: (0.0, math.nan, 1.0), 0.0, 1),
        (lambda t: (0.0, 1.0, 0.0), 0.0, 1),
    ], ids=["eval-cap", "halving-cap", "window", "score", "information"])
    def test_gives_up(self, cost, start, evals):
        assert ml._newton(cost, start, (-2.0, 2.0), (-3.0, 3.0)) == (None, evals)


def underflow(value):
    raise QuadratureUnderflowError(0.0, [1])


class TestCoarseStage:
    """ml_estimate runs Newton on rules of doubling order, from ml.COARSE_ORDER
    up to the configured order, the cap, each stage from the argmin of the
    one before.  It stops at the first stage after the first whose Newton
    stops at its first evaluation, within 16 ulps of the stage before's
    likelihood there."""

    SEED = (0.45, 0.05)

    @staticmethod
    def counting(monkeypatch, perturb=None):
        """Patch ml._nll_derivatives to record each evaluation's order; an
        evaluation returns perturb(theta, order, its exact value)."""
        exact, orders = ml._nll_derivatives, []

        def derivatives(theta, data, spec, settings):
            orders.append(settings.quad_order)
            value = exact(theta, data, spec, settings)
            return value if perturb is None else perturb(theta, settings.quad_order, value)

        monkeypatch.setattr(ml, "_nll_derivatives", derivatives)
        return orders

    def start(self):
        return Estimate(np.array([self.SEED[0]]), self.SEED[1])

    def configured_newton(self, data, spec, settings):
        """_newton at the configured order alone, from SEED."""
        return ml._newton(
            lambda t: ml._nll_derivatives(t, data, spec, settings),
            self.SEED[0], ml._window(self.start(), *BRACKET), BRACKET,
        )

    @staticmethod
    def within_tolerance(search):
        return search.quad_change <= _FLAT * abs(search.min_value)

    @pytest.mark.parametrize("order", [40, ml.COARSE_ORDER])
    def test_single_stage_at_or_below_the_coarse_order(self, order, monkeypatch):
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=order)
        today, evals = self.configured_newton(data, spec, settings)
        orders = self.counting(monkeypatch)
        est = ml_estimate(data, spec, settings, start=self.start())
        assert est.theta_hat[0] == today.argmin and math.isnan(est.diagnostics.quad_change)
        assert dataclasses.replace(est.diagnostics, quad_change=None) == dataclasses.replace(
            today, quad_order=order)
        assert orders == [order] * evals

    @pytest.mark.parametrize("coarse", [
        underflow,
        lambda value: (value[0], value[1], -value[2]),
    ], ids=["underflow", "information"])
    def test_coarse_stage_that_gives_up(self, coarse, monkeypatch):
        # the order-200 Newton then runs from the seed itself, and with no
        # order-COARSE_ORDER value at its argmin it states no accuracy
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=200)
        today, evals = self.configured_newton(data, spec, settings)
        orders = self.counting(
            monkeypatch, lambda t, order, value: coarse(value) if order == ml.COARSE_ORDER else value)
        est = ml_estimate(data, spec, settings, start=self.start())
        assert today is not None and not est.diagnostics.fallback
        assert est.theta_hat[0] == today.argmin
        assert est.diagnostics == dataclasses.replace(
            today, iterations=evals + 1, quad_order=200, quad_change=math.inf)
        assert orders == [ml.COARSE_ORDER] + [200] * evals

    @pytest.mark.parametrize("master_seed", [20260809, 20261017])
    def test_cap_1000_ends_at_order_200(self, master_seed, monkeypatch):
        # on the paper's system order 200 confirms the order-COARSE_ORDER
        # argmin, and the estimate is that of cap 200 to the last bit
        config = TestSeededSearch.config(realizations=4, master_seed=master_seed)
        template = config.template()
        orders = self.counting(monkeypatch)
        for r in range(config.realizations):
            record = make_record(config, r)
            start = first_order_estimate(record, template, config.input_kind)
            orders.clear()
            est = ml_estimate(record, template, MlSettings(quad_order=1000), start=start)
            k = orders.count(ml.COARSE_ORDER)
            assert orders == [ml.COARSE_ORDER] * k + [200] and k >= 2, f"realization {r}"
            search = est.diagnostics
            assert search.quad_order == 200 and self.within_tolerance(search)
            assert search.iterations == len(orders) and not search.fallback
            capped = ml_estimate(record, template, MlSettings(quad_order=200), start=start)
            assert est.theta_hat[0] == capped.theta_hat[0] and search == capped.diagnostics

    @pytest.mark.parametrize("perturb, moves", [
        # a constant off the likelihood at order COARSE_ORDER: the order-200
        # Newton stops at its first evaluation, 1e-6 away
        (lambda t, value: (value[0] + 1e-6, *value[1:]), False),
        # a minimum shifted by 1e-4 / information: the order-200 Newton moves
        (lambda t, value: (value[0] + 1e-4 * t, value[1] + 1e-4, value[2]), True),
        # a score whose root is 1e-9 off: the order-200 Newton moves, and
        # the likelihood by far less than 16 ulps
        (lambda t, value: (value[0], value[1] + 1e-9 * value[2], value[2]), True),
    ], ids=["offset", "shifted_minimum", "nudged_minimum"])
    def test_coarse_rule_off_doubles_to_400(self, perturb, moves, monkeypatch):
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=1000)
        exact = ml_estimate(data, spec, settings, start=self.start())
        orders = self.counting(
            monkeypatch, lambda t, order, value: perturb(t, value) if order == ml.COARSE_ORDER else value)
        est = ml_estimate(data, spec, settings, start=self.start())
        search = est.diagnostics
        assert orders[-1] == 400 and orders.count(400) == 1
        assert (orders.count(200) > 1) == moves and 200 in orders
        assert search.quad_order == 400 and self.within_tolerance(search)
        assert search.iterations == len(orders)
        assert abs(est.theta_hat[0] - exact.theta_hat[0]) <= 1e-11
        assert search.min_value == neg_log_likelihood(
            est.theta_hat[0], data, spec, MlSettings(quad_order=400))

    def test_perturbation_below_the_cap_ends_at_the_cap(self, monkeypatch):
        # each order below the cap off by its own constant: no stage passes,
        # and the fit ends at the cap with its |change| above the tolerance
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=1000)
        exact = ml_estimate(data, spec, settings, start=self.start())
        orders = self.counting(
            monkeypatch,
            lambda t, order, value: value if order == 1000 else (value[0] + 1e-9 * order, *value[1:]))
        est = ml_estimate(data, spec, settings, start=self.start())
        search = est.diagnostics
        k = orders.count(ml.COARSE_ORDER)
        assert orders == [ml.COARSE_ORDER] * k + [200, 400, 800, 1000]
        assert search.quad_order == 1000 and not self.within_tolerance(search)
        assert search.quad_change == pytest.approx(8e-7, rel=1e-3)
        assert est.theta_hat[0] == exact.theta_hat[0]
        assert search.min_value == neg_log_likelihood(est.theta_hat[0], data, spec, settings)

    def test_scan_runs_on_the_first_stage_rule(self, monkeypatch):
        # at cap 1000 the 61 grid values are order-COARSE_ORDER likelihoods,
        # and a degenerate scan (u = 0) reports its order and no change
        spec, data = make_data(0.2, 0.1, 300, 42)
        value, scanned = ml.neg_log_likelihood, []
        monkeypatch.setattr(ml, "neg_log_likelihood",
                            lambda t, d, s, settings: scanned.append(settings.quad_order)
                            or value(t, d, s, settings))
        settings = MlSettings(quad_order=1000)
        assert ml_estimate(data, spec, settings).diagnostics.quad_order == 200
        assert scanned == [ml.COARSE_ORDER] * ml.GRID_POINTS
        flat = DataRecord(u=np.zeros_like(data.u), y=data.y)
        search = ml_estimate(flat, spec, settings).diagnostics
        assert search.degenerate and search.quad_order == ml.COARSE_ORDER
        assert math.isnan(search.quad_change)
        assert search.min_value == value(0.0, flat, spec, MlSettings(quad_order=ml.COARSE_ORDER))

    @pytest.mark.parametrize("master_seed", [20260809, 20261017])
    def test_stated_accuracy_holds_against_order_1000(self, master_seed):
        # the likelihood at the estimate, at the order a desk fit ends on,
        # is within the 16 ulps it states of the same likelihood at order 1000
        config = TestSeededSearch.config(realizations=10, master_seed=master_seed)
        for r in range(config.realizations):
            record = make_record(config, r)
            search = run_method(config, "ML", record, r).diagnostics
            fine = neg_log_likelihood(search.argmin, record, config.template(), MlSettings(1000))
            assert search.quad_order == DESK_ML_QUAD_ORDER and self.within_tolerance(search)
            assert abs(search.min_value - fine) <= _FLAT * abs(fine), f"realization {r}"

    @pytest.mark.parametrize("master_seed", [20260809, 20261017])
    def test_order_1000_estimate_is_stationary(self, master_seed, monkeypatch):
        # the Richardson test of test_newton_estimate_is_stationary on the
        # order-1000 likelihood, at the estimate of cap 1000
        config = dataclasses.replace(
            TestSeededSearch.config(realizations=2, master_seed=master_seed), desk_scale=False)
        settings = MlSettings(quad_order=config.ml_quad_order)
        assert settings.quad_order == 1000
        orders = self.counting(monkeypatch)
        for r in range(config.realizations):
            orders.clear()
            record = make_record(config, r)
            est = run_method(config, "ML", record, r)
            assert not est.diagnostics.fallback
            assert est.diagnostics.quad_order == orders[-1] == 200 and 1000 not in orders
            assert est.diagnostics.iterations == len(orders)

            def cost(theta):
                return neg_log_likelihood(theta, record, config.template(), settings)

            first, second = richardson_derivatives(cost, est.theta_hat[0])
            assert abs(first / second) <= 3e-12, f"realization {r}"


class TestRowBlocks:
    """The likelihood terms and their posterior mean and variance of s do
    not depend on how many rows ml._log_terms integrates per block."""

    @pytest.mark.parametrize("order", [40, 100, 200, 1000])
    @pytest.mark.parametrize("nl", [cubic(), identity(), Nonlinearity([0.0, 1.0, 0.0, 0.5])],
                             ids=["cube", "identity", "polynomial"])
    def test_blocks_never_change_a_bit(self, nl, order, monkeypatch):
        spec, data = make_data(0.2, 0.1, 300, 41, nl=nl)
        a = linear_output(spec.fir, [0.5], data.u)[-data.n_obs:]
        settings = MlSettings(quad_order=order)
        default = ml._log_terms(data.y, a, spec, settings)
        assert all(np.all(np.isfinite(out)) for out in default)
        # blocks of 1 and 7 rows round up to ROW_ALIGN, and 304 rows take
        # the whole record (N = 300) in one block
        for rows in (1, 7, 16, 160, 304):
            monkeypatch.setattr(ml, "ROW_ELEMENTS", rows * order)
            got = ml._log_terms(data.y, a, spec, settings)
            assert len(got) == 3
            for name, out, want in zip(("terms", "mean", "variance"), got, default, strict=True):
                assert np.array_equal(out, want), f"{name}, {rows} rows"


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

    def test_two_free_lags_rejected(self):
        spec, data = make_data(0.2, 0.1, 50, 32)
        spec.fir, spec.theta = FirStructure(free_lags=(0, 1)), np.array([0.5, 1.0])
        with pytest.raises(ValueError, match="^scalar search supports exactly one free coefficient$"):
            ml_estimate(data, spec, MlSettings(quad_order=100))

    def test_paper_scale_single_run(self):
        spec, data = make_data(0.2, 0.1, 1000, 31)
        report = ml_estimate(data, spec, MlSettings(quad_order=200))
        assert abs(report.theta_hat[0] - 0.5) < 0.2

    def test_zero_process_noise_is_unweighted_pem(self, monkeypatch):
        # the likelihood is sum (y - f(a))^2 / (2 sigma_e^2): no integral,
        # no likelihood evaluation, and the unweighted PEM's argmin
        spec, data = make_data(0.2, 0.1, 300, 21)
        spec.sigma_v2 = 0.0
        settings = MlSettings(quad_order=200)
        monkeypatch.setattr(ml, "_nll_derivatives", None)  # never called
        monkeypatch.setattr(ml, "neg_log_likelihood", None)
        for start in (None, Estimate(np.array([0.45]), 0.05)):
            est = ml_estimate(data, spec, settings, start=start)
            pem = pem_estimate(data, spec, weighted=False)
            assert est.theta_hat[0] == pem.theta_hat[0] and est.diagnostics == pem.diagnostics
        spec.sigma_e2 = 0.0
        with pytest.raises(ValueError, match="sigma_e2 must be positive"):
            ml_estimate(data, spec, settings)

    @pytest.mark.parametrize("path", ["seeded", "fallback", "scan"])
    def test_min_value_is_the_likelihood_at_the_estimate(self, path):
        # Newton, the scan and neg_log_likelihood share one (nodes, 3) weight
        # product, so every path reports the likelihood's own bits, at the
        # order its last stage ran on: 200, below the cap of 1000
        spec, data = make_data(0.2, 0.1, 300, 42)
        start = {"seeded": Estimate(np.array([0.45]), 0.05),
                 "fallback": Estimate(np.array([1.45]), 0.01), "scan": None}[path]
        est = ml_estimate(data, spec, MlSettings(quad_order=1000), start=start)
        search = est.diagnostics
        assert search.fallback == (path == "fallback") and search.quad_order == 200
        assert search.quad_change <= _FLAT * abs(search.min_value)
        assert search.min_value == neg_log_likelihood(
            est.theta_hat[0], data, spec, MlSettings(quad_order=200))

    @pytest.mark.parametrize("realization", [4, 7, 12, 14])
    def test_min_value_is_the_likelihood_on_desk_records(self, realization):
        # desk records whose min_value a (nodes,) weight vector in
        # neg_log_likelihood missed by one ulp
        config = TestSeededSearch.config(realizations=20)
        record = make_record(config, realization)
        est = run_method(config, "ML", record, realization)
        settings = MlSettings(quad_order=DESK_ML_QUAD_ORDER)
        want = neg_log_likelihood(est.theta_hat[0], record, config.template(), settings)
        assert est.diagnostics.min_value == want


def symmetric_cost(theta):
    """min((theta + 2)^2, (theta - 1)^2) with its score and information:
    two minima of value 0, at grid points -2 and 1 of the 61-point scan."""
    if theta < -0.5:
        return (theta + 2.0) ** 2, 2.0 * (theta + 2.0), 2.0
    return (theta - 1.0) ** 2, 2.0 * (theta - 1.0), 2.0


class TestScanPath:
    """Without a usable start, ml_estimate takes the likelihood at 61
    points of the bracket and runs Newton from the smallest value inside
    the grid cell around it."""

    @pytest.mark.parametrize("start", [
        (math.nan, 0.1), (0.3, math.nan), (math.inf, 0.1), (0.3, math.inf),
        (0.3, 0.0), (0.3, -0.1), (3.5, 0.1), (-3.01, 0.1), (0.3, 1e-300),
    ])
    def test_unusable_start_is_ignored(self, start):
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=40)
        scan = ml_estimate(data, spec, settings)
        assert ml._window(Estimate(np.array([start[0]]), start[1]), -3.0, 3.0) is None
        est = ml_estimate(data, spec, settings, start=Estimate(np.array([start[0]]), start[1]))
        assert est.theta_hat[0] == scan.theta_hat[0] and est.diagnostics == scan.diagnostics
        assert not est.diagnostics.fallback

    def test_likelihood_on_the_grid_then_newton_in_one_cell(self, monkeypatch):
        spec, data = make_data(0.2, 0.1, 300, 42)
        settings = MlSettings(quad_order=200)
        values, newton = [], []
        value, derivatives = ml.neg_log_likelihood, ml._nll_derivatives
        monkeypatch.setattr(ml, "neg_log_likelihood", lambda t, *a: values.append(t) or value(t, *a))
        monkeypatch.setattr(ml, "_nll_derivatives", lambda t, *a: newton.append(t) or derivatives(t, *a))
        est = ml_estimate(data, spec, settings)
        grid = np.linspace(-3.0, 3.0, ml.GRID_POINTS)
        np.testing.assert_array_equal(values, grid)
        # Newton starts at the grid minimum and stays in its cell
        i = int(np.argmin([value(t, data, spec, settings) for t in grid]))
        assert newton[0] == grid[i] and all(grid[i - 1] <= t <= grid[i + 1] for t in newton)
        assert est.diagnostics.iterations == ml.GRID_POINTS + len(newton)
        assert not est.diagnostics.at_bracket_edge and not est.diagnostics.degenerate

    def test_interior_minimum_not_at_edge(self, monkeypatch):
        # a bowl at 2.94: the grid minimum 2.9 is next to the end 3.0, and
        # Newton leaves it for the interior point
        def bowl(theta, *args):
            return (theta - 2.94) ** 2, 2.0 * (theta - 2.94), 2.0

        spec, data = make_data(0.2, 0.1, 50, 26)
        monkeypatch.setattr(ml, "neg_log_likelihood", lambda t, *a: bowl(t)[0])
        monkeypatch.setattr(ml, "_nll_derivatives", bowl)
        est = ml_estimate(data, spec, MlSettings(quad_order=200))
        assert est.theta_hat[0] == pytest.approx(2.94, abs=1e-12)
        assert not est.diagnostics.at_bracket_edge and not est.diagnostics.degenerate

    def test_non_finite_cost_reports_point(self, monkeypatch):
        # a likelihood that fails only above theta = 1 raises at the first
        # grid point there, and the error names that point
        spec, data = make_data(0.2, 0.1, 50, 26)
        value = ml.neg_log_likelihood

        def failing_above_one(theta, *args):
            if theta > 1.0:
                raise QuadratureUnderflowError(theta, [1])
            return value(theta, *args)

        monkeypatch.setattr(ml, "neg_log_likelihood", failing_above_one)
        with pytest.raises(QuadratureUnderflowError) as excinfo:
            ml_estimate(data, spec, MlSettings(quad_order=100))
        grid = np.linspace(-3.0, 3.0, ml.GRID_POINTS)
        assert excinfo.value.theta == grid[grid > 1.0][0] and excinfo.value.time_indices == [1]

    def test_constant_cost_flagged_degenerate(self):
        # sigma_u2 = 0: u = 0 leaves theta out of the likelihood
        config = dataclasses.replace(TestSeededSearch.config(realizations=1), sigma_u2=0.0)
        record = make_record(config, 0)
        est = ml_estimate(record, config.template(), MlSettings(quad_order=DESK_ML_QUAD_ORDER))
        assert est.theta_hat[0] == 0.0
        assert est.diagnostics.degenerate and est.diagnostics.iterations == ml.GRID_POINTS == 61
        assert not est.diagnostics.at_bracket_edge and not est.diagnostics.fallback

    def test_non_finite_cost_reports_first_grid_point_in_bracket_order(self):
        spec, data = make_data(0.2, 0.1, 50, 26)
        data.y[7] = 1e200
        with pytest.raises(QuadratureUnderflowError) as excinfo:
            ml_estimate(data, spec, MlSettings(quad_order=100))
        assert excinfo.value.theta == -3.0 and excinfo.value.time_indices == [8]

    def test_boundary_minimum(self):
        # theta0 = 4 lies outside [-3, 3]: II1_W stops at the edge with an
        # infinite predicted std, the scan's minimum is the end 3.0, and
        # each Newton stage stops there at its first evaluation
        config = TestSeededSearch.config(theta_o=4.0, realizations=1)
        est = run_method(config, "ML", make_record(config, 0), 0)
        assert est.theta_hat[0] == 3.0 and est.diagnostics.at_bracket_edge
        assert not est.diagnostics.fallback and est.diagnostics.iterations == 63

    def test_symmetric_tie_prefers_smaller_magnitude(self, monkeypatch):
        spec, data = make_data(0.2, 0.1, 50, 26)
        monkeypatch.setattr(ml, "neg_log_likelihood", lambda t, *a: symmetric_cost(t)[0])
        monkeypatch.setattr(ml, "_nll_derivatives", lambda t, *a: symmetric_cost(t))
        est = ml_estimate(data, spec, MlSettings(quad_order=200))
        assert est.theta_hat[0] == 1.0 and est.diagnostics.min_value == 0.0

    def test_newton_that_gives_up_in_the_cell_raises(self, monkeypatch):
        spec, data = make_data(0.2, 0.1, 300, 42)
        exact = ml._nll_derivatives
        monkeypatch.setattr(ml, "_nll_derivatives", lambda *a: (*exact(*a)[:2], -1.0))
        grid = np.linspace(-3.0, 3.0, ml.GRID_POINTS)
        settings = MlSettings(quad_order=200)
        i = int(np.argmin([neg_log_likelihood(t, data, spec, settings) for t in grid]))
        cell = rf"\[{grid[i - 1]}, {grid[i + 1]}\]"
        with pytest.raises(NumericsError, match=f"scan cell {cell}$"):
            ml_estimate(data, spec, settings)


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

    def test_matches_the_full_scan_at_desk_scale(self, monkeypatch):
        config = self.config()
        settings = MlSettings(quad_order=DESK_ML_QUAD_ORDER)
        exact, newton = ml._nll_derivatives, []
        monkeypatch.setattr(ml, "_nll_derivatives", lambda *a: newton.append(1) or exact(*a))
        for r in range(config.realizations):
            record = make_record(config, r)
            seeded = run_method(config, "ML", record, r)
            newton.clear()
            full = ml_estimate(record, config.template(), settings)
            assert not seeded.diagnostics.fallback and not full.diagnostics.fallback
            assert abs(seeded.theta_hat[0] - full.theta_hat[0]) <= 1e-11
            assert seeded.diagnostics.iterations <= ml._NEWTON_EVALS
            assert full.diagnostics.iterations == ml.GRID_POINTS + len(newton)

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

            reference = reference_argmin(cost, BRACKET, points=31)
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
