import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerid import bench
from wienerid.bla import BlaEstimate, _condition, estimate_weighting, fit_bla
from wienerid.indirect import FIRST_ORDER_LAGS, ZERO_ORDER_LAGS
from wienerid.numerics import RankDeficiencyError
from wienerid.signals import DistributionKind, gaussian_white, gen_white, uniform_white
from wienerid.system import DataRecord, SystemSpec, cubic, identity, paper_fir, simulate

from stack_checks import assert_rows_are_their_own_calls


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


def tiny_output(scale):
    """A record of N = 1000 standard-normal u and e, with y = scale * e."""
    rng = np.random.default_rng(0)
    return DataRecord(u=rng.standard_normal(1001), y=scale * rng.standard_normal(1000))


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
        # 15% of the observed variance of the fitted coefficients.  The records
        # are fitted in stacks of `chunk`, each row bit for bit its record's
        # own fit (TestStack)
        reps, chunk = 500, 5
        n = 10**5
        betas = np.empty((reps, 2))
        cov_diags = np.empty((reps, 2))
        for start in range(0, reps, chunk):
            records = [make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), n, seed=60000 + r)[1]
                       for r in range(start, start + chunk)]
            est = estimate_weighting(records, fit_bla(records, lags=(0, 1)))
            betas[start:start + chunk] = est.beta_hat
            cov_diags[start:start + chunk] = np.diagonal(est.cov_beta, axis1=1, axis2=2)
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

    def test_constant_input_has_singular_curvature(self):
        # both regressor columns equal: J_hat is singular
        data = DataRecord(u=np.ones(101), y=np.linspace(0.0, 1.0, 100))
        est = BlaEstimate(
            beta_hat=np.array([0.5, 0.5]), lags=(0, 1), residuals=np.ones(100), n_obs=100
        )
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            estimate_weighting(data, est)

    def test_overflowing_residuals_raise_naming_i_hat(self):
        # residuals near 1e160 have squares past the largest double
        u = gen_white(gaussian_white(1 / 3), 201, 3, path=(0,))
        data = DataRecord(u=u, y=np.where(np.arange(200) % 2, 1e160, -1e160))
        # the typed error alone reports the overflow: numpy warns of nothing
        with warnings.catch_warnings(), \
                pytest.raises(np.linalg.LinAlgError, match="I_hat is not finite"):
            warnings.simplefilter("error", RuntimeWarning)
            estimate_weighting(data, fit_bla(data, lags=(0, 1)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lags", [(0, 1), (0,)])
    def test_subnormal_input_squares_raise_naming_cov_beta(self, lags):
        # u of 1e-160 has squares below the smallest normal double, so
        # J_hat's inverse overflows: a typed error, not a NaN W, or an
        # infinite cov_beta beside a zero W
        _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), 200, 4)
        tiny = DataRecord(u=data.u * 1e-160, y=data.y)
        with pytest.raises(np.linalg.LinAlgError, match="cov_beta is not finite"):
            estimate_weighting(tiny, fit_bla(tiny, lags))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lags", [(0, 1), (0,)])
    def test_subnormal_residual_squares_raise_naming_w(self, lags):
        # residuals of about 1e-155 have subnormal squares, so cov_beta is
        # subnormal and the inverse of N cov_beta overflows: a typed error,
        # not a W of +-inf
        data = tiny_output(1e-155)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^W is not finite \(the inverse of N cov_beta overflows\)"):
            estimate_weighting(data, fit_bla(data, lags))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lags", [(0, 1), (0,)])
    def test_underflowing_residual_squares_named(self, lags):
        # residuals of about 1e-162 square to zero: I_hat is zero because
        # the squares underflow, though the residuals are not all zero
        data = tiny_output(1e-162)
        assert fit_bla(data, lags).residuals.all()
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^I_hat is zero \(squared residuals underflow\)$"):
            estimate_weighting(data, fit_bla(data, lags))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, message", [
        (1e-155, "W is not finite (the inverse of N cov_beta overflows)"),
        (1e-162, "I_hat is zero (squared residuals underflow)"),
    ], ids=["subnormal-squares", "underflowing-squares"])
    def test_run_method_outcomes_on_tiny_outputs(self, scale, message):
        # the indirect methods, at both lag sets, fail with the weighting's
        # error; ML, whose II1_W start fails, scans the bracket, and PEM_W
        # reads no weighting
        config = bench.ExperimentConfig(
            theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
            input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=1000, desk_scale=True)
        data = tiny_output(scale)
        for method in ("II0", "II1_UNW", "II1_W"):
            with pytest.raises(np.linalg.LinAlgError, match=f"^{re.escape(message)}"):
                bench.run_method(config, method, data)
        ml = bench.run_method(config, "ML", data)
        assert np.isfinite(ml.theta_hat[0]) and ml.diagnostics.iterations >= 61
        assert np.isfinite(bench.run_method(config, "PEM_W", data).theta_hat[0])

    @given(
        log_cond=st.floats(0.0, 12.0), angle=st.floats(0.0, np.pi),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_condition_matches_svd_condition(self, log_cond, angle, scale):
        # the eigenvalue ratio against numpy's SVD condition number on
        # symmetric positive definite 2 x 2 matrices up to the ridge limit;
        # the rounded entries leave both uncertain by about cond * eps
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        sym = scale * rot @ np.diag([1.0, 10.0**-log_cond]) @ rot.T
        sym = 0.5 * (sym + sym.T)
        reference = np.linalg.cond(sym)
        tol = 16.0 * np.finfo(float).eps * reference + 1e-12
        assert _condition(sym) == pytest.approx(reference, rel=tol)

    def test_condition_of_an_indefinite_matrix_is_infinite(self):
        assert _condition(np.array([[1.0, 0.0], [0.0, -1e-20]])) == np.inf
        assert _condition(np.zeros((2, 2))) == np.inf


class TestStack:
    """fit_bla and estimate_weighting on a stack of records: each row bit
    for bit the stack of one of its record."""

    @staticmethod
    def records(kind, count):
        config = bench.ExperimentConfig(
            theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3, input_kind=kind,
            n_obs=300, realizations=count, master_seed=20260809,
        )
        return [bench.make_record(config, r) for r in range(count)]

    @staticmethod
    def weighted(data, lags=FIRST_ORDER_LAGS):
        return estimate_weighting(data, fit_bla(data, lags))

    def assert_contract(self, records, lags=FIRST_ORDER_LAGS):
        """The weighted fit of the stack, row by row against the calls on
        each record alone."""
        stack = self.weighted(records, lags)
        assert_rows_are_their_own_calls(stack, [lambda r=r: self.weighted(r, lags)
                                                for r in records])
        return stack

    @pytest.mark.parametrize("kind", list(DistributionKind))
    @pytest.mark.parametrize("count", [1, 2, bench.CHUNK, bench.CHUNK + 1])
    def test_rows_are_their_stack_of_one(self, kind, count):
        stack = self.assert_contract(self.records(kind, count))
        assert stack.errors == [None] * count

    def test_failing_rows_carry_their_own_errors(self):
        # u = 0 on row 1, one y = 1e200 on row 3 and y = 0 on row 4 (zero
        # residuals: a zero I_hat, refused before any ridge, so no warning):
        # each row gets the error its own call raises, and the other rows
        # are their stack of one
        records = self.records(DistributionKind.GAUSSIAN_WHITE, 6)
        records[1] = DataRecord(u=np.zeros_like(records[1].u), y=records[1].y)
        y = records[3].y.copy()
        y[5] = 1e200
        records[3] = DataRecord(u=records[3].u, y=y)
        records[4] = DataRecord(u=records[4].u, y=np.zeros_like(y))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            stack = self.assert_contract(records)
        failed = ~stack.errors.ok
        assert np.isnan(stack.W[failed]).all() and np.isnan(stack.cov_beta[failed]).all()
        assert not stack.ridge_applied.any()
        expected = [None, "RankDeficiencyError: rank-deficient", None,
                    "LinAlgError: I_hat is not finite",
                    "LinAlgError: I_hat is zero (the fit's residuals are all zero)", None]
        for error, want in zip(stack.errors, expected, strict=True):
            message = f"{type(error).__name__}: {error}"
            assert error is None if want is None else message.startswith(want)

    @given(lags=st.sampled_from([ZERO_ORDER_LAGS, FIRST_ORDER_LAGS]), n=st.integers(3, 12),
           seed=st.integers(0, 2**32 - 1),
           poison=st.lists(st.one_of(st.none(), st.sampled_from([
               "u = 0", "y = 1e200", "y = 0", "u * 1e-160", "y * 1e-155"])), min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @pytest.mark.filterwarnings("ignore:I_hat ill-conditioned:UserWarning")
    def test_rows_are_their_own_calls_on_random_stacks(self, lags, n, seed, poison):
        # stacks of 1-7 short random records, some rows poisoned, at both
        # orders of the auxiliary fit; a ridged row is compared by its flag
        rng = np.random.default_rng(seed)
        records = []
        for bad in poison:
            u, y = rng.normal(size=n + 1), rng.normal(size=n)
            if bad == "u = 0":
                u[:] = 0.0
            elif bad == "y = 1e200":
                y[rng.integers(n)] = 1e200
            elif bad == "y = 0":
                y[:] = 0.0
            elif bad == "u * 1e-160":
                u *= 1e-160
            elif bad == "y * 1e-155":
                y *= 1e-155
            records.append(DataRecord(u=u, y=y))
        self.assert_contract(records, lags)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_input_squares_fail_their_row_alone(self):
        records = self.records(DistributionKind.GAUSSIAN_WHITE, bench.CHUNK)
        records[2] = DataRecord(u=records[2].u * 1e-160, y=records[2].y)
        stack = self.assert_contract(records)
        assert [type(e).__name__ if e else None for e in stack.errors] == [
            None, None, "LinAlgError", None, None, None]
        assert str(stack.errors[2]).startswith("cov_beta is not finite")
        assert np.isnan(stack.W[2]).all() and np.isnan(stack.cov_beta[2]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lags", [ZERO_ORDER_LAGS, FIRST_ORDER_LAGS])
    def test_underflowing_cov_beta_fails_its_row_naming_w(self, lags):
        # a residual of 1e-160 at one sample and zero elsewhere: cov_beta
        # underflows to zero, so N cov_beta has no inverse, alone or beside
        # a healthy record, which keeps its bits
        rng = np.random.default_rng(2)
        u, y = rng.standard_normal(101), np.zeros(100)
        y[7] = 1e-160
        healthy = DataRecord(u=rng.standard_normal(101), y=rng.standard_normal(100))
        message = r"^W does not exist \(N cov_beta is singular: cov_beta underflows\)"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            self.weighted(DataRecord(u=u, y=y), lags)
        stack = self.assert_contract([healthy, DataRecord(u=u, y=y)], lags)
        assert stack.errors[0] is None and np.isnan(stack.W[1]).all()

    def test_ridge_on_one_row_only(self):
        # row 1's residuals sit on one sample: one warning for the stack,
        # and only row 1 ridged, as its stack of one is
        rng = np.random.default_rng(8)
        records = [DataRecord(u=rng.standard_normal(101), y=rng.standard_normal(100))
                   for _ in range(3)]
        fit = fit_bla(records, (0, 1))
        fit.residuals[1] = 0.0
        fit.residuals[1, 17] = 5.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = estimate_weighting(records, fit)
        assert [str(w.message) for w in caught] == [
            "I_hat ill-conditioned; ridge added before inversion"]
        assert out.ridge_applied.tolist() == [False, True, False]
        with pytest.warns(UserWarning, match="ridge"):
            one = estimate_weighting(records[1], fit.row(1))
        assert one.ridge_applied
        np.testing.assert_array_equal(out.W[1], one.W)

    @pytest.mark.parametrize("case", ["single fit, sequence", "single fit, sequence of one",
                                      "other row count", "stacked fit, one record", "other n_obs"])
    def test_fit_of_other_records_rejected(self, case):
        # the fit and the records, and the rows and n_obs the message names
        records = self.records(DistributionKind.GAUSSIAN_WHITE, 3)
        short = DataRecord(u=records[0].u[:-1], y=records[0].y[:-1])
        single, stacked = fit_bla(records[0], (0, 1)), fit_bla(records, (0, 1))
        fit, data, want = {
            "single fit, sequence": (single, records[:2], (1, 300, 2, 300)),
            "single fit, sequence of one": (single, records[:1], (1, 300, 1, 300)),
            "other row count": (stacked, records[:2], (3, 300, 2, 300)),
            "stacked fit, one record": (fit_bla(records[:1], (0, 1)), records[0], (1, 300, 1, 300)),
            "other n_obs": (single, short, (1, 300, 1, 299)),
        }[case]
        match = r"fit of {} row\(s\) and n_obs {} is not the fit of .* {} record\(s\) and n_obs {}$"
        with pytest.raises(ValueError, match=match.format(*want)):
            estimate_weighting(data, fit)

    def test_mixed_lengths_rejected(self):
        records = self.records(DistributionKind.GAUSSIAN_WHITE, 2)
        short = DataRecord(u=records[1].u[:-1], y=records[1].y[:-1])
        for lags in (ZERO_ORDER_LAGS, FIRST_ORDER_LAGS):
            with pytest.raises(ValueError, match="one len"):
                fit_bla([records[0], short], lags)


class TestBussgang:
    def test_scaling_property_on_data(self):
        # fitted coefficients approach b0 * (theta, 1) for gaussian input
        _, data = make_data(0.5, 0.2, 0.1, gaussian_white(1 / 3), 10**5, 10)
        est = fit_bla(data, lags=(0, 1))
        assert abs(est.beta_hat[0] / est.beta_hat[1] - 0.5) < 0.02
        # b0 = E{f'(z)} = 3 sigma_z^2 for the cubic, sigma_z^2 = (theta^2 + 1) sigma_u^2 + sigma_v^2
        b0 = 3.0 * ((0.5**2 + 1.0) / 3 + 0.2)
        np.testing.assert_allclose(est.beta_hat, [b0 * 0.5, b0], rtol=0.05)
