import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from wienerid import numerics
from wienerid.numerics import (
    CostEvaluationError,
    OptimizerSettings,
    RankDeficiencyError,
    chebyshev_points,
    gauss_hermite,
    gauss_legendre,
    least_squares,
    minimize_scalar,
    poly_argmin,
)


def double_factorial(k: int) -> float:
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


class TestGaussHermite:
    def test_order_one(self):
        rule = gauss_hermite(1)
        np.testing.assert_array_equal(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [math.sqrt(math.pi)], rtol=1e-15)

    def test_order_two(self):
        rule = gauss_hermite(2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-14)

    def test_sixth_gaussian_moment(self):
        got = gauss_hermite(20).normal_expectation(lambda v: v**6)
        assert abs(got - 15.0) < 1e-8

    @pytest.mark.parametrize("order", [1, 2, 5, 10, 20])
    def test_polynomial_exactness_to_degree_2k_minus_1(self, order):
        # even gaussian moments E{V^d} = (d-1)!!; odd moments vanish by symmetry
        rule = gauss_hermite(order)
        for degree in range(0, 2 * order, 2):
            expected = double_factorial(degree - 1) if degree else 1.0
            got = rule.normal_expectation(lambda v, d=degree: v**d)
            assert abs(got - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("order", [2, 7, 20, 40])
    def test_rule_shape_invariants(self, order):
        rule = gauss_hermite(order)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=0)
        assert abs(rule.weights.sum() - math.sqrt(math.pi)) < 1e-10 * math.sqrt(math.pi)

    @pytest.mark.parametrize("order", [200, 1000])
    def test_high_order_rule_shape(self, order):
        # true tail weights at these orders sit below the smallest subnormal
        # double, so exact zeros are the best representable values there
        rule = gauss_hermite(order)
        assert np.all(rule.weights >= 0)
        assert rule.weights[order // 2] > 0
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=0)
        assert abs(rule.weights.sum() - math.sqrt(math.pi)) < 1e-10 * math.sqrt(math.pi)

    def test_matches_numpy_hermgauss(self):
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        rule = gauss_hermite(40)
        np.testing.assert_allclose(rule.nodes, nodes, atol=1e-13)
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-11)

    def test_log_weights_match_numpy_hermgauss_at_order_150(self):
        # tail weights reach 1e-116 here; their relative error must stay small
        nodes, weights = np.polynomial.hermite.hermgauss(150)
        rule = gauss_hermite(150)
        np.testing.assert_allclose(rule.nodes, nodes, atol=1e-12)
        np.testing.assert_allclose(rule.log_weights, np.log(weights), rtol=0, atol=1e-11)

    def test_log_weights_finite_where_weights_underflow(self):
        rule = gauss_hermite(1000)
        assert np.all(np.isfinite(rule.log_weights))
        assert np.any(rule.weights == 0.0)
        np.testing.assert_array_equal(rule.log_weights, rule.log_weights[::-1])
        assert np.all(np.diff(rule.log_weights[: 1000 // 2]) > 0)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(2001)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [1, 2, 5, 20, 200])
    def test_polynomial_exactness_to_degree_2k_minus_1(self, order):
        nodes, log_weights = gauss_legendre(order)
        weights = np.exp(log_weights)
        for degree in range(0, 2 * order, 2):
            assert abs(weights @ nodes**degree - 2.0 / (degree + 1)) <= 1e-13

    def test_matches_numpy_leggauss(self):
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(40)
        nodes, log_weights = gauss_legendre(40)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-15)
        np.testing.assert_allclose(np.exp(log_weights), ref_weights, rtol=1e-11)

    def test_high_order_rule_shape(self):
        nodes, log_weights = gauss_legendre(1000)
        assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0]
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(log_weights, log_weights[::-1])
        assert abs(np.exp(log_weights).sum() - 2.0) < 1e-13

    def test_order_out_of_range(self):
        # past MAX_QUAD_ORDER the dense Jacobi matrix alone would be order^2 doubles
        with pytest.raises(ValueError, match="order must be >= 1"):
            gauss_legendre(0)
        for order in (numerics.MAX_QUAD_ORDER + 1, 50000):
            with pytest.raises(ValueError, match=f"order must be <= 2000, got {order}"):
                gauss_legendre(order)


class TestDenseEigensolverOracle:
    """The rules against the tridiagonal construction they replaced: scipy's
    eigh_tridiagonal for the eigenvalues, then the same Newton step."""

    @staticmethod
    def tridiagonal_rule(monkeypatch, build, order):
        def eigvalsh(jacobi, UPLO):
            assert UPLO == "L" and not np.triu(jacobi).any()
            return eigh_tridiagonal(np.diag(jacobi), np.diag(jacobi, -1), eigvals_only=True)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", eigvalsh)
            return build.__wrapped__(order)  # past the lru_cache

    @pytest.mark.parametrize("order", [1, 2, 5, 40, 200, 1000])
    def test_gauss_hermite(self, monkeypatch, order):
        old = self.tridiagonal_rule(monkeypatch, gauss_hermite, order)
        new = gauss_hermite(order)
        np.testing.assert_allclose(new.nodes, old.nodes, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(new.log_weights, old.log_weights, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 5, 40, 200, 1000])
    def test_gauss_legendre(self, monkeypatch, order):
        old_nodes, old_log_weights = self.tridiagonal_rule(monkeypatch, gauss_legendre, order)
        nodes, log_weights = gauss_legendre(order)
        np.testing.assert_allclose(nodes, old_nodes, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(log_weights, old_log_weights, rtol=1e-14, atol=1e-14)


class TestMinimizeScalar:
    def test_quadratic_bowl(self):
        res = minimize_scalar(lambda x: (x - 0.5) ** 2, OptimizerSettings(bracket=(-2.0, 2.0)))
        assert abs(res.argmin - 0.5) < 1e-7
        assert not res.degenerate

    def test_quartic_well(self):
        res = minimize_scalar(lambda x: x**4 - x**2, OptimizerSettings(bracket=(0.0, 2.0)))
        assert abs(res.argmin - 1.0 / math.sqrt(2.0)) < 1e-8

    def test_constant_cost_flagged_degenerate(self):
        res = minimize_scalar(lambda x: 3.0, OptimizerSettings(bracket=(-1.0, 5.0)))
        assert res.degenerate
        assert -1.0 <= res.argmin <= 5.0
        assert res.min_value == 3.0
        assert res.iterations == numerics.FALLBACK_GRID_POINTS

    def test_non_finite_cost_reports_point(self):
        def cost(x):
            return np.where(x > 1.0, np.nan, x**2)

        with pytest.raises(CostEvaluationError) as excinfo:
            minimize_scalar(cost, OptimizerSettings(bracket=(-2.0, 2.0)))
        assert excinfo.value.point > 1.0

    def test_non_finite_cost_reports_first_grid_point_in_bracket_order(self):
        def cost(x):
            return np.where(x < -1.5, np.inf, np.where(x > 1.0, np.nan, x**2))

        with pytest.raises(CostEvaluationError) as excinfo:
            minimize_scalar(cost, OptimizerSettings(bracket=(-2.0, 2.0)))
        assert excinfo.value.point == -2.0
        assert excinfo.value.value == np.inf

    def test_cost_called_on_the_grid_then_on_one_cell(self):
        calls = []

        def cost(x):
            calls.append(x)
            return (x - 0.3) ** 2

        res = minimize_scalar(cost, OptimizerSettings(bracket=(-1.0, 1.0)))
        grid = np.linspace(-1.0, 1.0, numerics.FALLBACK_GRID_POINTS)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], grid)
        # the cell around the grid minimum, 0.3 up to rounding
        i = int(np.argmin(np.abs(grid - 0.3)))
        cell = chebyshev_points(numerics.SEARCH_DEGREE, grid[i - 1], grid[i + 1])[0]
        np.testing.assert_array_equal(calls[1], cell)
        assert res.iterations == numerics.FALLBACK_GRID_POINTS + numerics.SEARCH_DEGREE + 1
        assert res.iterations == 72

    def test_boundary_minimum(self):
        res = minimize_scalar(lambda x: x, OptimizerSettings(bracket=(-1.0, 1.0)))
        assert res.argmin == -1.0 and res.at_bracket_edge
        res = minimize_scalar(lambda x: -x, OptimizerSettings(bracket=(-1.0, 1.0)))
        assert res.argmin == 1.0 and res.at_bracket_edge

    def test_interior_minimum_not_at_edge(self):
        res = minimize_scalar(lambda x: (x - 0.98) ** 2, OptimizerSettings(bracket=(-1.0, 1.0)))
        assert not res.at_bracket_edge

    def test_symmetric_tie_prefers_smaller_magnitude(self):
        # even cost on a symmetric bracket: deterministic pick near the smaller |x|
        res = minimize_scalar(lambda x: (x**2 - 1.0) ** 2, OptimizerSettings(bracket=(-3.0, 3.0)))
        assert abs(abs(res.argmin) - 1.0) < 1e-5

    @given(target=st.floats(-1.8, 1.8), scale=st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_recovers_quadratic_minimum(self, target, scale):
        res = minimize_scalar(
            lambda x: scale * (x - target) ** 2, OptimizerSettings(bracket=(-2.0, 2.0))
        )
        assert abs(res.argmin - target) < 1e-6

    def test_invalid_settings(self):
        with pytest.raises(ValueError):
            OptimizerSettings(bracket=(1.0, -1.0))
        with pytest.raises(ValueError):
            OptimizerSettings(bracket=(1.0, 1.0))


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import wienerid; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestSeededMinimizeScalar:
    settings = OptimizerSettings(bracket=(-3.0, 3.0))

    @staticmethod
    def well(x):
        return (x - 0.3) ** 2 + 0.1 * (x - 0.3) ** 4

    def test_near_start_matches_full_scan_on_a_local_grid(self):
        full = minimize_scalar(self.well, self.settings)
        calls = []

        def cost(x):
            calls.append(x)
            return self.well(x)

        res = minimize_scalar(cost, self.settings, start=(0.32, 0.05))
        assert not res.fallback and not res.at_bracket_edge
        assert abs(res.argmin - full.argmin) <= 2e-6
        # the window 0.32 +- 6 * 0.05
        assert len(calls) == 1
        window = chebyshev_points(numerics.SEARCH_DEGREE, 0.32 - 6.0 * 0.05, 0.32 + 6.0 * 0.05)[0]
        np.testing.assert_array_equal(calls[0], window)
        assert res.iterations == numerics.SEARCH_DEGREE + 1 == 11
        assert full.iterations == 72

    def test_far_start_falls_back_to_the_full_scan(self):
        full = minimize_scalar(self.well, self.settings)
        points = []

        def cost(x):
            points.extend(np.atleast_1d(x).tolist())
            return self.well(x)

        # the window [1.7, 2.3] has its minimum on its edge inside the bracket
        res = minimize_scalar(cost, self.settings, start=(2.0, 0.05))
        assert res.fallback
        assert res.argmin == full.argmin and res.min_value == full.min_value
        assert res.iterations == len(points) == 11 + full.iterations

    def test_degenerate_local_scan_falls_back(self):
        def cost(x):
            return np.maximum(np.abs(x - 1.5) - 1.0, 0.0) + 0.0 * x

        res = minimize_scalar(cost, self.settings, start=(1.5, 0.05))
        full = minimize_scalar(cost, self.settings)
        assert res.fallback and not full.fallback
        assert res.argmin == full.argmin
        assert res.iterations == 11 + full.iterations

    @pytest.mark.parametrize("start", [
        (math.nan, 0.1), (0.3, math.nan), (math.inf, 0.1), (0.3, math.inf),
        (0.3, 0.0), (0.3, -0.1), (3.5, 0.1), (-3.01, 0.1), (0.3, 1e-300),
    ])
    def test_unusable_start_is_ignored(self, start):
        full = minimize_scalar(self.well, self.settings)
        res = minimize_scalar(self.well, self.settings, start=start)
        assert res == full and not res.fallback

    def test_window_clipped_at_the_bracket(self):
        settings = OptimizerSettings(bracket=(-1.0, 1.0))
        # minimum at the bracket's ends, each inside a clipped window
        low = minimize_scalar(lambda x: x, settings, start=(-0.9, 0.1))
        high = minimize_scalar(lambda x: -x, settings, start=(0.9, 0.1))
        assert low.at_bracket_edge and not low.fallback and low.argmin == -1.0
        assert high.at_bracket_edge and not high.fallback and high.argmin == 1.0
        assert low.iterations == high.iterations == 11
        # an interior minimum in a clipped window is not at the edge
        res = minimize_scalar(lambda x: (x - 0.9) ** 2, settings, start=(0.95, 0.05))
        assert not res.at_bracket_edge and not res.fallback
        assert res.argmin == pytest.approx(0.9, abs=1e-6)

    def test_smooth_non_polynomial_cost_against_its_stationary_point(self):
        # an analytic cost that no polynomial matches: the window's
        # interpolant and the fallback's cell both find the root of its
        # derivative, found here by Brent's root finder
        def cost(x):
            return np.cosh(x - 0.4) + 0.3 * np.sin(2.0 * x)

        ref = brentq(lambda x: np.sinh(x - 0.4) + 0.6 * np.cos(2.0 * x), -1.0, 0.3, xtol=1e-15)
        for start in (None, (-0.1, 0.05), (2.0, 0.05)):
            res = minimize_scalar(cost, self.settings, start=start)
            assert res.fallback == (start == (2.0, 0.05))
            assert abs(res.argmin - ref) <= 1e-10


class TestLeastSquares:
    def test_consistent_system_zero_residuals(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        coef_true = np.array([1.0, -2.0, 0.5])
        coef, resid = least_squares(X, X @ coef_true)
        np.testing.assert_allclose(coef, coef_true, rtol=1e-12)
        np.testing.assert_allclose(resid, np.zeros(30), atol=1e-12)

    def test_single_regressor(self):
        u = np.array([1.0, 2.0, -3.0, 0.5])
        coef, _ = least_squares(u[:, None], 2.0 * u)
        np.testing.assert_allclose(coef, [2.0], rtol=1e-14)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 4))
        y = rng.standard_normal(200)
        coef, resid = least_squares(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(coef, oracle, atol=1e-8)
        np.testing.assert_allclose(resid, y - X @ coef, atol=1e-12)

    @given(seed=st.integers(0, 2**32), m=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_residual_orthogonality(self, seed, m):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((50, m))
        y = rng.standard_normal(50)
        _, resid = least_squares(X, y)
        assert np.all(np.abs(X.T @ resid) < 1e-8 * np.linalg.norm(y))

    def test_rank_deficiency_reported(self):
        u = np.linspace(0, 1, 20)
        X = np.column_stack([u, 2.0 * u])
        with pytest.raises(RankDeficiencyError) as excinfo:
            least_squares(X, u)
        assert excinfo.value.smallest_singular_value < 1e-10

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((2, 3)), np.ones(2))


class TestPolyArgmin:
    @given(
        coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_worse_than_a_dense_grid(self, coeffs, lo, width):
        # the minimum is exact up to rounding: at most 1e-9 of the cost's
        # largest magnitude on the bracket above the minimum of a 2001-point grid
        cost = np.polynomial.Polynomial(coeffs)
        bracket = (lo, lo + width)
        res = poly_argmin(cost, len(coeffs) - 1, OptimizerSettings(bracket=bracket))
        grid = cost(np.linspace(*bracket, 2001))
        assert bracket[0] <= res.argmin <= bracket[1]
        assert res.min_value == pytest.approx(cost(res.argmin), abs=1e-9 * (1.0 + np.abs(grid).max()))
        assert res.min_value <= grid.min() + 1e-9 * (1.0 + np.abs(grid).max())
        assert res.at_bracket_edge == (res.argmin in bracket)

    def test_interior_and_edge_minima(self):
        settings = OptimizerSettings(bracket=(-1.0, 1.0))
        res = poly_argmin(lambda x: (x - 0.3) ** 2 * (x + 2.0), 3, settings)
        assert res.argmin == pytest.approx(0.3, abs=1e-12) and not res.at_bracket_edge
        res = poly_argmin(lambda x: (x - 1.5) ** 2, 2, settings)
        assert res.argmin == 1.0 and res.at_bracket_edge

    def test_flat_minimum_of_a_quartic(self):
        # the derivative's triple root may come out as a complex cluster;
        # its real parts are still candidates
        res = poly_argmin(lambda x: (x - 0.3) ** 4, 4, OptimizerSettings(bracket=(-1.0, 1.0)))
        assert abs(res.argmin - 0.3) < 1e-4
        assert res.min_value < 1e-15

    def test_cost_called_once_at_the_nodes(self):
        for degree in (0, 2, 6):
            calls = []

            def cost(x):
                calls.append(np.array(x))
                return (x - 0.3) ** 2

            res = poly_argmin(cost, degree, OptimizerSettings(bracket=(-1.0, 1.0)))
            assert len(calls) == 1 and calls[0].shape == (degree + 1,)
            np.testing.assert_array_equal(calls[0], chebyshev_points(degree, -1.0, 1.0)[0])
            assert np.all((-1.0 < calls[0]) & (calls[0] < 1.0))
            assert res.iterations == degree + 1

    def test_constant_cost_flagged_degenerate(self):
        res = poly_argmin(lambda x: 3.0, 4, OptimizerSettings(bracket=(-1.0, 5.0)))
        assert res.degenerate and not res.at_bracket_edge
        assert res.argmin == 0.0 and res.min_value == 3.0
        res = poly_argmin(lambda x: 0.0 * x, 2, OptimizerSettings(bracket=(1.0, 5.0)))
        assert res.degenerate and res.argmin == 1.0 and res.at_bracket_edge

    def test_symmetric_tie_prefers_smaller_magnitude(self):
        res = poly_argmin(lambda x: x * x, 2, OptimizerSettings(bracket=(-1.0, 1.0)))
        assert res.argmin == pytest.approx(0.0, abs=1e-15)
        res = poly_argmin(lambda x: -x * x, 2, OptimizerSettings(bracket=(-1.0, 1.0)))
        assert res.argmin == -1.0 and res.at_bracket_edge

    def test_non_finite_cost_reports_point(self):
        settings = OptimizerSettings(bracket=(-2.0, 2.0))
        with pytest.raises(CostEvaluationError) as excinfo:
            poly_argmin(lambda x: np.where(x > 1.0, np.nan, x**2), 4, settings)
        assert excinfo.value.point > 1.0 and np.isnan(excinfo.value.value)
        # finite at the interpolation nodes, infinite at a bracket end: the
        # cost is called at the nodes alone, so that value is never seen
        res = poly_argmin(lambda x: np.where(x == 2.0, np.inf, x**2), 2, settings)
        assert res.argmin == pytest.approx(0.0, abs=1e-15)
