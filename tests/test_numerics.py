import math
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from wienerid import numerics
from wienerid.ml import QuadratureUnderflowError
from wienerid.numerics import (
    CostEvaluationError,
    NumericsError,
    RankDeficiencyError,
    RowErrors,
    gauss_hermite,
    gauss_legendre,
    least_squares,
    poly_argmin,
)
from wienerid.system import NonFiniteDataError

from stack_checks import Raised, Rows, assert_rows_are_their_own_calls, outcome


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

    def test_every_order_converges(self):
        for order in [*range(1, 401), 500, 1000, 1500, 2000]:
            nodes, log_weights = gauss_legendre.__wrapped__(order)  # past the lru_cache
            assert np.all(np.diff(nodes) > 0), order
            np.testing.assert_array_equal(nodes, -nodes[::-1])
            np.testing.assert_array_equal(log_weights, log_weights[::-1])
            assert abs(np.exp(log_weights).sum() - 2.0) <= 1e-14, order

    def test_nan_start_raises_after_the_pass_cap(self):
        k = np.arange(1, 40, dtype=float)
        off_diag = k / np.sqrt(4.0 * k * k - 1.0)
        with pytest.raises(NumericsError, match="order 40"):
            numerics._golub_welsch(off_diag, math.log(2.0), np.full(40, np.nan))

    def test_cold_rule_memory_is_linear_in_order(self):
        # a dense 2000 x 2000 Jacobi matrix alone would be 32 MB
        tracemalloc.start()
        try:
            gauss_legendre.__wrapped__(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_order_out_of_range(self):
        # past MAX_QUAD_ORDER the rules are not checked, and gauss_hermite's
        # dense Jacobi matrix alone would be order^2 doubles
        with pytest.raises(ValueError, match="order must be >= 1"):
            gauss_legendre(0)
        for order in (numerics.MAX_QUAD_ORDER + 1, 50000):
            with pytest.raises(ValueError, match=f"order must be <= 2000, got {order}"):
                gauss_legendre(order)


def legendre_oracle(order: int, guess: float):
    """The Legendre node nearest guess and its log weight, to 40 digits:
    Newton on P_n from the three-term recurrence, w = 2 / ((1 - x^2) P_n'(x)^2)."""

    def p_and_slope(x):
        p_prev, p = mpmath.mpf(1), x
        for k in range(1, order):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, order * (x * p - p_prev) / (x * x - 1)

    with mpmath.workdps(40):
        x = mpmath.mpf(guess)
        for _ in range(50):
            p, dp = p_and_slope(x)
            step = p / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** -36:
                break
        _, dp = p_and_slope(x)
        return x, mpmath.log(2 / ((1 - x * x) * dp * dp))


class TestDenseEigensolverOracle:
    """gauss_hermite against the tridiagonal construction it replaced:
    scipy's eigh_tridiagonal for the eigenvalues, then the same Newton step."""

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


class TestMpmathOracle:
    @pytest.mark.parametrize("order", [1, 2, 5, 40, 200, 1000, 2000])
    def test_gauss_legendre(self, order):
        # the eigensolver rule's errors were 5.5e-17 in the nodes and 1.3e-13,
        # 4.4e-13 and 2.6e-12 in the edge log weights at orders 200, 1000, 2000
        nodes, log_weights = gauss_legendre(order)
        for i in sorted({0, 1 % order, order // 2}):  # edge, near edge, centre
            x, log_w = legendre_oracle(order, float(nodes[i]))
            assert abs(float(nodes[i]) - x) <= 1.2e-16, (order, i)
            assert abs(float(log_weights[i]) - log_w) <= 3e-15 * order + 1e-14, (order, i)


class TestNumpyOnlyRuntime:
    @staticmethod
    def imported(package: str) -> str:
        """The modules of package, itself included, that a fresh
        `import wienerid` loads, as a printed sorted list."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import wienerid; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_import_loads_no_scipy(self):
        assert self.imported("scipy") == "[]"

    def test_import_loads_no_numpy_polynomial(self):
        # numerics.horner is the one polynomial evaluator
        assert self.imported("numpy.polynomial") == "[]"


class TestLeastSquares:
    """least_squares on stacks of problems; a 2-D problem is the stack of one."""

    def test_consistent_system_zero_residuals(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        coef_true = np.array([1.0, -2.0, 0.5])
        coef, resid, errors = least_squares(X[None], (X @ coef_true)[None])
        assert errors == [None]
        np.testing.assert_allclose(coef[0], coef_true, rtol=1e-12)
        np.testing.assert_allclose(resid[0], np.zeros(30), atol=1e-12)

    def test_single_regressor(self):
        u = np.array([1.0, 2.0, -3.0, 0.5])
        coef, _, _ = least_squares(u[None, :, None], 2.0 * u[None])
        np.testing.assert_allclose(coef, [[2.0]], rtol=1e-14)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 4))
        y = rng.standard_normal(200)
        coef, resid, _ = least_squares(X[None], y[None])
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(coef[0], oracle, atol=1e-8)
        np.testing.assert_allclose(resid[0], y - X @ coef[0], atol=1e-12)

    @given(seed=st.integers(0, 2**32), m=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_residual_orthogonality(self, seed, m):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((50, m))
        y = rng.standard_normal(50)
        _, resid, _ = least_squares(X[None], y[None])
        assert np.all(np.abs(X.T @ resid[0]) < 1e-8 * np.linalg.norm(y))

    def test_rank_deficiency_reported(self):
        u = np.linspace(0, 1, 20)
        X = np.column_stack([u, 2.0 * u])
        coef, resid, (error,) = least_squares(X[None], u[None])
        assert isinstance(error, RankDeficiencyError)
        assert error.smallest_singular_value < 1e-10
        assert np.isnan(coef).all() and np.isnan(resid).all()

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((1, 2, 3)), np.ones((1, 2)))

    def test_targets_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"targets of shape \(1, 4\) do not match regressors"):
            least_squares(np.ones((1, 3, 2)), np.ones((1, 4)))

    @given(seed=st.integers(0, 2**32), m=st.integers(1, 4), rows=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_stack_rows_are_their_own_calls(self, seed, m, rows):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, 50, m))
        y = rng.standard_normal((rows, 50))
        coef, resid, errors = least_squares(X, y)
        assert errors == [None] * rows
        assert_rows_are_their_own_calls(
            Rows((coef, resid, errors)), [lambda i=i: Rows(least_squares(X[i], y[i])).row(0)
                                          for i in range(rows)])
        for i in range(rows):
            assert np.all(np.abs(X[i].T @ resid[i]) < 1e-8 * np.linalg.norm(y[i]))
            np.testing.assert_allclose(coef[i], np.linalg.lstsq(X[i], y[i], rcond=None)[0],
                                       rtol=1e-10, atol=1e-12)

    def test_rank_deficient_row_fails_alone(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 20, 2))
        X[1, :, 1] = 2.0 * X[1, :, 0]
        y = rng.standard_normal((3, 20))
        coef, resid, errors = least_squares(X, y)
        assert isinstance(errors[1], RankDeficiencyError)
        assert errors[1].smallest_singular_value < 1e-10
        assert np.isnan(coef[1]).all() and np.isnan(resid[1]).all()
        assert_rows_are_their_own_calls(
            Rows((coef, resid, errors)), [lambda i=i: Rows(least_squares(X[i], y[i])).row(0)
                                          for i in range(3)])


class TestRowErrors:
    """The per-row failure rule of every stacked kernel."""

    def test_first_error_wins(self):
        first, second = ValueError("first"), ValueError("second")
        errors = RowErrors([None] * 4)
        errors.fail(np.array([False, True, True, False]), lambda i: first)
        asked = []
        errors.fail(np.array([True, True, False, False]), lambda i: asked.append(i) or second)
        assert errors == [second, first, first, None] and asked == [0]
        assert errors[1] is first

    def test_merge_keeps_an_earlier_error(self):
        mine, theirs = ValueError("mine"), CostEvaluationError(0.5, math.inf)
        errors = RowErrors([mine, None, None])
        errors.merge([theirs, theirs, None])
        assert errors == [mine, theirs, None]
        assert errors[0] is mine and errors[1] is theirs

    def test_ok_masks_the_rows_without_an_error(self):
        errors = RowErrors([None, ValueError("bad"), None])
        assert errors.ok.dtype == bool and errors.ok.tolist() == [True, False, True]
        assert RowErrors([]).ok.dtype == bool and RowErrors([]).ok.shape == (0,)
        assert RowErrors([None] * 2) == [None] * 2

    def test_check_raises_the_stored_exception_itself(self):
        stored = RankDeficiencyError(1e-17)
        errors = RowErrors([None, stored])
        errors.check(0)
        with pytest.raises(RankDeficiencyError) as excinfo:
            errors.check(1)
        assert excinfo.value is stored


@pytest.mark.parametrize("error, fields", [
    (CostEvaluationError(-3.0, math.inf), {"point": -3.0, "value": math.inf}),
    (RankDeficiencyError(1.5e-17), {"smallest_singular_value": 1.5e-17}),
    (QuadratureUnderflowError(0.5, [3, 7]), {"theta": 0.5, "time_indices": [3, 7]}),
    (NonFiniteDataError("y", 4, -math.inf), {"name": "y", "index": 4, "value": -math.inf}),
], ids=["CostEvaluationError", "RankDeficiencyError", "QuadratureUnderflowError",
        "NonFiniteDataError"])
def test_typed_error_survives_pickling(error, fields):
    # a row's error crosses a process boundary as it is
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert {name: getattr(copy, name) for name in fields} == fields


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
        res = poly_argmin(coeffs, bracket)
        grid = cost(np.linspace(*bracket, 2001))
        assert bracket[0] <= res.argmin <= bracket[1]
        assert res.min_value == pytest.approx(cost(res.argmin), abs=1e-9 * (1.0 + np.abs(grid).max()))
        assert res.min_value <= grid.min() + 1e-9 * (1.0 + np.abs(grid).max())
        assert res.at_bracket_edge == (res.argmin in bracket)

    def test_interior_and_edge_minima(self):
        bracket = (-1.0, 1.0)
        res = poly_argmin(npoly.polyfromroots([0.3, 0.3, -2.0]), bracket)
        assert res.argmin == pytest.approx(0.3, abs=1e-12) and not res.at_bracket_edge
        res = poly_argmin(npoly.polyfromroots([1.5, 1.5]), bracket)
        assert res.argmin == 1.0 and res.at_bracket_edge

    def test_flat_minimum_of_a_quartic(self):
        # the derivative's triple root may come out as a complex cluster;
        # its real parts are still candidates
        res = poly_argmin(npoly.polyfromroots([0.3] * 4), (-1.0, 1.0))
        assert abs(res.argmin - 0.3) < 1e-4
        assert res.min_value < 1e-15

    def test_iterations_count_the_candidates(self):
        for coeffs, bracket, candidates in [
            ([0.0, 0.0, 1.0], (-1.0, 1.0), 3),  # x^2: the ends and 0
            ([0.0, -1.0, 0.0, 1.0], (-2.0, 2.0), 4),  # x^3 - x: the ends and +-1/sqrt(3)
            ([0.0, -1.0, 0.0, 1.0], (0.0, 2.0), 3),  # one critical point outside
            ([2.25, -3.0, 1.0], (-1.0, 1.0), 2),  # (x - 1.5)^2: none inside
        ]:
            res = poly_argmin(coeffs, bracket)
            assert res.iterations == candidates, coeffs

    def test_constant_cost_flagged_degenerate(self):
        # zero non-constant coefficients, trailing zeros and all zeros
        for coeffs in ([3.0], [3.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0, 0.0], [0.0], [0.0, 0.0, 0.0]):
            res = poly_argmin(coeffs, (-1.0, 5.0))
            assert res.degenerate and not res.at_bracket_edge
            assert res.argmin == 0.0 and res.min_value == coeffs[0] and res.iterations == 2
            res = poly_argmin(coeffs, (1.0, 5.0))
            assert res.degenerate and res.argmin == 1.0 and res.at_bracket_edge

    def test_tiny_leading_coefficient(self):
        # a leading coefficient far below the others puts a huge root beside
        # the small one; numpy's polyroots then misplaces it by 2e-3 at 1e-13,
        # loses it at 1e-40 and raises LinAlgError at 5e-324
        bracket = (-1.0, 0.0)
        for tiny in (1e-13, 1e-40, 5e-324):
            res = poly_argmin([0.0, 0.7890625, 2.0, tiny], bracket)
            assert res.argmin == pytest.approx(-0.7890625 / 4.0, abs=1e-10), tiny
            assert not res.degenerate

    def test_degree_one_and_trailing_zeros(self):
        bracket = (-1.0, 1.0)
        res = poly_argmin([1.0, 2.0], bracket)
        assert res.argmin == -1.0 and res.min_value == -1.0
        assert res.at_bracket_edge and not res.degenerate and res.iterations == 2
        res = poly_argmin([1.0, -2.0, 0.0, 0.0], bracket)
        assert res.argmin == 1.0 and res.min_value == -1.0 and res.iterations == 2
        cubic = list(npoly.polyfromroots([0.3, 0.3, -2.0]))
        assert poly_argmin(cubic + [0.0, 0.0], bracket) == poly_argmin(cubic, bracket)

    def test_symmetric_tie_prefers_smaller_magnitude(self):
        res = poly_argmin([0.0, 0.0, 1.0], (-1.0, 1.0))
        assert res.argmin == pytest.approx(0.0, abs=1e-15)
        res = poly_argmin([0.0, 0.0, -1.0], (-1.0, 1.0))
        assert res.argmin == -1.0 and res.at_bracket_edge

    def test_non_finite_cost_reports_point(self):
        # the typed error alone reports the value: numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # a NaN or an inf coefficient gives a non-finite value at lo
            for bad in (math.nan, math.inf, -math.inf):
                for position in range(3):
                    coeffs = [1.0, 0.5, 1.0]
                    coeffs[position] = bad
                    with pytest.raises(CostEvaluationError) as excinfo:
                        poly_argmin(coeffs, (-2.0, 2.0))
                    assert excinfo.value.point == -2.0 and not math.isfinite(excinfo.value.value)
            # finite coefficients, but 1e300 x^2 overflows at the upper end
            with pytest.raises(CostEvaluationError) as excinfo:
                poly_argmin([0.0, 0.0, 1e300], (0.5, 1e5))
            assert excinfo.value.point == 1e5 and excinfo.value.value == math.inf

    @pytest.mark.parametrize("coeffs", [np.float64(1.0), np.zeros(0), np.zeros((1, 2, 3))],
                             ids=["0-d", "empty", "3-D"])
    def test_coefficients_of_the_wrong_shape_rejected(self, coeffs):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(np.shape(coeffs)))}$"):
            poly_argmin(coeffs)


class TestPolyArgminStack:
    """An (R, K) stack gives each row the result of its own 1-D call."""

    bracket = (-1.0, 2.0)
    ROWS = {
        "interior": npoly.polyfromroots([0.3, 0.3, -2.0, 1.7, 5.0, -4.0]),
        "lower degree": np.r_[npoly.polyfromroots([0.3, 0.3, -2.0]), 0.0, 0.0, 0.0],
        "tiny leading": [0.0, 0.7890625, 2.0, 1e-40, 0.0, 0.0, 0.0],
        "quadratic": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        "flat": [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "zero": np.zeros(7),
        "lower edge": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "upper edge": [0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        # -(theta - 0.5)^2 takes one value at both ends: the smaller |theta| wins
        "tie": [-0.25, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        "nan": [1.0, 0.5, math.nan, 0.0, 0.0, 0.0, 1.0],
        "inf": [1.0, 0.5, 1.0, 0.0, 0.0, -math.inf, 1.0],
        "overflow": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e307],
    }

    def test_rows_equal_their_own_calls(self):
        stack = np.array(list(self.ROWS.values()), dtype=float)
        singles = [lambda row=row: poly_argmin(row, self.bracket) for row in stack]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = poly_argmin(stack, self.bracket)
            assert_rows_are_their_own_calls(result, singles)
            kinds = {name: outcome(single) for name, single in zip(self.ROWS, singles)}
        assert result.argmin.shape == (len(stack),)
        # the cases the stack mixes are all there
        assert kinds["flat"].degenerate and kinds["zero"].degenerate and kinds["lower edge"].at_bracket_edge
        assert kinds["upper edge"].argmin == 2.0 and kinds["tie"].argmin == -1.0
        assert kinds["lower degree"].iterations == 3 and kinds["interior"].iterations > 3
        raised = [name for name, row in kinds.items() if isinstance(row, Raised)]
        assert raised == ["nan", "inf", "overflow"]

    def test_non_finite_row_is_flagged_not_raised(self):
        stack = np.array([self.ROWS["interior"], self.ROWS["overflow"], self.ROWS["nan"]])
        result = poly_argmin(stack, self.bracket)
        assert_rows_are_their_own_calls(
            result, [lambda row=row: poly_argmin(row, self.bracket) for row in stack])
        assert result.errors[0] is None
        for i, point in ((1, 2.0), (2, -1.0)):
            assert isinstance(result.errors[i], CostEvaluationError)
            assert result.errors[i].point == point

    def test_empty_stack(self):
        result = poly_argmin(np.zeros((0, 7)), self.bracket)
        assert result.argmin.shape == (0,) and result.errors == []
