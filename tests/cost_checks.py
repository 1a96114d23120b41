"""Checks on the costs the estimators hand to their scalar searches."""

import numpy as np
from scipy.optimize import minimize_scalar

from wienerid.numerics import OptimizerSettings

# points of the grid on which a batched cost is compared with its pointwise calls
GRID_POINTS = 61


def _intercept(monkeypatch, module, record) -> None:
    """Call record(cost, settings, result) on every search `module` runs
    through poly_argmin; the search itself still runs."""
    search = module.poly_argmin

    def recording(cost, degree, settings=OptimizerSettings()):
        result = search(cost, degree, settings)
        record(cost, settings, result)
        return result

    monkeypatch.setattr(module, "poly_argmin", recording)


def capture_costs(monkeypatch, module) -> list:
    """Record every (cost, settings) pair that `module` passes to
    poly_argmin, while the search itself still runs."""
    captured = []
    _intercept(monkeypatch, module, lambda cost, settings, _: captured.append((cost, settings)))
    return captured


def capture_searches(monkeypatch, module) -> list:
    """Record the ScalarMinResult of every search `module` runs."""
    results = []
    _intercept(monkeypatch, module, lambda _, __, result: results.append(result))
    return results


def assert_grid_batch_is_pointwise(cost, settings: OptimizerSettings) -> None:
    """cost(xs)[i] equals cost(float(xs[i])) bit for bit on a grid of the
    bracket, and a float argument gives a scalar."""
    xs = np.linspace(*settings.bracket, GRID_POINTS)
    batch = cost(xs)
    assert np.shape(batch) == xs.shape
    points = [cost(float(x)) for x in xs]
    assert all(np.ndim(p) == 0 for p in points)
    np.testing.assert_array_equal(batch, points)


def reference_argmin(cost, bracket, points: int = 2001) -> float:
    """A minimizer of cost on the bracket that shares no code with wienerid's
    searches: the smallest value of cost on a grid of `points` points, calling
    it with one float at a time, refined in the grid cell around it by
    scipy's bounded Brent to xatol = 1e-10."""
    xs = np.linspace(*bracket, points)
    vals = np.array([cost(float(x)) for x in xs])
    i = int(np.argmin(vals))
    cell = (float(xs[max(i - 1, 0)]), float(xs[min(i + 1, points - 1)]))
    res = minimize_scalar(
        lambda x: float(cost(x)), bounds=cell, method="bounded", options={"xatol": 1e-10}
    )
    return float(res.x) if res.fun <= vals[i] else float(xs[i])
