"""Checks on the costs the estimators hand to their scalar searches."""

import numpy as np

from wienerid.numerics import OptimizerSettings


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
    """cost(xs)[i] equals cost(float(xs[i])) bit for bit on the search grid,
    and a float argument gives a scalar."""
    xs = np.linspace(*settings.bracket, settings.grid_points)
    batch = cost(xs)
    assert np.shape(batch) == xs.shape
    points = [cost(float(x)) for x in xs]
    assert all(np.ndim(p) == 0 for p in points)
    np.testing.assert_array_equal(batch, points)
