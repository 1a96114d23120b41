"""Checks on the costs the estimators hand to minimize_scalar."""

import numpy as np

from wienerid.numerics import OptimizerSettings


def _intercept(monkeypatch, module, record) -> None:
    """Call record(cost, settings, result) on every search `module` runs
    through minimize_scalar; the search itself, start included, still runs."""
    search = module.minimize_scalar

    def recording(cost, settings=OptimizerSettings(), start=None):
        result = search(cost, settings, start=start)
        record(cost, settings, result)
        return result

    monkeypatch.setattr(module, "minimize_scalar", recording)


def capture_costs(monkeypatch, module) -> list:
    """Record every (cost, settings) pair that `module` passes to
    minimize_scalar, while the search itself still runs."""
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
