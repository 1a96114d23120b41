"""Checks on the costs the estimators hand to minimize_scalar."""

import numpy as np

from wienerid.numerics import OptimizerSettings


def capture_costs(monkeypatch, module) -> list:
    """Record every (cost, settings) pair that `module` passes to
    minimize_scalar, while the search itself still runs."""
    captured = []
    search = module.minimize_scalar

    def recording(cost, settings=OptimizerSettings()):
        captured.append((cost, settings))
        return search(cost, settings)

    monkeypatch.setattr(module, "minimize_scalar", recording)
    return captured


def assert_grid_batch_is_pointwise(cost, settings: OptimizerSettings) -> None:
    """cost(xs)[i] equals cost(float(xs[i])) bit for bit on the search grid,
    and a float argument gives a scalar."""
    xs = np.linspace(*settings.bracket, settings.grid_points)
    batch = cost(xs)
    assert np.shape(batch) == xs.shape
    points = [cost(float(x)) for x in xs]
    assert all(np.ndim(p) == 0 for p in points)
    np.testing.assert_array_equal(batch, points)
