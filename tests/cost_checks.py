"""Checks on the criteria the estimators hand to their exact searches."""

import numpy as np
from scipy.optimize import minimize_scalar

from wienerid.numerics import OptimizerSettings


def _intercept(monkeypatch, module, record) -> None:
    """Call record(coeffs, settings, result) on every search `module` runs
    through poly_argmin, once per row of a stack (result None for a row
    that fails); the search itself still runs."""
    search = module.poly_argmin

    def recording(coeffs, settings=OptimizerSettings()):
        result = search(coeffs, settings)
        coeffs = np.array(coeffs)
        if coeffs.ndim == 1:
            record(coeffs, settings, result)
        else:
            for i, row in enumerate(coeffs):
                record(row, settings, None if result.errors[i] else result.row(i))
        return result

    monkeypatch.setattr(module, "poly_argmin", recording)


def capture_costs(monkeypatch, module) -> list:
    """Record every (coeffs, settings) pair that `module` passes to
    poly_argmin, coeffs the criterion's ascending power coefficients in
    theta, while the search itself still runs."""
    captured = []
    _intercept(monkeypatch, module, lambda coeffs, settings, _: captured.append((coeffs, settings)))
    return captured


def capture_searches(monkeypatch, module) -> list:
    """Record the ScalarMinResult of every search `module` runs."""
    results = []
    _intercept(monkeypatch, module, lambda _, __, result: results.append(result))
    return results


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
