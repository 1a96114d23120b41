"""The scalar contract of a result on one record: every estimator and kernel
given one record, one criterion or one fit returns its result with Python
scalars, a (1,) theta_hat, a 2-D cov_beta and no row errors, as the
acceptance tests and the benchmark's probes read it."""

import dataclasses

import numpy as np
import pytest

from wienerid import bench
from wienerid.bla import estimate_weighting, fit_bla
from wienerid.indirect import AnalyticMap, step2
from wienerid.numerics import Estimate, ScalarMinResult, poly_argmin
from wienerid.pem import pem_estimate
from wienerid.signals import DistributionKind

CONFIG = bench.ExperimentConfig(
    theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
    input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=300,
    methods=bench.METHOD_ORDER, master_seed=20260809, desk_scale=True,
)
RECORD = bench.make_record(CONFIG, 0)
TEMPLATE = CONFIG.template()
AMAP = AnalyticMap(1 / 3, 0.2, 3.0)

CASES = {
    "weighted fit": lambda: estimate_weighting(RECORD, fit_bla(RECORD, (0, 1))),
    "pem_estimate": lambda: pem_estimate(RECORD, TEMPLATE),
    "step2": lambda: step2(AMAP(0.5) + 0.01, np.eye(2), AMAP.coeffs, beta_cov=np.eye(2) / 300),
    "poly_argmin": lambda: poly_argmin([1.0, -0.5, 0.0, 1.0]),
    "zero_order_estimate": lambda: bench.zero_order_estimate(RECORD, TEMPLATE),
    "first_order_estimate": lambda: bench.first_order_estimate(RECORD, TEMPLATE),
    **{f"run_method {m}": lambda m=m: bench.run_method(CONFIG, m, RECORD)
       for m in bench.METHOD_ORDER},
}
SEARCH_TYPES = {"argmin": float, "min_value": float, "iterations": int, "degenerate": bool,
                "at_bracket_edge": bool, "fallback": bool}
# ML's likelihood states its quadrature order and change; no other search integrates
QUAD_TYPES = {True: {"quad_order": int, "quad_change": float},
              False: {"quad_order": type(None), "quad_change": type(None)}}


def check_search(result: ScalarMinResult, quadrature: bool) -> None:
    assert result.errors is None
    types = {**SEARCH_TYPES, **QUAD_TYPES[quadrature]}
    for name, kind in types.items():
        assert type(getattr(result, name)) is kind, name
    assert {f.name for f in dataclasses.fields(result)} == {*types, "errors"}


@pytest.mark.parametrize("case", list(CASES))
def test_one_record_gives_python_scalars(case):
    result = CASES[case]()
    quadrature = case == "run_method ML"
    if isinstance(result, ScalarMinResult):
        check_search(result, quadrature)
    elif isinstance(result, Estimate):
        assert result.errors is None
        assert type(result.theta_hat) is np.ndarray and result.theta_hat.shape == (1,)
        assert result.predicted_std is None or type(result.predicted_std) is float
        check_search(result.diagnostics, quadrature)
    else:
        assert result.errors is None and type(result.ridge_applied) is bool
        assert result.beta_hat.shape == (2,) and result.residuals.shape == (300,)
        for matrix in (result.I_hat, result.J_hat, result.W, result.cov_beta):
            assert matrix.shape == (2, 2)
