"""Identification of scalar stochastic Wiener systems.

Estimators for y(t) = f(G(q) u(t) + v(t)) + e(t) with known FIR structure,
known static nonlinearity, and known noise variances: maximum likelihood,
optimally weighted prediction-error minimization, and indirect inference
built on the best linear approximation.
"""

from .signals import (
    Distribution,
    DistributionKind,
    Seed,
    StreamRole,
    gaussian_white,
    gen_white,
    substream,
    uniform_white,
)
from .system import (
    DataRecord,
    FirStructure,
    Nonlinearity,
    NonFiniteDataError,
    SystemSpec,
    cubic,
    identity,
    linear_output,
    paper_fir,
    polynomial,
    simulate,
)
from .numerics import (
    CostEvaluationError,
    Estimate,
    OptimizerSettings,
    QuadratureRule,
    RankDeficiencyError,
    ScalarMinResult,
    gauss_hermite,
    least_squares,
    poly_argmin,
)
from .bla import BlaEstimate, estimate_weighting, fit_bla
from .pem import (
    conditional_mean,
    conditional_variance,
    pem_estimate,
    predict,
    prediction_variance,
)
from .ml import MlSettings, QuadratureUnderflowError, ml_estimate, neg_log_likelihood
from .indirect import (
    AnalyticMap,
    SimulatedMap,
    beta_map_gaussian,
    beta_map_uniform,
    first_order_estimate,
    step2,
    zero_order_estimate,
)
from .bench import (
    ExperimentConfig,
    ExperimentResult,
    MethodSummary,
    emit_report,
    linear_baseline_std,
    load_config,
    load_ledger,
    load_raw,
    make_record,
    parse_config,
    replay_realization,
    run_experiment,
    run_method,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
