"""Direct probes of each layer's functions on one realization's record.

A traced run calls these after its timed batches, one span per call, so
every per-layer metric is measured on every workload's data, whichever
estimators the workload itself runs.
"""

from __future__ import annotations

import warnings

import numpy as np

import wienerid as w
import workloads


def _evals(report) -> int:
    """Cost evaluations of one scalar search."""
    return int(report.diagnostics.iterations)


def _theta(report) -> float:
    return float(np.ravel(report.theta_hat)[0])


def probe_realization(tracer, label: str, config: w.ExperimentConfig, realization: int,
                      fit_ml: bool, cold_quadrature: bool) -> dict:
    """Probe every layer on realization `realization` of `config`.

    The ML fit (seconds at order 1000) and the cold quadrature build (a
    cache clear followed by a rebuild) run only when asked, so a run can
    limit them to its first few realizations.
    """
    r = realization
    template = config.template()
    kind = config.input_kind
    ml_settings = w.MlSettings(quad_order=config.ml_quad_order)
    out = {"label": label, "estimates": {}}

    def timed(name, fn, *args, **kwargs):
        with tracer.span(name, r):
            return fn(*args, **kwargs)

    with tracer.span("probe.realization", r), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ridge warning is counted below
        record = w.make_record(config, r)
        timed(
            "signals.gen_white", w.gen_white, w.Distribution(kind, config.sigma_u2),
            len(record.u), config.master_seed, path=(r, int(w.StreamRole.INPUT)),
        )

        phi = record.regressors((0, 1))
        stacked_phi = np.tile(phi, (workloads.S_COUNT, 1))
        stacked_y = np.tile(record.y, workloads.S_COUNT)
        timed("numerics.least_squares", w.least_squares, stacked_phi, stacked_y)

        est = timed("bla.fit_bla", w.fit_bla, record, lags=(0, 1))
        est = timed("bla.estimate_weighting", w.estimate_weighting, record, est)
        out["ridge"] = bool(est.ridge_applied)

        unweighted = timed("pem.fit_unweighted", w.pem_estimate, record, template, weighted=False)
        with tracer.span("pem.fit", r) as span:
            pem = w.pem_estimate(record, template, weighted=True)
        # the weighted fit repeats the unweighted search before its final one
        out["pem_evals"] = _evals(unweighted) + _evals(pem)
        out["pem_ms_per_eval"] = span.seconds * 1e3 / out["pem_evals"]
        out["estimates"]["PEM_W"] = _theta(pem)

        ii0 = timed("indirect.ii0", w.zero_order_estimate, record, template, kind)
        ii1_unw = timed("indirect.ii1_unw", w.first_order_estimate, record, template, kind, weighted=False)
        ii1_w = timed("indirect.ii1_w", w.first_order_estimate, record, template, kind, weighted=True)
        out["step2_evals"] = [_evals(ii1_unw), _evals(ii1_w)]
        out["estimates"].update(II0=_theta(ii0), II1_UNW=_theta(ii1_unw), II1_W=_theta(ii1_w))
        out["pred_std_II1_W"] = float(ii1_w.predicted_std)

        sim_seed = (config.master_seed + r) % 2**64
        sim_map = timed(
            "indirect.simulated_map_build", w.SimulatedMap, record.u, template,
            workloads.S_COUNT, sim_seed,
        )
        timed("indirect.simulated_map_eval", sim_map, config.theta_o)

        if cold_quadrature:
            w.gauss_hermite.cache_clear()
            timed("numerics.gauss_hermite_cold", w.gauss_hermite, config.ml_quad_order)
        timed("ml.nll_eval", w.neg_log_likelihood, config.theta_o, record, template, ml_settings)
        if fit_ml:
            ml = timed("ml.fit", w.ml_estimate, record, template, ml_settings)
            out["ml_evals"] = _evals(ml)
            out["estimates"]["ML"] = _theta(ml)
    return out
