"""The benchmark's workloads: fixed Monte Carlo batches on the paper's system.

Every workload uses theta0 = 0.5, sigma_v2 = 0.2, sigma_e2 = 0.1,
sigma_u2 = 1/3 and N = 1000, with the master seed taken from the command
line.  A batch is the workload's fixed unit of work; the timed section
repeats the identical batch, so its estimates must repeat bit for bit.

- tables: the two fast paper tables (gaussian and uniform input) with
  PEM_W, II0, II1_UNW and II1_W on the analytic binding functions, each
  table run_experiment followed by emit_report.  PEM's grid scan plus Brent
  dominates; ML does no work.
- ml_column: ML alone, gaussian input, quadrature order 1000, desk scale
  off.  The likelihood's marginalization integral does nearly all the work;
  bla, pem and indirect do none.
- simulated_map: II1_UNW and II1_W on gaussian input with the simulated
  binding function (S = 10): a stacked S*N x 2 least-squares problem at
  every theta the search visits, no PEM and no analytic map.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import wienerid as w

from tracing import null_span

PAPER_SYSTEM = dict(theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3)
N_OBS = {"full": 1000, "tiny": 200}
ML_QUAD_ORDER = 1000
S_COUNT = 10

# Realizations per config in one batch.  Chosen so that one batch takes
# about 1.5 s (tables, simulated_map) or 2.3 s (ml_column) on a 2-core x86
# VM, which leaves several batches, and so a median, in a 30 s run.
REALIZATIONS = {
    "full": {"tables": 100, "ml_column": 1, "simulated_map": 30},
    "tiny": {"tables": 4, "ml_column": 2, "simulated_map": 4},
}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, w.ExperimentConfig]  # label -> config, run in order
    emit_in_batch: bool  # emit_report is part of the timed batch

    def attempts_per_batch(self) -> int:
        return sum(c.realizations * len(c.methods) for c in self.configs.values())


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's configs for one master seed."""
    base = dict(
        PAPER_SYSTEM,
        n_obs=N_OBS[size],
        realizations=REALIZATIONS[size][name],
        master_seed=seed,
        ml_quad_order=ML_QUAD_ORDER,
        desk_scale=False,
    )
    gaussian = w.DistributionKind.GAUSSIAN_WHITE
    if name == "tables":
        methods = ("PEM_W", "II0", "II1_UNW", "II1_W")
        configs = {
            kind.value: w.ExperimentConfig(input_kind=kind, methods=methods, **base)
            for kind in (gaussian, w.DistributionKind.UNIFORM_WHITE)
        }
        return Workload(name, configs, emit_in_batch=True)
    if name == "ml_column":
        config = w.ExperimentConfig(input_kind=gaussian, methods=("ML",), **base)
        return Workload(name, {name: config}, emit_in_batch=False)
    if name == "simulated_map":
        config = w.ExperimentConfig(
            input_kind=gaussian, methods=("II1_UNW", "II1_W"), s_count=S_COUNT, **base
        )
        return Workload(name, {name: config}, emit_in_batch=False)
    raise ValueError(f"unknown workload {name!r}")


def warm_up(workload: Workload) -> None:
    """Fill the caches a batch relies on (the quadrature rule among them)
    with one call per method on realization 0.  ML gets one likelihood
    evaluation instead of a whole fit."""
    for config in workload.configs.values():
        record = w.make_record(config, 0)
        for method in config.methods:
            if method == "ML":
                settings = w.MlSettings(quad_order=config.ml_quad_order)
                w.neg_log_likelihood(config.theta_o, record, config.template(), settings)
            else:
                w.run_method(config, method, record, 0)


def run_batch(workload: Workload, out_dir: Path, tracer=None) -> dict[str, w.ExperimentResult]:
    """One batch: run_experiment per config (plus emit_report where the
    workload includes it).  With a tracer, each call gets a span."""
    span = tracer.span if tracer is not None else null_span
    results = {}
    for label, config in workload.configs.items():
        with span("bench.run_experiment"):
            results[label] = w.run_experiment(config)
        if workload.emit_in_batch:
            with span("bench.emit_report"):
                w.emit_report(results[label], "csv", out_dir / label)
    return results
