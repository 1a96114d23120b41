"""Monte Carlo benchmark harness: runs the requested estimators over seeded
realizations of the true system and aggregates per-method statistics.

Every realization r derives its input, process-noise and measurement-noise
streams from (master_seed, r, role), so any cell of a finished experiment can
be replayed bit-exactly from the emitted ledger.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import bla
from .indirect import (
    SimulatedMap, analytic_binding, first_order_estimate, step2, zero_order_estimate,
    zero_order_fit,
)
from .ml import MlSettings, ml_estimate
from .numerics import Estimate, NumericsError, check_quad_order
from .pem import pem_estimate
from .signals import Distribution, DistributionKind, Seed, StreamRole, gen_white
from .system import DataRecord, SystemSpec, cubic, paper_fir, simulate

METHOD_ORDER = ("ML", "PEM_W", "II0", "II1_UNW", "II1_W")
# the methods whose Estimate carries a predicted std: the indirect ones,
# whose Step 2 run_experiment runs over every realization at once
PREDICTS_STD = ("II0", "II1_UNW", "II1_W")
# run_experiment runs PEM_W on chunks of this many records.  A chunk's
# error coefficients take 8 (deg f + 1) N bytes per record of N samples,
# and its peak memory is a few times that; chunks of 6 run the paper
# tables as fast as chunks of 8, with less of it
PEM_CHUNK = 6

# the windowed likelihood rule is already converged at this order; desk
# scale mainly caps the number of ML realizations
DESK_ML_QUAD_ORDER = 200
DESK_ML_REALIZATIONS = 200

LEDGER_FORMAT = "wienerid-ledger-v1"


@dataclass(frozen=True)
class ExperimentConfig:
    theta_o: float
    sigma_v2: float
    sigma_e2: float
    sigma_u2: float
    input_kind: DistributionKind
    n_obs: int
    realizations: int = 1
    methods: tuple[str, ...] = ("PEM_W", "II0", "II1_UNW", "II1_W")
    master_seed: Seed = 0
    ml_quad_order: int = 1000
    s_count: int | None = None
    desk_scale: bool = False

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.n_obs < 2:
            raise ValueError("n_obs must be >= 2")
        if not np.isfinite([self.theta_o, self.sigma_v2, self.sigma_e2, self.sigma_u2]).all():
            raise ValueError("theta_o and the variances must be finite")
        if min(self.sigma_v2, self.sigma_e2, self.sigma_u2) < 0:
            raise ValueError("variances must be >= 0")
        check_quad_order(self.ml_quad_order, "ml_quad_order")
        if self.s_count is not None and self.s_count < 1:
            raise ValueError("s_count must be none or >= 1")
        bad = [m for m in self.methods if m not in METHOD_ORDER]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {METHOD_ORDER}")

    def template(self) -> SystemSpec:
        """True-system description at theta_o."""
        return SystemSpec(
            fir=paper_fir(),
            theta=np.array([self.theta_o]),
            nonlinearity=cubic(),
            sigma_v2=self.sigma_v2,
            sigma_e2=self.sigma_e2,
            input_dist=Distribution(self.input_kind, self.sigma_u2),
        )


@dataclass
class MethodSummary:
    method: str
    mean: float
    std: float
    failures: int
    wall_time: float
    n_runs: int


@dataclass
class FailureRecord:
    realization: int
    method: str
    message: str


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    estimates: dict[str, np.ndarray]
    predicted_stds: dict[str, np.ndarray]
    failures: list[FailureRecord]
    wall_times: dict[str, float]
    seed_ledger: dict

    def summary(self, method: str) -> MethodSummary:
        values = self.estimates[method]
        good = values[np.isfinite(values)]
        n_fail = int(len(values) - len(good))
        return MethodSummary(
            method=method,
            mean=float(np.mean(good)) if len(good) else float("nan"),
            std=float(np.std(good, ddof=1)) if len(good) > 1 else float("nan"),
            failures=n_fail,
            wall_time=self.wall_times[method],
            n_runs=len(values),
        )

    def summaries(self) -> list[MethodSummary]:
        return [self.summary(m) for m in METHOD_ORDER if m in self.estimates]


def make_record(config: ExperimentConfig, realization: int) -> DataRecord:
    """Simulate the true system for one realization's substreams."""
    template = config.template()
    lead = template.fir.max_lag
    seed = config.master_seed
    u = gen_white(
        Distribution(config.input_kind, config.sigma_u2),
        config.n_obs + lead, seed, path=(realization, int(StreamRole.INPUT)),
    )
    v = gen_white(
        Distribution(DistributionKind.GAUSSIAN_WHITE, config.sigma_v2),
        config.n_obs, seed, path=(realization, int(StreamRole.PROCESS_NOISE)),
    )
    e = gen_white(
        Distribution(DistributionKind.GAUSSIAN_WHITE, config.sigma_e2),
        config.n_obs, seed, path=(realization, int(StreamRole.MEASUREMENT_NOISE)),
    )
    _, y = simulate(template, u, v, e)
    return DataRecord(u=u, y=y)


def _simulation_seed(config: ExperimentConfig, realization: int) -> int:
    """64-bit child seed for the simulated binding function of one realization."""
    state = np.random.SeedSequence(
        config.master_seed, spawn_key=(realization, int(StreamRole.SIMULATION))
    ).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


class _RecordContext:
    """The work every method of one record shares, each piece built on first
    use and kept: the weighted lag-(0, 1) BLA fit and, with s_count set, the
    simulated binding function.  A build that raises keeps nothing, so every
    method that needs the piece builds it again and records the same error."""

    def __init__(self, config: ExperimentConfig, record: DataRecord, realization: int):
        self.config, self.record, self.realization = config, record, realization

    @cached_property
    def fit(self) -> bla.BlaEstimate:
        return bla.estimate_weighting(self.record, bla.fit_bla(self.record, (0, 1)))

    @cached_property
    def beta_map(self) -> SimulatedMap | None:
        config = self.config
        if config.s_count is None:
            return None
        return SimulatedMap(
            self.record.u, config.template(), config.s_count,
            _simulation_seed(config, self.realization),
        )


def run_method(
    config: ExperimentConfig,
    method: str,
    record: DataRecord,
    realization: int = 0,
    *,
    context: _RecordContext | None = None,
) -> Estimate:
    """One estimator on one record.

    II1_UNW and II1_W take the BLA fit and, with s_count set, the simulated
    binding function from `context`, the record's shared work, which
    run_experiment and replay_realization build once per record; without
    one, run_method builds its own.  II0 matches its order-zero fit to the
    closed-form map.  The Step 2 of II0, II1_UNW and II1_W here is step2's
    stack of one, bit for bit a row of run_experiment's stacked Step 2, and
    PEM_W here is pem_estimate's stack of one, bit for bit a row of its
    chunks.
    ML starts its likelihood search at this function's II1_W on the same
    record and context, and scans the whole bracket where II1_W fails.
    PEM_W and Step 2 need no start: their criteria are polynomials in
    theta, minimized exactly.
    """
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}")
    template = config.template()
    if method == "II0":
        return zero_order_estimate(record, template, config.input_kind)
    if method == "PEM_W":
        return pem_estimate(record, template, weighted=True)
    if context is None:
        context = _RecordContext(config, record, realization)
    if method == "ML":
        order = DESK_ML_QUAD_ORDER if config.desk_scale else config.ml_quad_order
        try:
            start = run_method(config, "II1_W", record, realization, context=context)
        except (NumericsError, ValueError):
            start = None
        return ml_estimate(record, template, MlSettings(quad_order=order), start=start)
    return first_order_estimate(
        record, template, config.input_kind, weighted=method == "II1_W",
        beta_map=context.beta_map, fit=context.fit,
    )


def _ml_runs(config: ExperimentConfig) -> int:
    if config.desk_scale:
        return min(config.realizations, DESK_ML_REALIZATIONS)
    return config.realizations


def _failure(realization: int, method: str, exc: Exception) -> FailureRecord:
    return FailureRecord(realization, method, f"{type(exc).__name__}: {exc}")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Draw fresh input and noises per realization, run every requested method
    on the same record, and aggregate.

    ML runs record by record through run_method.  PEM_W runs once per
    chunk of PEM_CHUNK consecutive records, and once on the last partial
    chunk, as one stacked pem_estimate.  For the indirect methods the loop
    keeps only each record's auxiliary fits: II0's slope and its variance,
    and for II1_UNW and II1_W beta_hat, W, its covariance and the
    binding-function coefficients, about 20 floats; after it, one stacked
    step2 per method covers every realization.  Each stacked row is bit for
    bit run_method's estimate, and a row that fails records the error its
    own call raises.  Failures are listed by realization, then in
    METHOD_ORDER.  A method's wall time is its share of the loop plus its
    stacked calls; the record's shared fit and map go to the first method
    that needs them.
    """
    methods = [m for m in METHOD_ORDER if m in config.methods]
    runs = {m: (_ml_runs(config) if m == "ML" else config.realizations) for m in methods}
    estimates = {m: np.full(runs[m], np.nan) for m in methods}
    predicted = {m: np.full(runs[m], np.nan) for m in methods if m in PREDICTS_STD}
    wall = {m: 0.0 for m in methods}
    failures: list[FailureRecord] = []
    first_order = [m for m in methods if m in ("II1_UNW", "II1_W")]
    analytic = analytic_binding(config.template(), config.input_kind).coeffs
    beta1 = analytic[:, :1]  # II0's binding function
    # per Step 2 method: (realization, beta_hat, W, beta_cov, map coeffs, inflation) per record
    fits = {m: [] for m in methods if m in PREDICTS_STD}
    chunk: list[tuple[int, DataRecord]] = []  # the records PEM_W has yet to run on

    def run_pem_chunk():
        t0 = time.perf_counter()
        done = [r for r, _ in chunk]
        try:
            result = pem_estimate([record for _, record in chunk], config.template())
            estimates["PEM_W"][done] = result.theta_hat
            errors = result.errors
        except Exception as exc:  # noqa: BLE001 - a stack-wide error is every row's
            errors = [exc] * len(done)
        failures.extend(_failure(r, "PEM_W", e) for r, e in zip(done, errors) if e is not None)
        chunk.clear()
        wall["PEM_W"] += time.perf_counter() - t0

    for r in range(config.realizations):
        active = [m for m in methods if r < runs[m]]
        if not active:
            break
        record = make_record(config, r)
        context = _RecordContext(config, record, r)
        for m in active:
            t0 = time.perf_counter()
            if m == "PEM_W":
                chunk.append((r, record))
            elif m == "ML":
                try:
                    est = run_method(config, m, record, realization=r, context=context)
                    estimates[m][r] = est.theta_hat[0]
                except Exception as exc:  # noqa: BLE001 - per-realization isolation
                    failures.append(_failure(r, m, exc))
            elif m == "II0":
                try:
                    slope, variance = zero_order_fit(record)
                    fits[m].append((r, [slope], [[1.0]], [[variance]], beta1, 1.0))
                except Exception as exc:  # noqa: BLE001 - per-realization isolation
                    failures.append(_failure(r, m, exc))
            elif m == first_order[0]:
                try:
                    # run_method's order: the map, then the fit
                    beta_map, fit = context.beta_map, context.fit
                    coeffs = analytic if beta_map is None else beta_map.coeffs
                    inflation = 1.0 if beta_map is None else beta_map.inflation
                    for method in first_order:
                        W = fit.W if method == "II1_W" else np.eye(2)
                        fits[method].append((r, fit.beta_hat, W, fit.cov_beta, coeffs, inflation))
                except Exception as exc:  # noqa: BLE001 - per-realization isolation
                    failures.extend(_failure(r, method, exc) for method in first_order)
            wall[m] += time.perf_counter() - t0
        if len(chunk) == PEM_CHUNK:
            run_pem_chunk()
    if chunk:
        run_pem_chunk()

    for m, rows in fits.items():
        if not rows:
            continue
        t0 = time.perf_counter()
        done, beta_hat, W, beta_cov, coeffs, inflation = (list(c) for c in zip(*rows))
        beta_map = SimpleNamespace(coeffs=np.array(coeffs), inflation=np.array(inflation))
        result = step2(
            np.array(beta_hat), np.array(W), beta_map, n_obs=config.n_obs,
            beta_cov=np.array(beta_cov),
        )
        estimates[m][done] = result.theta_hat
        predicted[m][done] = result.predicted_std
        failures.extend(_failure(r, m, e) for r, e in zip(done, result.errors) if e is not None)
        wall[m] += time.perf_counter() - t0
    failures.sort(key=lambda f: (f.realization, METHOD_ORDER.index(f.method)))

    ledger = {
        "format": LEDGER_FORMAT,
        "config": config_to_dict(config),
        "stream_roles": {role.name.lower(): int(role) for role in StreamRole},
        "substream_rule": "SeedSequence(master_seed, spawn_key=(realization, role)) -> Philox",
        "runs": runs,
        "failures": [dataclasses.asdict(f) for f in failures],
    }
    return ExperimentResult(
        config=config,
        estimates=estimates,
        predicted_stds=predicted,
        failures=failures,
        wall_times=wall,
        seed_ledger=ledger,
    )


def replay_realization(config: ExperimentConfig, realization: int) -> dict[str, float]:
    """Re-run every method of one realization from its derived substreams."""
    if not 0 <= realization < config.realizations:
        raise ValueError(f"realization {realization} outside 0..{config.realizations - 1}")
    record = make_record(config, realization)
    context = _RecordContext(config, record, realization)
    out = {}
    for m in [m for m in METHOD_ORDER if m in config.methods]:
        if m == "ML" and realization >= _ml_runs(config):
            continue
        est = run_method(config, m, record, realization=realization, context=context)
        out[m] = float(est.theta_hat[0])
    return out


def linear_baseline_std(config: ExperimentConfig) -> float:
    """Asymptotic standard deviation of the identity-nonlinearity case."""
    total = config.sigma_v2 + config.sigma_e2
    if total == 0.0:
        return 0.0
    if config.sigma_u2 == 0.0:
        return float("inf")
    return float(np.sqrt(total / (config.sigma_u2 * config.n_obs)))


# --------------------------------------------------------------------------
# Config file handling: flat key = value text, keys exactly the field names.

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_REQUIRED = ("theta_o", "sigma_v2", "sigma_e2", "sigma_u2", "input_kind", "n_obs")


def _input_kind(raw) -> DistributionKind:
    try:
        return DistributionKind(str(raw).lower())
    except ValueError:
        kinds = [k.value for k in DistributionKind]
        raise ValueError(f"input_kind must be one of {kinds}, got {raw!r}") from None


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in ("theta_o", "sigma_v2", "sigma_e2", "sigma_u2"):
        return float(raw)
    if name in ("n_obs", "realizations", "ml_quad_order", "master_seed"):
        return int(raw)
    if name == "s_count":
        return None if raw.lower() in ("", "none") else int(raw)
    if name == "desk_scale":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"desk_scale must be true or false, got {raw!r}")
    if name == "input_kind":
        return _input_kind(raw)
    if name == "methods":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    raise AssertionError(name)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value experiment format; unknown keys are errors."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    out["input_kind"] = config.input_kind.value
    out["methods"] = list(config.methods)
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    data["input_kind"] = _input_kind(data["input_kind"])
    data["methods"] = tuple(data["methods"])
    return ExperimentConfig(**data)


# --------------------------------------------------------------------------
# Report emission

def emit_report(result: ExperimentResult, fmt: str = "csv", out_dir=".") -> dict[str, Path]:
    """Write summary, raw estimates, and the replayable seed ledger.

    The raw table is sorted by (realization, method) and serializes estimates
    with 17 significant digits, so reading it back reproduces every value
    bit-exactly.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    summaries = result.summaries()
    raw_rows = []
    for m in [m for m in METHOD_ORDER if m in result.estimates]:
        for r, value in enumerate(result.estimates[m]):
            if np.isfinite(value):
                raw_rows.append((r, m, float(value)))
    raw_rows.sort(key=lambda row: (row[0], METHOD_ORDER.index(row[1])))

    if fmt == "csv":
        summary_path = out / "summary.csv"
        lines = ["method,mean,std,failures,wall_time_s,runs"]
        for s in summaries:
            lines.append(
                f"{s.method},{s.mean:.17g},{s.std:.17g},{s.failures},{s.wall_time:.6f},{s.n_runs}"
            )
        summary_path.write_text("\n".join(lines) + "\n")

        raw_path = out / "raw.csv"
        lines = ["realization,method,theta_hat"]
        for r, m, value in raw_rows:
            lines.append(f"{r},{m},{value:.17g}")
        raw_path.write_text("\n".join(lines) + "\n")
    else:
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps([dataclasses.asdict(s) for s in summaries], indent=2))
        raw_path = out / "raw.json"
        raw_path.write_text(json.dumps(
            [{"realization": r, "method": m, "theta_hat": v} for r, m, v in raw_rows], indent=2,
        ))

    ledger_path = out / "ledger.json"
    ledger_path.write_text(json.dumps(result.seed_ledger, indent=2))
    paths.update(summary=summary_path, raw=raw_path, ledger=ledger_path)
    return paths


def load_raw(path) -> list[tuple[int, str, float]]:
    """Read a raw estimates file written by emit_report (csv or json); a file
    that is not one (empty, a bad header or row) raises ValueError naming it."""
    path = Path(path)
    text = path.read_text()
    try:
        if path.suffix == ".json":
            rows = [(r["realization"], r["method"], r["theta_hat"]) for r in json.loads(text)]
        else:
            header, *lines = text.strip().splitlines() or [""]
            if header != "realization,method,theta_hat":
                raise ValueError(f"unexpected header {header!r}")
            rows = [line.split(",") for line in lines]
        return [(int(r), m, float(v)) for r, m, v in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a raw estimates file ({type(exc).__name__}: {exc})") from exc


def load_ledger(path) -> ExperimentConfig:
    """Recover the experiment configuration from an emitted ledger."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != LEDGER_FORMAT:
        raise ValueError(f"{path}: not a {LEDGER_FORMAT} ledger")
    return config_from_dict(data["config"])
