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
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import bla
from .indirect import SimulatedMap, analytic_binding, step2, zero_order_fit
from .ml import MlSettings, ml_estimate
from .numerics import Estimate, NumericsError, StackEstimate, check_quad_order
from .pem import pem_estimate
from .signals import Distribution, DistributionKind, Seed, StreamRole, check_seed, gen_white
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
        if not self.methods:
            raise ValueError(f"methods must name at least one of {METHOD_ORDER}")
        bad = [m for m in self.methods if m not in METHOD_ORDER]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {METHOD_ORDER}")
        check_seed(self.master_seed, "master_seed")

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
        return MethodSummary(
            method=method,
            mean=float(np.mean(good)) if len(good) else float("nan"),
            std=float(np.std(good, ddof=1)) if len(good) > 1 else float("nan"),
            failures=len(values) - len(good),
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


def _ml_runs(config: ExperimentConfig) -> int:
    if config.desk_scale:
        return min(config.realizations, DESK_ML_REALIZATIONS)
    return config.realizations


def _runs(config: ExperimentConfig) -> dict[str, int]:
    """The number of realizations each requested method runs on, in METHOD_ORDER."""
    return {
        m: _ml_runs(config) if m == "ML" else config.realizations
        for m in METHOD_ORDER if m in config.methods
    }


def _run(config: ExperimentConfig, runs: dict[str, int], records) -> tuple[dict, dict]:
    """Run each method m of `runs` on the (realization, record) pairs of
    `records` with realization < runs[m]: the record loop behind
    run_experiment, run_method and replay_realization.

    Per record, II1_UNW, II1_W and ML share one lag-(0, 1) BLA fit with its
    weighting and, with s_count set, one simulated map, built map first.
    PEM_W runs once per chunk of up to PEM_CHUNK records.  The indirect
    methods keep each record's auxiliary fit (about 20 floats) and run one
    stacked step2 each after the loop, with n_obs from the records.  ML
    starts its search at the stack of one step2 of its record's II1_W row,
    or scans the whole bracket where that raises NumericsError or ValueError.

    Returns per method its (realizations, outcome) pairs, an outcome being a
    StackEstimate, ML's Estimate or the exception raised, and per method its
    wall time: its share of the loop plus its stacked call, the record's
    shared fit and map going to the first method that needs them.
    """
    template = config.template()
    analytic = analytic_binding(template, config.input_kind)
    order = DESK_ML_QUAD_ORDER if config.desk_scale else config.ml_quad_order
    settings = MlSettings(quad_order=order)
    outcomes = {m: [] for m in runs}
    wall = dict.fromkeys(runs, 0.0)
    # per Step 2 method: (realization, beta_hat, W, beta_cov, map coeffs, inflation) per record
    fits = {m: [] for m in runs if m in PREDICTS_STD}
    chunk: list[tuple[int, DataRecord]] = []  # the records PEM_W has yet to run on

    def run_pem_chunk():
        t0 = time.perf_counter()
        try:
            outcome = pem_estimate([record for _, record in chunk], template)
        except Exception as exc:  # noqa: BLE001 - a stack-wide error is every row's
            outcome = exc
        outcomes["PEM_W"].append(([r for r, _ in chunk], outcome))
        chunk.clear()
        wall["PEM_W"] += time.perf_counter() - t0

    for r, record in records:
        n_obs = record.n_obs
        shared = None  # the record's (BLA fit, map), or the error building them raised
        for m in [m for m in runs if r < runs[m]]:
            t0 = time.perf_counter()
            if m == "PEM_W":
                chunk.append((r, record))
            elif m == "II0":
                try:
                    slope, variance = zero_order_fit(record)
                    fits[m].append((r, [slope], [[1.0]], [[variance]], analytic.coeffs[:, :1], 1.0))
                except Exception as exc:  # noqa: BLE001 - per-realization isolation
                    outcomes[m].append(([r], exc))
            else:
                if shared is None:
                    try:
                        beta_map = analytic if config.s_count is None else SimulatedMap(
                            record.u, template, config.s_count, _simulation_seed(config, r))
                        fit = bla.estimate_weighting(record, bla.fit_bla(record, (0, 1)))
                        shared = fit, beta_map
                    except Exception as exc:  # noqa: BLE001 - per-realization isolation
                        shared = exc
                if m == "ML":
                    try:
                        try:  # the start: the stack of one step2 of II1_W
                            if isinstance(shared, Exception):
                                raise shared
                            fit, beta_map = shared
                            start = step2(
                                fit.beta_hat, fit.W, beta_map, n_obs=n_obs, beta_cov=fit.cov_beta)
                        except (NumericsError, ValueError):
                            start = None  # scan the whole bracket
                        outcome = ml_estimate(record, template, settings, start=start)
                    except Exception as exc:  # noqa: BLE001 - per-realization isolation
                        outcome = exc
                    outcomes[m].append(([r], outcome))
                elif isinstance(shared, Exception):
                    outcomes[m].append(([r], shared))
                else:
                    fit, beta_map = shared
                    W = fit.W if m == "II1_W" else np.eye(2)
                    coeffs, inflation = beta_map.coeffs, beta_map.inflation
                    fits[m].append((r, fit.beta_hat, W, fit.cov_beta, coeffs, inflation))
            wall[m] += time.perf_counter() - t0
        if len(chunk) == PEM_CHUNK:
            run_pem_chunk()
    if chunk:
        run_pem_chunk()

    for m, rows in fits.items():
        if rows:
            t0 = time.perf_counter()
            done, *stacks = zip(*rows)
            beta_hat, W, beta_cov, coeffs, inflation = map(np.array, stacks)
            beta_map = SimpleNamespace(coeffs=coeffs, inflation=inflation)
            outcome = step2(beta_hat, W, beta_map, n_obs=n_obs, beta_cov=beta_cov)
            outcomes[m].append((list(done), outcome))
            wall[m] += time.perf_counter() - t0
    return outcomes, wall


def _estimate(outcome) -> Estimate:
    """The Estimate of a one-record outcome of _run, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.row(0) if isinstance(outcome, StackEstimate) else outcome


def run_method(
    config: ExperimentConfig, method: str, record: DataRecord, realization: int = 0
) -> Estimate:
    """One estimator on one record of any length: run_experiment's record
    loop on this record alone, so the estimate is bit for bit that
    realization's cell of the experiment, and a failure raises the error the
    experiment records.  realization (>= 0) seeds the simulated map."""
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}")
    outcomes, _ = _run(config, {method: realization + 1}, [(realization, record)])
    ((_, outcome),) = outcomes[method]
    return _estimate(outcome)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Draw fresh input and noises per realization, run every requested method
    on the same record (`_run`), and aggregate.

    make_record is called once per realization, in order.  ML runs on the
    first _ml_runs(config) realizations.  Failures are listed by
    realization, then in METHOD_ORDER.
    """
    runs = _runs(config)
    records = ((r, make_record(config, r)) for r in range(max(runs.values())))
    outcomes, wall = _run(config, runs, records)
    estimates = {m: np.full(n, np.nan) for m, n in runs.items()}
    predicted = {m: np.full(n, np.nan) for m, n in runs.items() if m in PREDICTS_STD}
    failures: list[FailureRecord] = []
    for m, pairs in outcomes.items():
        for done, outcome in pairs:
            if isinstance(outcome, Exception):
                errors = [outcome] * len(done)
            else:
                estimates[m][done] = outcome.theta_hat
                if m in predicted:
                    predicted[m][done] = outcome.predicted_std
                errors = outcome.errors if isinstance(outcome, StackEstimate) else ()
            failures.extend(
                FailureRecord(r, m, f"{type(e).__name__}: {e}") for r, e in zip(done, errors) if e
            )
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
    """Re-run every method of one realization from its derived substreams;
    a method that failed there raises its error."""
    if not 0 <= realization < config.realizations:
        raise ValueError(f"realization {realization} outside 0..{config.realizations - 1}")
    outcomes, _ = _run(config, _runs(config), [(realization, make_record(config, realization))])
    return {m: float(_estimate(o).theta_hat[0]) for m, pairs in outcomes.items() for _, o in pairs}


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
    return {"summary": summary_path, "raw": raw_path, "ledger": ledger_path}


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
    """Recover the experiment configuration from an emitted ledger; a file
    that is not one (not JSON, another format, a bad config) raises
    ValueError naming it."""
    try:
        data = json.loads(Path(path).read_text())
        if data.get("format") != LEDGER_FORMAT:
            raise ValueError(f"format {data.get('format')!r}")
        return config_from_dict(data["config"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        message = f"{path}: not a {LEDGER_FORMAT} ledger ({type(exc).__name__}: {exc})"
        raise ValueError(message) from exc
