"""Monte Carlo benchmark harness: runs the requested estimators over seeded
realizations of the true system and aggregates per-method statistics.

Every realization r derives its input, process-noise and measurement-noise
streams from (master_seed, r, role), so any cell of a finished experiment can
be replayed bit-exactly from the emitted ledger.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import bla
from .indirect import FIRST_ORDER_LAGS, SimulatedMap, analytic_binding, step2, zero_order_fit
from .ml import MlSettings, ml_estimate
from .numerics import Estimate, NumericsError, RowErrors, check_quad_order
from .pem import pem_estimate
from .signals import Distribution, DistributionKind, Seed, StreamRole, check_seed, gen_white
from .system import DataRecord, SystemSpec, cubic, paper_fir, simulate

METHOD_ORDER = ("ML", "PEM_W", "II0", "II1_UNW", "II1_W")
# the methods whose Estimate carries a predicted std: the indirect ones,
# whose Step 2 run_experiment runs over every realization at once
PREDICTS_STD = ("II0", "II1_UNW", "II1_W")
# _run runs PEM_W, the order-zero fit and the lag-(0, 1) BLA fit once per
# chunk of this many records.  PEM_W's error coefficients take
# 8 (deg f + 1) N bytes per record of N samples, and a chunk's peak memory
# is a few times that.  Chunks of 8 ran both 100-realization tables about
# 15% faster than chunks of 6 in one process, but raised the benchmark's
# peak RSS by more than 1 MB over single-record Step 1 fits, and chunks of 6
# by 0.4 MB (README)
CHUNK = 6

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
    """Simulate the true system for the substreams of one realization, an
    integer >= 0 (check_seed)."""
    check_seed(realization, "realization")
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
    run_experiment, run_method and replay_realization.  The records come in
    realization order, so row j of a chunk's fit is every method's j-th.

    The loop gathers chunks of up to CHUNK records.  Per chunk, PEM_W, the
    order-zero fit of II0 and the lag-(0, 1) BLA fit with its weighting,
    shared by II1_UNW, II1_W and ML, each run once on the chunk's records;
    with s_count set, each record's simulated map is built first, and a
    record whose map fails gets that error rather than its fit's.  Every
    stacked call follows one rule: a row fails with its numerics.RowErrors
    entry, and an exception the call raises as a whole fails every row of
    its chunk.  The indirect methods keep each record's auxiliary fit
    (about 20 floats) and run one stacked step2 each after the loop.  ML
    runs per record, started at the stack of one step2 of its record's
    II1_W row, or scanning the whole bracket where that raises
    NumericsError or ValueError.

    Returns per method its (realizations, outcome) pairs, an outcome being a
    stacked Estimate, ML's single one or the exception raised, and per
    method its wall time: its share of each chunk plus its stacked call, the
    chunk's shared fit and maps going to the first method that needs them.
    """
    template = config.template()
    analytic = analytic_binding(template)
    order = DESK_ML_QUAD_ORDER if config.desk_scale else config.ml_quad_order
    settings = MlSettings(quad_order=order)
    outcomes = {m: [] for m in runs}
    wall = dict.fromkeys(runs, 0.0)
    # per Step 2 method: (realization, beta_hat, W, beta_cov, map coeffs, inflation) per record
    fits = {m: [] for m in runs if m in PREDICTS_STD}
    lag_one = [m for m in ("ML", "II1_UNW", "II1_W") if m in runs]

    def lag_one_fits(chunk):
        """The weighted fit (None if it raised), maps and RowErrors of the
        chunk's records that ML, II1_UNW or II1_W run on, map errors first."""
        chunk = [(r, record) for r, record in chunk if any(r < runs[m] for m in lag_one)]
        records = [record for _, record in chunk]
        errors, maps, fit = RowErrors([None] * len(chunk)), [analytic] * len(chunk), None
        if config.s_count is not None:
            for j, (r, record) in enumerate(chunk):
                try:
                    maps[j] = SimulatedMap(
                        record.u, template, config.s_count, _simulation_seed(config, r))
                except Exception as exc:  # noqa: BLE001 - per-realization isolation
                    errors[j] = exc
        try:
            fit = bla.estimate_weighting(records, bla.fit_bla(records, FIRST_ORDER_LAGS))
            errors.merge(fit.errors)
        except Exception as exc:  # noqa: BLE001 - a stack-wide error is every row's
            errors.merge([exc] * len(chunk))
        return fit, maps, errors

    def run_chunk(chunk) -> None:
        shared = None  # lag_one_fits of the chunk, once a method needs them
        for m in runs:
            mine = [(r, record) for r, record in chunk if r < runs[m]]
            if not mine:
                continue
            done = [r for r, _ in mine]
            t0 = time.perf_counter()
            if m in lag_one and shared is None:
                shared = lag_one_fits(chunk)
            try:
                if m == "PEM_W":
                    outcomes[m].append((done, pem_estimate([d for _, d in mine], template)))
                elif m == "II0":
                    slope, variance, errors = zero_order_fit([d for _, d in mine])
                    keep(m, done, errors, lambda j: (
                        [slope[j]], [[1.0]], [[variance[j]]], analytic.coeffs[:, :1], 1.0))
                elif m == "ML":
                    for j, (r, record) in enumerate(mine):
                        outcomes[m].append(([r], run_ml(record, shared, j)))
                else:
                    fit, maps, errors = shared
                    keep(m, done, errors, lambda j: (
                        fit.beta_hat[j], fit.W[j] if m == "II1_W" else np.eye(2),
                        fit.cov_beta[j], maps[j].coeffs, maps[j].inflation))
            except Exception as exc:  # noqa: BLE001 - a stack-wide error is every row's
                outcomes[m].append((done, exc))
            wall[m] += time.perf_counter() - t0

    def keep(m: str, done: list, errors: RowErrors, row) -> None:
        """Step 2's input row(j) of each realization done[j], or its error."""
        for j, (r, ok) in enumerate(zip(done, errors.ok)):
            if ok:
                fits[m].append((r, *row(j)))
            else:
                outcomes[m].append(([r], errors[j]))

    def run_ml(record: DataRecord, shared, j: int):
        try:
            fit, maps, errors = shared
            try:  # the start: the stack of one step2 of II1_W
                errors.check(j)
                start = step2(fit.beta_hat[j], fit.W[j], maps[j], beta_cov=fit.cov_beta[j])
            except (NumericsError, ValueError):
                start = None  # scan the whole bracket
            return ml_estimate(record, template, settings, start=start)
        except Exception as exc:  # noqa: BLE001 - per-realization isolation
            return exc

    records = iter(records)
    while chunk := list(itertools.islice(records, CHUNK)):
        run_chunk(chunk)

    for m, rows in fits.items():
        if rows:
            t0 = time.perf_counter()
            done, *stacks = zip(*rows)
            beta_hat, W, beta_cov, coeffs, inflation = map(np.array, stacks)
            beta_map = SimpleNamespace(coeffs=coeffs, inflation=inflation)
            outcomes[m].append((list(done), step2(beta_hat, W, beta_map, beta_cov=beta_cov)))
            wall[m] += time.perf_counter() - t0
    return outcomes, wall


def _estimate(outcome) -> Estimate:
    """The Estimate of a one-record outcome of _run, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome if outcome.errors is None else outcome.row(0)


def run_method(
    config: ExperimentConfig, method: str, record: DataRecord, realization: int = 0
) -> Estimate:
    """One estimator on one record of any length: run_experiment's record
    loop on this record alone, so the estimate is bit for bit that
    realization's cell of the experiment, and a failure raises the error the
    experiment records.  realization, an integer >= 0 (check_seed), seeds
    the simulated map."""
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}")
    check_seed(realization, "realization")
    outcomes, _ = _run(config, {method: realization + 1}, [(realization, record)])
    ((_, outcome),) = outcomes[method]
    return _estimate(outcome)


def _single_config(spec_template: SystemSpec, input_kind, data: DataRecord, method: str):
    """The one-method config of the template's noise variances and input
    distribution (of input_kind when given), for run_method on data.  A
    template of another FIR or nonlinearity than the paper's, which the
    closed-form map does not describe, raises ValueError."""
    if spec_template.fir != paper_fir() or spec_template.nonlinearity != cubic():
        raise ValueError("the closed-form map describes the paper's FIR and cubic alone, got "
                         f"{spec_template.fir} and {spec_template.nonlinearity}")
    dist = spec_template.input_dist
    return ExperimentConfig(
        theta_o=float(spec_template.theta[0]), sigma_v2=spec_template.sigma_v2,
        sigma_e2=spec_template.sigma_e2, sigma_u2=dist.variance,
        input_kind=dist.kind if input_kind is None else input_kind, n_obs=data.n_obs,
        methods=(method,))


def zero_order_estimate(
    data: DataRecord, spec_template: SystemSpec, input_kind: DistributionKind | None = None
) -> Estimate:
    """II0 on one record: run_method on the template's config
    (`_single_config`), so bit for bit that record's II0 cell."""
    return run_method(_single_config(spec_template, input_kind, data, "II0"), "II0", data)


def first_order_estimate(
    data: DataRecord,
    spec_template: SystemSpec,
    input_kind: DistributionKind | None = None,
    weighted: bool = True,
) -> Estimate:
    """II1_W, or II1_UNW when not weighted, on one record: run_method on
    the template's config (`_single_config`), so bit for bit that record's
    cell of the method."""
    method = "II1_W" if weighted else "II1_UNW"
    return run_method(_single_config(spec_template, input_kind, data, method), method, data)


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
                errors = () if outcome.errors is None else outcome.errors
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
    """Re-run every method of one realization, an integer in
    0..realizations - 1, from its derived substreams; a method that failed
    there raises its error."""
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
