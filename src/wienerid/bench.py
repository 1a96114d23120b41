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

import numpy as np

from . import bla
from .indirect import FIRST_ORDER_LAGS, ZERO_ORDER_LAGS, SimulatedMap, analytic_binding, step2
from .ml import MlSettings, ml_estimate
from .numerics import Estimate, NumericsError, RowErrors, check_quad_order
from .pem import pem_estimate
from .signals import Distribution, DistributionKind, Seed, StreamRole, check_seed, gen_white
from .system import DataRecord, SystemSpec, cubic, paper_fir, simulate

METHOD_ORDER = ("ML", "PEM_W", "II0", "II1_UNW", "II1_W")
# the methods whose Estimate carries a predicted std: the indirect ones,
# whose Step 2 run_experiment runs over every realization at once
PREDICTS_STD = ("II0", "II1_UNW", "II1_W")
# the lags of the weighted BLA fit each method reads: II0 inverts the
# order-zero fit, and ML starts from II1_W's step2
AUXILIARY_LAGS = {"ML": FIRST_ORDER_LAGS, "II0": ZERO_ORDER_LAGS,
                  "II1_UNW": FIRST_ORDER_LAGS, "II1_W": FIRST_ORDER_LAGS}
# _run runs PEM_W and the weighted BLA fit at each set of lags once per
# chunk of this many records.  PEM_W's error coefficients take
# 8 (deg f + 1) N bytes per record of N samples, and a chunk's peak memory
# is a few times that.  Chunks of 8 ran both 100-realization tables about
# 15% faster than chunks of 6 in one process, but raised the benchmark's
# peak RSS by more than 1 MB over single-record Step 1 fits, and chunks of 6
# by 0.4 MB (README)
CHUNK = 6

# the windowed likelihood rule is already converged at this order; desk
# scale also caps the realizations of an experiment that runs ML
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


def _realizations(config: ExperimentConfig) -> int:
    """The number of realizations every method runs on: desk scale caps an
    experiment that runs ML at DESK_ML_REALIZATIONS."""
    if config.desk_scale and "ML" in config.methods:
        return min(config.realizations, DESK_ML_REALIZATIONS)
    return config.realizations


def _run(config: ExperimentConfig, methods, records) -> tuple[dict, dict]:
    """Run each of `methods`, in METHOD_ORDER, on every (realization,
    record) pair of `records`: the record loop behind run_experiment,
    run_method and replay_realization.  The records come in realization
    order, so row j of a chunk's fit is every method's j-th.

    The loop gathers chunks of up to CHUNK records.  Per chunk, PEM_W and
    the weighted BLA fit at each set of AUXILIARY_LAGS, the order-zero one
    of II0 and the lag-(0, 1) one shared by II1_UNW, II1_W and ML, each run
    once on the chunk's records; with s_count set, each record's simulated
    map is built before the lag-(0, 1) fit (II0 always reads the closed-form
    map), and a record whose map fails gets that error rather than its
    fit's.  Every stacked call follows one rule: a row fails with its
    numerics.RowErrors entry, and an exception the call raises as a whole
    fails every row of its chunk.  The indirect methods keep each record's
    Step 2 row, step2's own arguments (`step2_row`: about 20 floats), and
    each runs one stacked step2 on its rows after the loop.  ML runs per
    record, started at step2 of its record's II1_W row, or scanning the
    whole bracket where that raises NumericsError or ValueError.

    Returns per method its (realizations, outcome) pairs, an outcome being a
    stacked Estimate, ML's single one or the exception raised, and per
    method its wall time: its share of each chunk plus its stacked call, the
    chunk's shared fit and maps going to the first method that needs them.
    """
    methods = [m for m in METHOD_ORDER if m in methods]
    template = config.template()
    analytic = analytic_binding(template)
    order = DESK_ML_QUAD_ORDER if config.desk_scale else config.ml_quad_order
    settings = MlSettings(quad_order=order)
    outcomes = {m: [] for m in methods}
    wall = dict.fromkeys(methods, 0.0)
    # per Step 2 method: (realization, step2_row) per record
    rows = {m: [] for m in methods if m in PREDICTS_STD}

    def auxiliary_fits(chunk, lags):
        """The weighted fit at lags (None if it raised), maps and RowErrors
        of the chunk's records, map errors first."""
        records = [record for _, record in chunk]
        errors, maps, fit = RowErrors([None] * len(chunk)), [analytic] * len(chunk), None
        if config.s_count is not None and lags == FIRST_ORDER_LAGS:
            for j, (r, record) in enumerate(chunk):
                try:
                    maps[j] = SimulatedMap(
                        record.u, template, config.s_count, _simulation_seed(config, r))
                except Exception as exc:  # noqa: BLE001 - per-realization isolation
                    errors[j] = exc
        try:
            fit = bla.estimate_weighting(records, bla.fit_bla(records, lags))
            errors.merge(fit.errors)
        except Exception as exc:  # noqa: BLE001 - a stack-wide error is every row's
            errors.merge([exc] * len(chunk))
        return fit, maps, errors

    def step2_row(m: str, fit, maps, j: int) -> tuple:
        """step2's arguments for record j of the chunk: beta_hat, W for
        II1_W or else the identity, the map's first len(lags) columns, and
        cov_beta times the map's inflation."""
        width = fit.order
        return (fit.beta_hat[j], fit.W[j] if m == "II1_W" else np.eye(width),
                maps[j].coeffs[:, :width], fit.cov_beta[j] * maps[j].inflation)

    def run_chunk(chunk) -> None:
        shared = {}  # auxiliary_fits of the chunk by lags, once a method needs them
        done = [r for r, _ in chunk]
        for m in methods:
            t0 = time.perf_counter()
            lags = AUXILIARY_LAGS.get(m)
            if lags is not None and lags not in shared:
                shared[lags] = auxiliary_fits(chunk, lags)
            try:
                if m == "PEM_W":
                    outcomes[m].append((done, pem_estimate([d for _, d in chunk], template)))
                elif m == "ML":
                    for j, (r, record) in enumerate(chunk):
                        outcomes[m].append(([r], run_ml(record, shared[lags], j)))
                else:
                    fit, maps, errors = shared[lags]
                    for j, r in enumerate(done):
                        if errors.ok[j]:
                            rows[m].append((r, step2_row(m, fit, maps, j)))
                        else:
                            outcomes[m].append(([r], errors[j]))
            except Exception as exc:  # noqa: BLE001 - a stack-wide error is every row's
                outcomes[m].append((done, exc))
            wall[m] += time.perf_counter() - t0

    def run_ml(record: DataRecord, shared, j: int):
        try:
            fit, maps, errors = shared
            try:  # the start: step2 of the record's II1_W row
                errors.check(j)
                start = step2(*step2_row("II1_W", fit, maps, j))
            except (NumericsError, ValueError):
                start = None  # scan the whole bracket
            return ml_estimate(record, template, settings, start=start)
        except Exception as exc:  # noqa: BLE001 - per-realization isolation
            return exc

    records = iter(records)
    while chunk := list(itertools.islice(records, CHUNK)):
        run_chunk(chunk)

    for m, stack in rows.items():
        if stack:
            t0 = time.perf_counter()
            done, args = zip(*stack)
            outcomes[m].append((list(done), step2(*map(np.array, zip(*args)))))
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
    outcomes, _ = _run(config, (method,), [(realization, record)])
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

    Every method runs on the first _realizations(config) realizations, and
    make_record is called once per realization, in order.  Failures are
    listed by realization, then in METHOD_ORDER.
    """
    runs = _realizations(config)
    records = ((r, make_record(config, r)) for r in range(runs))
    outcomes, wall = _run(config, config.methods, records)
    estimates = {m: np.full(runs, np.nan) for m in outcomes}
    predicted = {m: np.full(runs, np.nan) for m in outcomes if m in PREDICTS_STD}
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
        "runs": dict.fromkeys(outcomes, runs),
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
    0..runs - 1 with runs = _realizations(config), from its derived
    substreams; a method that failed there raises its error."""
    runs = _realizations(config)
    if not 0 <= realization < runs:
        raise ValueError(f"realization {realization} outside 0..{runs - 1}")
    outcomes, _ = _run(config, config.methods, [(realization, make_record(config, realization))])
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


# the keys whose text is a number, each with its type
_NUMBERS = {"theta_o": float, "sigma_v2": float, "sigma_e2": float, "sigma_u2": float,
            "n_obs": int, "realizations": int, "ml_quad_order": int, "master_seed": int,
            "s_count": int}


def _parse_value(name: str, raw: str):
    """The value of key `name` from its text; ValueError naming the key
    when the text is none of its values."""
    raw = raw.strip()
    if name == "s_count" and raw.lower() in ("", "none"):
        return None
    if name in _NUMBERS:
        try:
            return _NUMBERS[name](raw)
        except ValueError:
            what = "a number" if _NUMBERS[name] is float else "an integer"
            raise ValueError(f"{name} must be {what}, got {raw!r}") from None
    if name == "desk_scale":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"desk_scale must be true or false, got {raw!r}")
    if name == "input_kind":
        try:
            return DistributionKind(raw.lower())
        except ValueError:
            kinds = [k.value for k in DistributionKind]
            raise ValueError(f"input_kind must be one of {kinds}, got {raw!r}") from None
    if name == "methods":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    raise AssertionError(name)


def _read_config(entries) -> ExperimentConfig:
    """The config of (place, key, text) entries, each value read from its
    text by _parse_value.  An unknown or repeated key raises ValueError
    naming its place, and so do missing required keys."""
    values: dict = {}
    for place, key, raw in entries:
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{place}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{place}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value experiment format; unknown keys are errors."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        entries.append((f"line {lineno}", key, raw))
    return _read_config(entries)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    out["input_kind"] = config.input_kind.value
    out["methods"] = list(config.methods)
    return out


def _config_text(value) -> str:
    """The .cfg text of a JSON value: a string as itself, null as none, a
    list of strings without commas as their comma-separated list, and any
    other value as its JSON text, so 3.0 is no integer and true no number."""
    if isinstance(value, list) and all(isinstance(v, str) and "," not in v for v in value):
        return ", ".join(value)
    if value is None:
        return "none"
    return value if isinstance(value, str) else json.dumps(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config of config_to_dict's dict, each value read by the .cfg
    rules from its text (_config_text)."""
    return _read_config(("config", key, _config_text(value)) for key, value in data.items())


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
