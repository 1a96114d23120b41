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

import numpy as np

from .indirect import SimulatedMap, first_order_estimate, zero_order_estimate
from .ml import MlSettings, ml_estimate
from .numerics import Estimate, NumericsError
from .pem import pem_estimate
from .signals import Distribution, DistributionKind, Seed, StreamRole, gen_white
from .system import DataRecord, SystemSpec, cubic, paper_fir, simulate

METHOD_ORDER = ("ML", "PEM_W", "II0", "II1_UNW", "II1_W")
# the methods whose Estimate carries a predicted std
PREDICTS_STD = ("II0", "II1_UNW", "II1_W")

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
        if self.ml_quad_order < 1:
            raise ValueError("ml_quad_order must be >= 1")
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


def run_method(
    config: ExperimentConfig, method: str, record: DataRecord, realization: int = 0,
    ii0: Estimate | None = None,
) -> Estimate:
    """One estimator on one record.

    II0 is closed form (about 0.1 ms) and consistent, so every scalar search
    starts at its estimate: PEM_W, and Step 2 of II1_UNW and II1_W.  ML
    starts at this function's II1_W on the same record.  `ii0` is II0's
    Estimate on this record when the caller already made it (`run_experiment`
    fits II0 once per record); without it, II0 is fitted here.  Where II0
    fails, the searches scan the whole bracket; where II1_W fails, so does ML.
    """
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}")
    template = config.template()
    if method == "II0":
        return zero_order_estimate(record, template, config.input_kind)
    if ii0 is None:
        try:
            ii0 = zero_order_estimate(record, template, config.input_kind)
        except (NumericsError, ValueError):
            pass
    if method == "ML":
        order = DESK_ML_QUAD_ORDER if config.desk_scale else config.ml_quad_order
        try:
            start = run_method(config, "II1_W", record, realization, ii0)
        except (NumericsError, ValueError):
            start = None
        return ml_estimate(record, template, MlSettings(quad_order=order), start=start)
    if method == "PEM_W":
        return pem_estimate(record, template, weighted=True, start=ii0)
    sim_map = None
    if config.s_count is not None:
        sim_map = SimulatedMap(
            record.u, template, config.s_count, _simulation_seed(config, realization)
        )
    return first_order_estimate(
        record, template, config.input_kind, weighted=method == "II1_W", beta_map=sim_map,
        start=ii0,
    )


def _ml_runs(config: ExperimentConfig) -> int:
    if config.desk_scale:
        return min(config.realizations, DESK_ML_REALIZATIONS)
    return config.realizations


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Draw fresh input and noises per realization, run every requested method
    on the same record, and aggregate."""
    methods = [m for m in METHOD_ORDER if m in config.methods]
    runs = {m: (_ml_runs(config) if m == "ML" else config.realizations) for m in methods}
    estimates = {m: np.full(runs[m], np.nan) for m in methods}
    predicted = {m: np.full(runs[m], np.nan) for m in methods if m in PREDICTS_STD}
    wall = {m: 0.0 for m in methods}
    failures: list[FailureRecord] = []

    # II0 runs first: its estimate seeds every other method on the record
    order = sorted(methods, key=lambda m: m != "II0")
    for r in range(config.realizations):
        active = [m for m in order if r < runs[m]]
        if not active:
            break
        record = make_record(config, r)
        ii0 = None
        for m in active:
            t0 = time.perf_counter()
            try:
                est = run_method(config, m, record, realization=r, ii0=ii0)
                if m == "II0":
                    ii0 = est
                estimates[m][r] = est.theta_hat[0]
                if m in predicted and est.predicted_std is not None:
                    predicted[m][r] = est.predicted_std
            except Exception as exc:  # noqa: BLE001 - per-realization isolation
                failures.append(FailureRecord(r, m, f"{type(exc).__name__}: {exc}"))
            wall[m] += time.perf_counter() - t0

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
    out = {}
    for m in [m for m in METHOD_ORDER if m in config.methods]:
        if m == "ML" and realization >= _ml_runs(config):
            continue
        out[m] = float(run_method(config, m, record, realization=realization).theta_hat[0])
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
    """Read a raw estimates file written by emit_report (csv or json)."""
    path = Path(path)
    if path.suffix == ".json":
        rows = json.loads(path.read_text())
        return [(int(r["realization"]), r["method"], float(r["theta_hat"])) for r in rows]
    lines = path.read_text().strip().splitlines()
    if lines[0] != "realization,method,theta_hat":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    out = []
    for line in lines[1:]:
        r, m, v = line.split(",")
        out.append((int(r), m, float(v)))
    return out


def load_ledger(path) -> ExperimentConfig:
    """Recover the experiment configuration from an emitted ledger."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != LEDGER_FORMAT:
        raise ValueError(f"{path}: not a {LEDGER_FORMAT} ledger")
    return config_from_dict(data["config"])
