"""Correctness checks a benchmark run must pass before it reports numbers.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import wienerid as w
from wienerid.bench import METHOD_ORDER

from tracing import null_span

# A method's mean may sit this many standard errors from theta0.  The
# standard error uses the larger of the sample std and the linear-sensor
# std, which every method exceeds, so that a batch of one or a few
# realizations cannot make it spuriously small.
MEAN_TOLERANCE_SE = 5.0


def _same(a: float, b: float) -> bool:
    """Bit-identical floats (NaN equals NaN)."""
    return float(a).hex() == float(b).hex()


def finite_rows(result: w.ExperimentResult) -> list[tuple[int, str, float]]:
    """The rows emit_report writes to raw.*: finite estimates, by (realization, method)."""
    rows = [
        (r, m, float(v))
        for m in result.estimates
        for r, v in enumerate(result.estimates[m])
        if math.isfinite(v)
    ]
    return sorted(rows, key=lambda row: (row[0], METHOD_ORDER.index(row[1])))


def check_raw_file(result: w.ExperimentResult, path: Path) -> list[str]:
    """The raw file at `path` holds exactly the result's finite estimates, bit for bit."""
    expected = finite_rows(result)
    try:
        loaded = [tuple(row[:3]) for row in w.load_raw(path)]
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if len(loaded) != len(expected):
        return [f"{path.name}: {len(loaded)} rows, expected {len(expected)}"]
    bad = [
        (got, want) for got, want in zip(loaded, expected)
        if got[:2] != want[:2] or not _same(got[2], want[2])
    ]
    return [f"{path.name}: row {got} differs from {want}" for got, want in bad[:3]]


def check_round_trip(result: w.ExperimentResult, out_dir: Path, tracer=None) -> list[str]:
    """emit_report in both formats, then load_raw must give back every estimate."""
    span = tracer.span if tracer is not None else null_span
    problems = []
    for fmt in ("csv", "json"):
        with span("bench.emit_report"):
            paths = w.emit_report(result, fmt, out_dir / fmt)
        problems += check_raw_file(result, paths["raw"])
    return problems


def check_failures_recorded(result: w.ExperimentResult) -> list[str]:
    """Every non-finite estimate has a failure record, and only those do."""
    nonfinite = {
        (r, m) for m, values in result.estimates.items()
        for r, v in enumerate(values) if not math.isfinite(v)
    }
    recorded = {(f.realization, f.method) for f in result.failures}
    problems = []
    if nonfinite - recorded:
        problems.append(f"non-finite estimates without a failure record: {sorted(nonfinite - recorded)[:5]}")
    if recorded - nonfinite:
        problems.append(f"failure records for finite estimates: {sorted(recorded - nonfinite)[:5]}")
    return problems


def check_replay(config: w.ExperimentConfig, result: w.ExperimentResult, realization: int) -> list[str]:
    """replay_realization reproduces one realization's estimates bit for bit."""
    try:
        replay = w.replay_realization(config, realization)
    except Exception as exc:  # noqa: BLE001 - any failure of the replay is a finding
        return [f"replay of realization {realization} raised {type(exc).__name__}: {exc}"]
    problems = []
    for method in result.estimates:
        want = result.estimates[method][realization]
        got = getattr(replay.get(method), "theta_hat", replay.get(method))
        if got is None or not _same(got, want):
            problems.append(f"replay of realization {realization}, {method}: {got!r} != {want!r}")
    return problems


def check_means(config: w.ExperimentConfig, result: w.ExperimentResult) -> list[str]:
    """Each method's mean lies within MEAN_TOLERANCE_SE standard errors of theta0."""
    floor = w.linear_baseline_std(config)
    problems = []
    for method, values in result.estimates.items():
        good = values[np.isfinite(values)]
        if len(good) == 0:
            problems.append(f"{method}: no finite estimate")
            continue
        std = float(np.std(good, ddof=1)) if len(good) > 1 else floor
        se = max(std, floor) / math.sqrt(len(good))
        gap = abs(float(np.mean(good)) - config.theta_o)
        if gap > MEAN_TOLERANCE_SE * se:
            problems.append(
                f"{method}: mean {np.mean(good):.5f} is {gap / se:.1f} standard errors from "
                f"theta0 = {config.theta_o}"
            )
    return problems


def check_repeat(first: w.ExperimentResult, again: w.ExperimentResult) -> list[str]:
    """A repeated batch gives bit-identical estimates."""
    return [
        f"{method}: estimates changed between identical batches"
        for method in first.estimates
        if not np.array_equal(first.estimates[method], again.estimates[method], equal_nan=True)
    ]


def replay_index(result: w.ExperimentResult, seed: int) -> int | None:
    """A seed-chosen realization in which every method produced an estimate."""
    n = len(next(iter(result.estimates.values())))
    failed = {f.realization for f in result.failures}
    for k in range(n):
        r = (seed + k) % n
        if r not in failed:
            return r
    return None
