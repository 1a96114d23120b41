"""Command-line interface: simulate, estimate, bench, baseline."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench
from .system import DataRecord


def _load(args) -> bench.ExperimentConfig:
    """The config file with --seed, and --desk-scale where the subcommand
    takes it."""
    config = bench.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "desk_scale", False):
        overrides["desk_scale"] = True
    return dataclasses.replace(config, **overrides)


def cmd_simulate(args) -> int:
    config = _load(args)
    record = bench.make_record(config, realization=0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "data.csv"
    record.to_csv(path)
    print(f"wrote {path} ({record.n_obs} observations)")
    return 0


def cmd_estimate(args) -> int:
    config = _load(args)
    record = DataRecord.from_csv(args.data)
    est = bench.run_method(config, args.method, record)
    line = f"method={args.method} theta_hat={est.theta_hat[0]:.17g}"
    if est.predicted_std is not None:
        line += f" predicted_std={est.predicted_std:.17g}"
    line += f" iterations={est.diagnostics.iterations}"
    for flag in ("at_bracket_edge", "degenerate", "fallback"):
        if getattr(est.diagnostics, flag):
            line += f" {flag}=True"
    if est.diagnostics.quad_order is not None:  # ML's likelihood, and its accuracy
        line += f" quad_order={est.diagnostics.quad_order}"
        line += f" quad_change={est.diagnostics.quad_change:.17g}"
    print(line)
    return 0


def print_summaries(name: str, result: bench.ExperimentResult) -> None:
    """The per-method table of one experiment run from the config `name`, as
    `bench` and scripts/run_paper_tables.py print it."""
    c = result.config
    desk = ", desk scale" if c.desk_scale else ""
    print(f"\n=== {name}: {c.input_kind.value} input, N={c.n_obs}, "
          f"{c.realizations} realizations{desk} ===")
    print(f"{'method':10s} {'mean':>8s} {'std':>8s} {'failures':>9s} {'runs':>6s} {'time':>8s}")
    for s in result.summaries():
        print(
            f"{s.method:10s} {s.mean:8.4f} {s.std:8.4f} "
            f"{s.failures:9d} {s.n_runs:6d} {s.wall_time:7.1f}s"
        )


def cmd_bench(args) -> int:
    config = _load(args)
    result = bench.run_experiment(config)
    paths = bench.emit_report(result, fmt=args.format, out_dir=args.out)
    print_summaries(args.config, result)
    print(f"wrote {paths['summary']}, {paths['raw']}, {paths['ledger']}")
    return 0


def cmd_baseline(args) -> int:
    print(f"{bench.linear_baseline_std(bench.load_config(args.config)):.17g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wienerid",
        description="Stochastic Wiener system identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--seed": dict(type=int, default=None, help="override master_seed"),
        "--out": dict(default=".", help="output directory"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--desk-scale": dict(action="store_true",
                             help="run ML at reduced order, and every method of an experiment that"
                                  f" runs ML on at most {bench.DESK_ML_REALIZATIONS} realizations"),
        "--data": dict(required=True, help="data record CSV"),
        "--method": dict(required=True, choices=bench.METHOD_ORDER),
    }
    # each subcommand takes --config and the flags it reads, no other
    for name, func, text, names in (
        ("simulate", cmd_simulate, "emit one simulated data record as CSV", ("--seed", "--out")),
        ("estimate", cmd_estimate, "run one method on one data record",
         ("--seed", "--desk-scale", "--data", "--method")),
        ("bench", cmd_bench, "run a Monte Carlo experiment from a config file",
         ("--seed", "--out", "--format", "--desk-scale")),
        ("baseline", cmd_baseline, "linear-case asymptotic standard deviation", ()),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config file")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single diagnostic line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
