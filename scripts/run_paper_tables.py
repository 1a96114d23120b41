#!/usr/bin/env python3
"""Reproduce the benchmark comparison tables for both input distributions.

Runs the four fast estimators over 1000 seeded realizations per table, plus
the reduced-order ML column (200 realizations at quadrature order 200) unless
--full-ml asks for the order-1000 x 1000-realization run (about 70 s on a
2-core x86-64 VM, 61 s of it the ML column).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

import wienerid as w

FAST_METHODS = ("PEM_W", "II0", "II1_UNW", "II1_W")


def build_config(kind, methods, realizations, desk_scale, seed):
    return w.ExperimentConfig(
        theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
        input_kind=kind, n_obs=1000, realizations=realizations,
        methods=methods, master_seed=seed, desk_scale=desk_scale,
    )


def print_table(title, results):
    print(f"\n=== {title} ===")
    print(f"{'method':10s} {'mean':>8s} {'std':>8s} {'failures':>9s} {'runs':>6s} {'time':>8s}")
    for summary in results:
        print(
            f"{summary.method:10s} {summary.mean:8.4f} {summary.std:8.4f} "
            f"{summary.failures:9d} {summary.n_runs:6d} {summary.wall_time:7.1f}s"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--realizations", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=None, help="emit CSV reports here")
    parser.add_argument("--skip-ml", action="store_true")
    parser.add_argument("--full-ml", action="store_true",
                        help="order-1000 quadrature over all realizations (about 70 s)")
    args = parser.parse_args(argv)

    for kind, label in (
        (w.DistributionKind.GAUSSIAN_WHITE, "gaussian input"),
        (w.DistributionKind.UNIFORM_WHITE, "uniform input"),
    ):
        config = build_config(kind, FAST_METHODS, args.realizations, False, args.seed)
        t0 = time.time()
        result = w.run_experiment(config)
        print_table(f"{label}, N=1000, {args.realizations} realizations "
                    f"({time.time() - t0:.0f}s)", result.summaries())
        baseline = w.linear_baseline_std(config)
        print(f"linear-sensor baseline std: {baseline:.4f} "
              f"(the value quoted alongside the formula corresponds to unit input power: "
              f"{np.sqrt(0.3 / 1000):.4f})")
        if args.out:
            w.emit_report(result, fmt="csv", out_dir=args.out / kind.value)

    if not args.skip_ml:
        if args.full_ml:
            config = build_config(
                w.DistributionKind.GAUSSIAN_WHITE, ("ML",), args.realizations, False, args.seed
            )
        else:
            config = build_config(
                w.DistributionKind.GAUSSIAN_WHITE, ("ML",), min(args.realizations, 200),
                True, args.seed,
            )
        t0 = time.time()
        result = w.run_experiment(config)
        mode = "order 1000" if args.full_ml else "desk scale: order 200"
        print_table(f"ML column, gaussian input ({mode}, {time.time() - t0:.0f}s)",
                    result.summaries())
        if args.out:
            w.emit_report(result, fmt="csv", out_dir=args.out / "ml")
    return 0


if __name__ == "__main__":
    sys.exit(main())
