#!/usr/bin/env python3
"""Reproduce the benchmark comparison tables for both input distributions.

Runs the experiments of scripts/configs at the given seed and realization
count: the four fast estimators over 1000 seeded realizations per table
(gaussian.cfg, uniform.cfg), plus the reduced-order ML column (ml_desk.cfg:
at most 200 realizations with the quadrature order capped at 200) unless
--full-ml runs ml_desk.cfg without desk scale, the order capped at 1000,
over all realizations (8.4-9.7 s on a 2-core x86-64 VM over 3 runs,
6.2-7.3 s of it the ML column; on the paper's system every fit ends on
order 200 at either cap).
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

import wienerid as w
from wienerid.cli import print_summaries

CONFIGS = Path(__file__).resolve().parent / "configs"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--realizations", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=None, help="emit CSV reports here")
    parser.add_argument("--skip-ml", action="store_true")
    parser.add_argument("--full-ml", action="store_true",
                        help="quadrature order capped at 1000, all realizations (about 9 s)")
    args = parser.parse_args(argv)
    try:
        run_tables(args)
    except Exception as exc:  # noqa: BLE001 - single diagnostic line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run_tables(args) -> None:
    experiments = [("gaussian", "gaussian", {}), ("uniform", "uniform", {})]
    if not args.skip_ml:
        experiments.append(("ml_desk", "ml", {"desk_scale": not args.full_ml}))
    for name, report_dir, overrides in experiments:
        config = dataclasses.replace(
            w.load_config(CONFIGS / f"{name}.cfg"),
            master_seed=args.seed, realizations=args.realizations, **overrides,
        )
        result = w.run_experiment(config)
        print_summaries(f"{name}.cfg", result)
        if "ML" not in config.methods:
            print(f"linear-sensor baseline std: {w.linear_baseline_std(config):.4f} "
                  f"(the value quoted alongside the formula corresponds to unit input power: "
                  f"{np.sqrt((config.sigma_v2 + config.sigma_e2) / config.n_obs):.4f})")
        if args.out:
            w.emit_report(result, fmt="csv", out_dir=args.out / report_dir)

if __name__ == "__main__":
    sys.exit(main())
