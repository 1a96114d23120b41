"""Benchmark command for wienerid.

    python3 perfbench/run.py --workload tables --seed 20260809 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One run measures one workload (see workloads.py) in this
process: it times set-up in fresh interpreters, repeats the workload's batch
for about --seconds, checks the outputs, prints a readable report and, as
its last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
batches alternate between untraced and traced for half of --seconds, layer
probes take the other half, and the metrics are the per-layer ones.  A
failed correctness check prints the problems, reports no metrics and exits
with status 1.  Results and spans are written under .bench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread per process: the workloads' linear algebra is N x 2, too
# small to gain from threads, and a single thread keeps runs steady.  Set
# before numpy is first imported; set-up children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

DEFAULT_SEED = 20260809  # the package README's master seed


def import_wienerid():
    """Import wienerid from this checkout's src/, never from elsewhere."""
    if not (SRC / "wienerid" / "__init__.py").is_file():
        sys.exit(f"error: no wienerid sources at {SRC / 'wienerid'}")
    sys.path.insert(0, str(SRC))
    import wienerid

    if SRC.resolve() not in Path(wienerid.__file__).resolve().parents:
        sys.exit(f"error: imported wienerid from {wienerid.__file__}, not from {SRC}")
    return wienerid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "ml_column", "simulated_map"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks N and the batch for the benchmark's own tests")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")

    import_wienerid()
    if args.setup_child:
        import workloads

        workloads.warm_up(workloads.build(args.workload, args.seed, args.size))
        print("ready", flush=True)
        return 0

    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
