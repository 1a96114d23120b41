#!/usr/bin/env python3
"""Write a bit-exact fingerprint of every estimate on a fixed set of
experiments, so that two source trees can be compared byte for byte.

For each experiment the JSON file holds its config, every theta_hat and
predicted std as float.hex (so NaN and -0.0 are told apart), and every
failure record as (realization, method, "Type: message").  A crafted
experiment also holds, per record, the single-record path: run_method's
theta_hat, predicted std and every diagnostics field of each method, and
the weighted lag-(0, 1) fit of the record alone, each value with its type
(so a numpy scalar is told from a Python one), or the error raised.  Equal
files mean equal estimates, stds and failures to the last bit:

    PYTHONPATH=/path/to/tree_a/src python scripts/fingerprint.py a.json
    PYTHONPATH=/path/to/tree_b/src python scripts/fingerprint.py b.json
    PYTHONPATH=src python scripts/fingerprint.py --diff a.json b.json

--diff lists every entry that differs, by its key path, with both values,
and the largest |difference| over the float entries; it exits 0 only when
the two files hold the same entries.

The gate set, at master seeds 20260809 and 20261017 each:
  table_gaussian, table_uniform  gaussian.cfg and uniform.cfg, 1000 realizations
  simulated_map                  gaussian.cfg with s_count = 10, 30 realizations
  ml_desk                        ml_desk.cfg, 20 realizations
  no_input                       all five methods with sigma_u2 = 0, 10 realizations
  theta_4                        all five methods at theta_o = 4, outside the
                                 bracket, 10 realizations
  zero_process_noise             all five methods with sigma_v2 = 0, 10 realizations
  crafted, crafted_s3            all five methods on 10 records, y = 1e200 at one
                                 sample of records 3 and 8, u times 1e-160 on
                                 record 6 and u = 0 on record 9, without and
                                 with s_count = 3
The ML experiments run at desk scale.  --small runs the first seed alone,
each experiment on at most 8 realizations (crafted ones keep their 10):
2.2-2.3 s on a 2-core x86-64 VM, against 7.1-7.6 s for the whole set
(whole process, 3 runs each).
"""

import argparse
import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

import wienerid as w
from wienerid import bench

CONFIGS = Path(__file__).resolve().parent / "configs"
SEEDS = (20260809, 20261017)
ALL_METHODS = ("ML", "PEM_W", "II0", "II1_UNW", "II1_W")
# crafted records: one y = 1e200 overflows PEM's Gram, the slope variance
# and I_hat; u times 1e-160 has subnormal squares, which underflow the
# slope variance's sum and overflow J_hat's inverse; u = 0 makes every
# auxiliary fit rank deficient
HUGE_OUTPUT = (3, 8)
TINY_INPUT = 6
ZERO_INPUT = 9
SMALL = 8


def experiments(small: bool):
    """(name, config, crafted) of the gate set."""
    table = {kind: w.load_config(CONFIGS / f"{kind}.cfg") for kind in ("gaussian", "uniform")}
    ml_desk = w.load_config(CONFIGS / "ml_desk.cfg")
    every = dict(methods=ALL_METHODS, desk_scale=True)
    for seed in SEEDS[:1] if small else SEEDS:
        cases = [
            ("table_gaussian", table["gaussian"], 1000, {}, False),
            ("table_uniform", table["uniform"], 1000, {}, False),
            ("simulated_map", table["gaussian"], 30, {"s_count": 10}, False),
            ("ml_desk", ml_desk, 20, {}, False),
            ("no_input", table["gaussian"], 10, {"sigma_u2": 0.0, **every}, False),
            ("theta_4", table["gaussian"], 10, {"theta_o": 4.0, **every}, False),
            ("zero_process_noise", table["gaussian"], 10, {"sigma_v2": 0.0, **every}, False),
            ("crafted", table["gaussian"], 10, every, True),
            ("crafted_s3", table["gaussian"], 10, {"s_count": 3, **every}, True),
        ]
        for name, base, count, changes, crafted in cases:
            if small and not crafted:
                count = min(count, SMALL)
            config = dataclasses.replace(
                base, master_seed=seed, realizations=count, **changes)
            yield f"{name}@{seed}", config, crafted


real_make_record = bench.make_record


def crafted_record(config, realization):
    """bench.make_record with the crafted faults of HUGE_OUTPUT, TINY_INPUT
    and ZERO_INPUT."""
    record = real_make_record(config, realization)
    if realization in HUGE_OUTPUT:
        record.y[5] = 1e200
    if realization == TINY_INPUT:
        record = w.DataRecord(u=record.u * 1e-160, y=record.y)
    if realization == ZERO_INPUT:
        record = w.DataRecord(u=np.zeros_like(record.u), y=record.y)
    return record


def encode(value):
    """value as JSON with its type: an array as its shape and float.hex
    entries, a float as float.hex."""
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "hex": [float(v).hex() for v in value.ravel()]}
    text = value.hex() if isinstance(value, float) else repr(value)
    return f"{type(value).__name__}:{text}"


def outcome(call, encode_result) -> dict | str:
    """encode_result of call()'s result, or the error it raises as "Type: message"."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the error is the fingerprint
        return f"{type(exc).__name__}: {exc}"
    return encode_result(result)


def encode_estimate(est) -> dict:
    """theta_hat, predicted_std and every field of the search behind them;
    the field `errors`, which one row leaves None, is not one of them."""
    search = est.diagnostics
    return {"theta_hat": encode(est.theta_hat), "predicted_std": encode(est.predicted_std),
            "diagnostics": {f.name: encode(getattr(search, f.name))
                            for f in dataclasses.fields(search) if f.name != "errors"}}


def encode_fit(fit) -> dict:
    names = ("beta_hat", "residuals", "I_hat", "J_hat", "W", "cov_beta", "ridge_applied")
    return {name: encode(getattr(fit, name)) for name in names}


def single_record(config, realization: int) -> dict:
    """run_method of every method, and the weighted lag-(0, 1) fit, on the
    crafted record alone."""
    record = crafted_record(config, realization)
    methods = {m: outcome(lambda m=m: w.run_method(config, m, record, realization), encode_estimate)
               for m in ALL_METHODS}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the ridge flag is kept
        fit = outcome(lambda: w.estimate_weighting(record, w.fit_bla(record, (0, 1))), encode_fit)
    return {"run_method": methods, "estimate_weighting": fit}


def fingerprint(config, crafted: bool) -> dict:
    bench.make_record = crafted_record if crafted else real_make_record
    try:
        result = w.run_experiment(config)
    finally:
        bench.make_record = real_make_record

    def hexes(values):
        return {m: [float(v).hex() for v in values[m]] for m in sorted(values)}

    out = {
        "config": bench.config_to_dict(config),
        "estimates": hexes(result.estimates),
        "predicted_stds": hexes(result.predicted_stds),
        "failures": [[f.realization, f.method, f.message] for f in result.failures],
    }
    if crafted:
        out["single_record"] = [single_record(config, r) for r in range(config.realizations)]
    return out


# a float entry: float.hex, alone or behind encode's "float:" or "float64:"
FLOAT = re.compile(r"(?:float(?:64)?:)?(-?0x[0-9a-f.]+p[-+]\d+|-?inf|nan)")
MISSING = "<missing>"


def leaves(node, key=""):
    """(key path, value) of every entry of a fingerprint, the path joined by
    /; an empty list or object is an entry of its own."""
    if not isinstance(node, (dict, list)) or not node:
        yield key, node
        return
    for name, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from leaves(child, f"{key}/{name}" if key else str(name))


def delta(a, b) -> float | None:
    """|a - b| of two float entries (inf when one is NaN), else None."""
    match_a, match_b = (FLOAT.fullmatch(v) if isinstance(v, str) else None for v in (a, b))
    if match_a is None or match_b is None:
        return None
    x, y = float.fromhex(match_a[1]), float.fromhex(match_b[1])
    return math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)


def diff(path_a: Path, path_b: Path) -> int:
    """Print the entries in which two fingerprints differ; 0 when none does."""
    a, b = (dict(leaves(json.loads(p.read_text()))) for p in (path_a, path_b))
    differ, largest = 0, None
    for key in sorted(a.keys() | b.keys()):
        value_a, value_b = a.get(key, MISSING), b.get(key, MISSING)
        if value_a == value_b:
            continue
        differ += 1
        d = delta(value_a, value_b)
        print(f"{key}: {value_a} -> {value_b}" + ("" if d is None else f"  |d| {d:.3g}"))
        if d is not None and (largest is None or d > largest[0]):
            largest = d, key
    if not differ:
        print(f"{path_a} and {path_b} are equal ({len(a)} entries)")
        return 0
    where = ": none differs" if largest is None else f" {largest[0]:.3g} at {largest[1]}"
    print(f"{differ} of {len(a.keys() | b.keys())} entries differ; "
          f"largest |d| over float entries{where}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, nargs="?", help="JSON file to write")
    parser.add_argument("--small", action="store_true",
                        help=f"one seed, at most {SMALL} realizations per experiment")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two fingerprint files instead of writing one")
    args = parser.parse_args(argv)
    if (args.diff is None) == (args.out is None):
        parser.error("give either an output file or --diff A B")
    if args.diff is not None:
        return diff(*args.diff)
    prints = {name: fingerprint(config, crafted)
              for name, config, crafted in experiments(args.small)}
    args.out.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")
    failures = sum(len(p["failures"]) for p in prints.values())
    print(f"{len(prints)} experiments, {failures} failure records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
