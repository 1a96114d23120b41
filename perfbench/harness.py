"""One benchmark run: set-up timing, timed batches, correctness gate, layer
probes and the report.  `run.py` is the command that calls it."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import wienerid as w

import gate
import probes
import workloads
from tracing import Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = {"full": 7, "tiny": 2}
MIN_BATCHES = {0: 3, 1: 4}  # trace 1 needs at least two traced and two untraced
ML_FIT_PROBES = 2
COLD_QUADRATURE_PROBES = 40

# Machine-speed reference.  On a shared host the speed of all computation
# drifts by 20% and more over minutes, moving every timing together.  The
# harness times a fixed kernel before and after every batch and every
# set-up child, divides each timing by the mean of its two kernel times,
# and reports the median ratio times REFERENCE_KERNEL_S.  On a 2-core VM
# this cut the run-to-run spread of wall_s on tables from 17.5% to 5.7%
# (see README.md for ml_column, where it helps less).  The kernel does the
# kinds of work the package does (numpy on 1000-sample arrays, a 1000 x 2
# least-squares solve, Python loop overhead, 1000-wide blocks like the
# likelihood's) but uses numpy only, so no change to wienerid can move it.
# The constant is about the kernel's time on the VM the baseline was
# taken on, so scaled times read close to seconds there.
REFERENCE_KERNEL_S = 0.090
_KERNEL_RNG = np.random.default_rng(20260809)
_KERNEL_X = _KERNEL_RNG.standard_normal(1000)
_KERNEL_A = _KERNEL_RNG.standard_normal((1000, 2))

# The accuracy metrics of the traced run, by method.
RMSE_METRICS = {"ML": "ml.rmse", "PEM_W": "pem.rmse", "II0": "indirect.ii0_rmse",
                "II1_UNW": "indirect.ii1_unw_rmse", "II1_W": "indirect.ii1_w_rmse"}


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_kernel() -> float:
    """Seconds taken by the fixed machine-speed reference kernel."""
    t0 = time.perf_counter()
    for _ in range(1200):
        a = 0.3 * _KERNEL_X + _KERNEL_X[::-1]
        e = _KERNEL_X - (a * a * a + 0.6 * a)
        float(np.mean(e * e))
        np.linalg.lstsq(_KERNEL_A, e, rcond=None)
    for i in range(200):  # small blocks keep the kernel out of peak_rss_mb
        rows = _KERNEL_X[20 * (i % 50):20 * (i % 50) + 20]
        z = rows[:, None] + 0.1 * _KERNEL_X[None, :]
        float(np.sum(np.exp(-z * z)))
    return time.perf_counter() - t0


def measure_setup(args, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to a warmed-up workload,
    and the mean reference kernel time around each start."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times, refs = [], []
    before = reference_kernel()
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
        times.append(elapsed)
        after = reference_kernel()
        refs.append((before + after) / 2)
        before = after
    return times, refs


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    cores = len(os.sched_getaffinity(0))
    return {
        "cores": cores,
        "note": f"a process pool can gain at most {cores}x here",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wienerid": getattr(w, "__version__", None),
        "commit": commit,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def timed_batches(wl, seconds, trace, tracer, out_dir):
    """Repeat the batch until the next one would overrun `seconds`.

    Returns the batch records and any repeat mismatch.  Under trace 1 the
    odd-numbered batches are traced.
    """
    batches, problems = [], []
    deadline = time.perf_counter() + seconds
    before = reference_kernel()
    while True:
        traced = trace == 1 and len(batches) % 2 == 1
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if traced:
            with tracer.instrument(w.bench), tracer.span("bench.batch"):
                results = workloads.run_batch(wl, out_dir, tracer)
        else:
            results = workloads.run_batch(wl, out_dir)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        after = reference_kernel()
        ref, before = (before + after) / 2, after
        if batches:
            for label, result in results.items():
                problems += gate.check_repeat(batches[0]["results"][label], result)
        batches.append({"traced": traced, "wall": wall, "cpu": cpu, "ref": ref,
                        "results": results})
        typical = statistics.median(b["wall"] for b in batches)
        if len(batches) >= MIN_BATCHES[trace] and time.perf_counter() + typical > deadline:
            return batches, problems


def check(wl, results, seed, out_dir, tracer) -> list[str]:
    """The correctness gate on one batch's results."""
    problems = []
    for label, config in wl.configs.items():
        result = results[label]
        problems += gate.check_failures_recorded(result)
        problems += gate.check_means(config, result)
        problems += gate.check_round_trip(result, out_dir / label, tracer)
        r = gate.replay_index(result, seed)
        problems += (gate.check_replay(config, result, r) if r is not None
                     else [f"{label}: every realization had a failure"])
    return problems


def accuracy(estimates, theta, pred_std) -> dict:
    """rmse.<method> pooled over configs, and pred_std_err.II1_W as the worst
    |mean predicted std / empirical std - 1| over configs.

    estimates: label -> method -> values; theta: label -> theta0;
    pred_std: label -> II1_W predicted stds.
    """
    out = {}
    errors: dict[str, list[float]] = {}
    for label, per_method in estimates.items():
        for method, values in per_method.items():
            errors.setdefault(method, []).extend(
                v - theta[label] for v in values if math.isfinite(v))
    for method, errs in errors.items():
        out[f"rmse.{method}"] = float(np.sqrt(np.mean(np.square(errs))))
    gaps = []
    for label, preds in pred_std.items():
        est = [v for v in estimates[label].get("II1_W", []) if math.isfinite(v)]
        preds = [p for p in preds if math.isfinite(p)]
        if len(est) > 1 and preds:
            gaps.append(abs(float(np.mean(preds)) / float(np.std(est, ddof=1)) - 1.0))
    if gaps:
        out["pred_std_err.II1_W"] = max(gaps)
    return out


def batch_accuracy(wl, results) -> dict:
    estimates = {label: {m: list(res.estimates[m]) for m in res.estimates}
                 for label, res in results.items()}
    preds = {label: list(res.predicted_stds["II1_W"])
             for label, res in results.items() if "II1_W" in res.predicted_stds}
    return accuracy(estimates, {label: c.theta_o for label, c in wl.configs.items()}, preds)


def probe_accuracy(wl, probe_out) -> dict:
    estimates, preds = {}, {}
    for p in probe_out:
        for method, value in p["estimates"].items():
            estimates.setdefault(p["label"], {}).setdefault(method, []).append(value)
        preds.setdefault(p["label"], []).append(p["pred_std_II1_W"])
    return accuracy(estimates, {label: c.theta_o for label, c in wl.configs.items()}, preds)


def reference_numbers(wl, results) -> dict:
    """The README's known reference discrepancies, as numbers, never gates."""
    out = {}
    if "gaussian" in results:
        ii0 = results["gaussian"].estimates["II0"]
        out["criterion1.ii0_std_gaussian"] = {
            "value": float(np.std(ii0[np.isfinite(ii0)], ddof=1)), "reference": 0.0446,
            "realizations": len(ii0)}
    config = wl.configs.get("simulated_map")
    if config is not None:
        simulated = results["simulated_map"].estimates["II1_W"]
        analytic = [
            float(w.first_order_estimate(w.make_record(config, r), config.template(),
                                         config.input_kind, weighted=True).theta_hat[0])
            for r in range(config.realizations)
        ]
        out["inflation_ratio.II1_W"] = {
            "value": float(np.var(simulated, ddof=1) / np.var(analytic, ddof=1)),
            "predicted": 1.0 + 1.0 / config.s_count, "s_count": config.s_count,
            "realizations": config.realizations}
    return out


def run_probes(wl, tracer, seconds) -> list[dict]:
    """Probe realizations 0, 1, ... of each config in turn until `seconds`
    have passed (at least two rounds, so every config has a spread)."""
    out = []
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 2 or time.perf_counter() < deadline:
        for label, config in wl.configs.items():
            k = len(out)
            out.append(probes.probe_realization(
                tracer, label, config, r,
                fit_ml=k < ML_FIT_PROBES, cold_quadrature=k < COLD_QUADRATURE_PROBES,
            ))
        r += 1
    return out


def at_reference_speed(times, refs) -> list[float]:
    """Each timing scaled by its kernel time to the reference machine speed."""
    return [REFERENCE_KERNEL_S * t / r for t, r in zip(times, refs)]


def end_to_end(setup, setup_refs, batches, attempted, failed) -> dict:
    """name -> (value, unit, samples or None); times are at the reference speed."""
    setup = at_reference_speed(setup, setup_refs)
    walls = at_reference_speed([b["wall"] for b in batches], [b["ref"] for b in batches])
    return {
        "setup_s": (statistics.median(setup), "s", setup),
        "wall_s": (statistics.median(walls), "s", walls),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", None),
        "success_share": ((attempted - failed) / attempted, "ratio", None),
    }


def per_layer(wl, tracer, batches, probe_out) -> dict:
    """name -> (value, unit, samples); the value is the samples' median,
    except for shares, which are means."""
    def ms(name):
        return [s * 1e3 for s in tracer.seconds(name)]

    untraced = [b["wall"] for b in batches if not b["traced"]]
    traced = [b["wall"] for b in batches if b["traced"]]
    samples = {
        "signals.gen_white_ms": (ms("signals.gen_white"), "ms"),
        "system.make_record_ms": (ms("bench.make_record"), "ms"),
        "numerics.gauss_hermite_cold_ms": (ms("numerics.gauss_hermite_cold"), "ms"),
        "numerics.least_squares_ms": (ms("numerics.least_squares"), "ms"),
        "bla.fit_bla_ms": (ms("bla.fit_bla"), "ms"),
        "bla.estimate_weighting_ms": (ms("bla.estimate_weighting"), "ms"),
        "bla.ridge_share": ([float(p["ridge"]) for p in probe_out], "ratio"),
        "pem.fit_ms": (ms("pem.fit"), "ms"),
        "pem.evals_per_fit": ([p["pem_evals"] for p in probe_out], "count"),
        "pem.ms_per_eval": ([p["pem_ms_per_eval"] for p in probe_out], "ms"),
        "ml.fit_ms": (ms("ml.fit"), "ms"),
        "ml.evals_per_fit": ([p["ml_evals"] for p in probe_out if "ml_evals" in p], "count"),
        "ml.nll_eval_ms": (ms("ml.nll_eval"), "ms"),
        "indirect.ii0_ms": (ms("indirect.ii0"), "ms"),
        "indirect.ii1_unw_ms": (ms("indirect.ii1_unw"), "ms"),
        "indirect.ii1_w_ms": (ms("indirect.ii1_w"), "ms"),
        "indirect.step2_evals_per_fit": ([n for p in probe_out for n in p["step2_evals"]], "count"),
        "indirect.simulated_map_build_ms": (ms("indirect.simulated_map_build"), "ms"),
        "indirect.simulated_map_eval_ms": (ms("indirect.simulated_map_eval"), "ms"),
        "bench.emit_report_ms": (ms("bench.emit_report"), "ms"),
        "bench.overhead_ms": ([s * 1e3 for s in tracer.self_seconds("bench.run_experiment")], "ms"),
        "bench.cpu_s": ([b["cpu"] for b in batches if not b["traced"]], "s"),
        "bench.trace_overhead_ms": (
            [1e3 * (statistics.median(traced) - statistics.median(untraced))], "ms"),
    }
    # From the workload's own estimates where it runs the method, otherwise
    # from the probes' estimates.
    acc = {**probe_accuracy(wl, probe_out), **batch_accuracy(wl, batches[0]["results"])}
    for method, name in RMSE_METRICS.items():
        samples[name] = ([acc[f"rmse.{method}"]], "theta")
    samples["indirect.ii1_w_pred_std_err"] = ([acc["pred_std_err.II1_W"]], "ratio")
    return {
        name: (statistics.fmean(values) if name.endswith("_share") else statistics.median(values),
               unit, values)
        for name, (values, unit) in samples.items()
    }


def _counts(stats) -> str:
    tail = f"  p{stats['tail_pct']:g} {stats['tail']:.6g}" if stats["tail"] is not None else ""
    return f"  (n={stats['n']}{tail})"


def print_report(args, env, batches, attempted, failed, metrics, extra) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(batches)}  attempted {attempted}  failed {failed}")
    print("env " + json.dumps(env))
    for name, (value, unit, values) in metrics.items():
        counts = _counts(summarize(values)) if values is not None else ""
        print(f"  {name:34s} {value:14.6g} {unit}{counts}")
    raw = extra.get("raw")
    if raw:
        print(f"  unscaled: setup_s {raw['setup_s']:.6g} s, wall_s {raw['wall_s']:.6g} s; "
              f"reference kernel {1e3 * statistics.median(raw['batch_kernel_s']):.4g} ms "
              f"(reference {1e3 * REFERENCE_KERNEL_S:g} ms)")
    for name, stats in extra.get("run_method_ms", {}).items():
        print(f"  span {name:29s} {stats['median']:14.6g} ms{_counts(stats)}")
    for name, value in extra.get("accuracy", {}).items():
        print(f"  {name:34s} {value:14.6g} {'theta' if name.startswith('rmse') else 'ratio'}")
    for name, info in extra.get("reference", {}).items():
        print(f"  reference {name}: {json.dumps(info)}")


def run(args) -> int:
    wl = workloads.build(args.workload, args.seed, args.size)
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        env = environment()
        setup, setup_refs = measure_setup(args, SETUP_REPEATS[args.size]) if not args.trace else ([], [])
        workloads.warm_up(wl)
        tracer = Tracer()
        # A traced run spends half its time on batches and half on probes,
        # so that it takes about as long as an untraced one.
        budget = args.seconds / 2 if args.trace else args.seconds
        batches, problems = timed_batches(wl, budget, args.trace, tracer, work_dir / "batch")
        first = batches[0]["results"]
        problems += check(wl, first, args.seed, work_dir / "gate", tracer if args.trace else None)
        attempted = wl.attempts_per_batch() * len(batches)
        failed = sum(len(res.failures) for b in batches for res in b["results"].values())
        if problems:
            print_report(args, env, batches, attempted, failed, {}, {})
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed, "metrics": {}}))
            return 1

        if args.trace == 0:
            metrics = end_to_end(setup, setup_refs, batches, attempted, failed)
            extra = {"accuracy": batch_accuracy(wl, first),
                     "reference": reference_numbers(wl, first),
                     "raw": {"setup_s": statistics.median(setup),
                             "wall_s": statistics.median(b["wall"] for b in batches),
                             "setup_samples_s": setup,
                             "wall_samples_s": [b["wall"] for b in batches],
                             "setup_kernel_s": setup_refs,
                             "batch_kernel_s": [b["ref"] for b in batches],
                             "batch_cpu_s": [b["cpu"] for b in batches]}}
        else:
            metrics = per_layer(wl, tracer, batches, run_probes(wl, tracer, budget))
            names = sorted({s.name for s in tracer.spans if s.name.startswith("bench.run_method.")})
            extra = {"run_method_ms": {n: summarize(tracer.seconds(n), scale=1e3) for n in names},
                     "batch_kernel_s": [b["ref"] for b in batches]}
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        print_report(args, env, batches, attempted, failed, metrics, extra)

        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "configs": {label: w.bench.config_to_dict(c) for label, c in wl.configs.items()},
            "env": env, "batches": len(batches), "attempted": attempted, "failed": failed,
            "metrics": reported,
            "samples": {name: values for name, (_, _, values) in metrics.items() if values},
            **extra,
        }
        (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2))
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": reported}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
