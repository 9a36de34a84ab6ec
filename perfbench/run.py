#!/usr/bin/env python3
"""The jackratio benchmark: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload build-n3 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (the directory holding `src/`);
the package is imported from `src/` without an install.  The run repeats
an iteration, each a fresh interpreter (worker.py) because the package's
caches live for one process and users pay for them once per process, until
--seconds is used up, and reports medians over the iterations in reference
seconds (calib.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A traced run makes one untraced iteration and one traced one,
so the tracing overhead can be reported.  The exit code is 1 when a
correctness gate failed and 2 when the benchmark could not run at all.
Run records, traces and the CLI's cache files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import spec as specs  # noqa: E402
import tracer as tracing  # noqa: E402

CHILD_TIMEOUT = 170
# Kolmogorov distribution: P(sqrt(N) D > c) = 0.001 for c = sqrt(-ln(0.0005)/2)
KS_CRIT_0_001 = math.sqrt(-math.log(0.0005) / 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(section: str) -> dict:
    """{name: unit} of one metric list of BENCHMARK.json, in its order."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")
# printed and recorded, but not in the result line: its run-to-run spread
# on this machine exceeded any bound BENCHMARK.json allows (see README.md)
UNBOUNDED = {"cdf_p99_ms": "ms"}

# per-layer metrics whose span or stat name is not the metric's "<span>.<stat>"
RENAMED = {
    "esym.laplace_beltrami_row.rows_built": ("esym.laplace_beltrami_row", "built"),
    "dist.SeriesTable.build_self_s": ("dist.SeriesTable.build", "self_s"),
    "cli.startup_s": ("cli.process", "self_s"),
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("JACKRATIO_CACHE_DIR", None)
    env.update({v: "1" for v in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, out: str, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--out", out,
            "--reference", args.reference, *extra]


def run_iteration(args, env, out, index, trace_dir=None) -> dict:
    """One fresh-interpreter iteration; adds its set-up time (spawn to inputs ready)."""
    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)
    extra = ["--index", str(index)] + (["--record"] if args.record else [])
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        extra += ["--trace-dir", trace_dir]
    loop = calib.loop_seconds()
    start = time.monotonic()
    proc = subprocess.run(worker_cmd(args, out, *extra), env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-1500:]}")
    with open(path) as fh:
        result = json.load(fh)
    result["raw"]["setup_s"] = result["ready"] - start
    result["setup_s"] = result["raw"]["setup_s"] * calib.factor(loop, result["ready_loop_s"])
    result["out"] = out
    return result


def ks_gates(root: str, iterations: list) -> list:
    """KS distance of each Monte Carlo entry, pooled over the run's iterations.

    Returns (entry, N, D, critical value) per entry.  The samples and their
    `cdf_many` values were saved by the workers; `ks_distance` is handed the
    saved values through a lookup, so nothing is evaluated twice.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    from jackratio.mc import ks_distance
    out = []
    for i in range(len(iterations[0]["mc_files"])):
        xs, vals = [], []
        for it in iterations:
            x_file, v_file = (os.path.join(it["out"], f) for f in it["mc_files"][i])
            if os.path.exists(x_file) and os.path.exists(v_file):
                xs.append(np.load(x_file))
                vals.append(np.load(v_file))
        if not xs:
            continue
        x = np.concatenate(xs)
        v = np.concatenate(vals)
        order = np.argsort(x, kind="stable")

        def lookup(sorted_x, x=x, v=v, order=order):
            if not np.array_equal(sorted_x, x[order]):
                raise ValueError("ks_distance evaluated points other than the sample")
            return v[order]

        out.append((i, x.size, ks_distance(x, lookup), KS_CRIT_0_001 / math.sqrt(x.size)))
    return out


def per_layer(traced: dict, untraced: dict, trace_dir: str) -> dict:
    """Every per-layer metric of BENCHMARK.json, from the traced iteration's spans.

    A metric is a tracer counter, else one of the untraced iteration's
    deterministic counts, else the stat of a span ("<span>.<stat>").  The
    exact-fallback metrics are left out when `_eval_exact` could not be
    wrapped: missing, not zero.
    """
    files = [os.path.join(trace_dir, f) for f in sorted(os.listdir(trace_dir))]
    agg = tracing.aggregate(files)
    stats, counters = agg["stats"], agg["counters"]
    wall = traced["raw"]["wall_s"]
    layer_self = sum(s["self_s"] for n, s in stats.items() if n != "bench.workload")
    special = {
        "trace.wall_s": wall,
        # in reference seconds, so that the machine's drift between the two
        # iterations does not pass for tracing cost
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.layer_self_share": layer_self / wall if wall else 0.0,
        "trace.root_self_s": stats.get("bench.workload", {}).get("self_s", 0.0),
    }
    if "dist.exact_fallback" not in traced["missing"]:
        points = stats.get("dist.cdf", {}).get("calls", 0) + counters.get("dist.cdf_many.points", 0)
        under = counters.get("dist.exact_fallback.point_evals", 0)
        special["dist.exact_fallback.points"] = stats.get("dist.exact_fallback", {}).get("calls", 0.0)
        special["dist.float_path.accept_ratio"] = (points - under) / points if points else 1.0
    out = {}
    for metric in PER_LAYER:
        if metric.startswith(("dist.exact_fallback.", "dist.float_path.")) and metric not in special:
            continue
        if metric in special:
            out[metric] = special[metric]
        elif metric in counters:
            out[metric] = counters[metric]
        elif metric in untraced["counts"]:
            out[metric] = untraced["counts"][metric]
        else:
            name, stat = RENAMED.get(metric) or metric.rsplit(".", 1)
            out[metric] = stats.get(name, {}).get(stat, 0.0)
    return out


def nearest_rank(sorted_vals: list, q: float) -> float:
    return sorted_vals[max(math.ceil(q * len(sorted_vals)) - 1, 0)]


def tidy(out_root: str) -> None:
    """Drop the bulky per-iteration files (samples, CLI caches); results and spans stay."""
    for dirpath, dirnames, filenames in os.walk(out_root):
        for name in filenames:
            if name.endswith(".npy"):
                os.remove(os.path.join(dirpath, name))
        for name in [d for d in dirnames if d.startswith("jackratio-cache-")]:
            shutil.rmtree(os.path.join(dirpath, name))
            dirnames.remove(name)


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "jackratio")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record_reference(args, result: dict) -> None:
    """Merge what the run observed into the reference file (--record)."""
    with open(args.reference) as fh:
        ref = json.load(fh)
    size = ref.setdefault(args.size, {})
    for section, values in result["observed"].items():
        size.setdefault(section, {}).update(values)
    with open(args.reference, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(specs.SIZES), default="full",
                    help="'smoke' runs tiny inputs, for the benchmark's own tests")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="recorded gate values (digests, K, quantiles, stats)")
    ap.add_argument("--record", action="store_true",
                    help="record gate values into --reference instead of checking them")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jackratio", "__init__.py")):
        print("perfbench: run from the root of a jackratio checkout (no src/jackratio here)",
              file=sys.stderr)
        return 2
    args.reference = os.path.abspath(args.reference)
    # one core for the run and its children, so the reference loop times the
    # core the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_root = os.path.join(root, ".perfbench_out", f"{args.workload}-{args.size}-seed{args.seed}"
                            f"-trace{args.trace}-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    env = child_env(root)

    iterations = []
    traced = None
    try:
        start = time.monotonic()
        while True:
            index = len(iterations)
            iterations.append(run_iteration(args, env, os.path.join(out_root, f"it{index}"), index))
            elapsed = time.monotonic() - start
            # start another iteration only if it is expected to end in time
            if args.trace or args.record or elapsed * (1 + 1 / len(iterations)) > args.seconds:
                break
        if args.trace:
            # same inputs as the untraced iteration, so the difference is the tracing
            trace_dir = os.path.join(out_root, "trace")
            traced = run_iteration(args, env, os.path.join(out_root, "traced"), 0, trace_dir)
        ks = ks_gates(root, iterations)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.record:
        record_reference(args, iterations[0])

    def med(key):
        vals = [it[key] for it in iterations if it.get(key) is not None]
        return statistics.median(vals) if vals else 0.0

    latencies = sorted(x for it in iterations for x in it["latencies_s"])
    e2e = {name: med(name) for name in {**END_TO_END, **UNBOUNDED}}
    # with 1 000 or more points per iteration, each iteration has its own p99
    # and the run takes the median, so one iteration's stray stalls cannot
    # set the run's tail; with fewer, the run pools them
    per_it = [sorted(it["latencies_s"]) for it in iterations]
    if per_it and all(len(lat) >= 1000 for lat in per_it):
        pct = {"cdf_p50_ms": [statistics.median(lat) for lat in per_it],
               "cdf_p99_ms": [nearest_rank(lat, 0.99) for lat in per_it]}
    else:
        pct = {"cdf_p50_ms": [statistics.median(latencies)] if latencies else [0.0],
               "cdf_p99_ms": [nearest_rank(latencies, 0.99)] if latencies else [0.0]}
    e2e.update({name: 1e3 * statistics.median(v) for name, v in pct.items()})
    # rates pool the run's iterations: how many exact fallbacks a sample
    # needs varies from one iteration's sample to the next
    for name, count, seconds in (("ks_points_per_s", "ks_points", "ks_s"),
                                 ("mc_samples_per_s", "draws", "draw_s")):
        total = sum(it[seconds] for it in iterations)
        e2e[name] = sum(it[count] for it in iterations) / total if total else 0.0
    raw_lat = sorted(x for it in iterations for x in it["raw"].pop("latencies_s"))
    raw_pct = {"cdf_p50_ms": 1e3 * statistics.median(raw_lat) if raw_lat else 0.0,
               "cdf_p99_ms": 1e3 * nearest_rank(raw_lat, 0.99) if raw_lat else 0.0}
    ks_failures = [f"ks: D={d:.5f} for Monte Carlo entry {i} with N={n} exceeds {crit:.5f}"
                   for i, n, d, crit in ks if d >= crit]
    runs = iterations + ([traced] if traced else [])
    attempted = sum(it["attempted"] for it in runs) + len(ks)
    failures = [f for it in runs for f in it["failures"]] + ks_failures
    failed = len(failures)

    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(root), "source_sha256": source_digest(root),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": {v: env[v] for v in BLAS_VARS},
        "iterations": [{k: v for k, v in it.items() if k != "latencies_s"} for it in iterations],
        "cdf_points": len(latencies), "raw_cdf_percentiles": raw_pct, "ks": ks,
        "counts": iterations[0]["counts"], "e2e": e2e,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if traced:
        metrics = per_layer(traced, iterations[0], trace_dir)
        units = PER_LAYER
        record["per_layer"] = metrics
        record["traced"] = traced
        record["trace_overhead_raw_s"] = traced["raw"]["wall_s"] - iterations[0]["raw"]["wall_s"]
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        units = END_TO_END
    with open(os.path.join(out_root, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    tidy(out_root)

    for f in failures:
        print(f"FAILED {f}")
    for name in sorted(metrics):
        print(f"{name:44s} {metrics[name]:>16.6g} {units[name]}")
    if not traced:
        for name, unit in UNBOUNDED.items():
            print(f"{name:44s} {e2e[name]:>16.6g} {unit} (not bounded)")
    print(f"{'failed_frac':44s} {record['failed_frac']:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(f"run record: {os.path.relpath(os.path.join(out_root, 'record.json'), root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
