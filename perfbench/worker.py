"""One iteration of one benchmark workload, in a fresh interpreter.

Started by run.py:

    python3 perfbench/worker.py --workload build-n3 --seed 1 --out DIR --reference FILE

It imports jackratio and makes the seeded inputs (that much is set-up),
runs the workload's plan (spec.py) while timing each public call, then
checks the correctness gates outside the timed region and writes
DIR/result.json.  The package is driven only through its public functions,
plus a call counter and timer on `SeriesTable._eval_exact` (the exact
fallback), which cost about a microsecond on a call that takes
milliseconds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from fractions import Fraction

import numpy as np

import jackratio
from jackratio import dist, jack, mc

import calib
import spec as specs
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))

QUANTILE_TOL = 1e-8 + 2e-9  # the package's bisection tolerance plus its evaluation rule
QUANTILE_REF_TOL = 1e-7
STATS_REF_RTOL = 1e-9
CLI_ROUND_TOL = 2e-6  # the CLI prints 6 decimals by default
RECHECK_POINTS = 12


def exact_cdf(table, x: float) -> float:
    """const * sum_j c_j x^(rho+j), evaluated exactly from the collapsed coefficients."""
    fx = Fraction(x)
    acc = Fraction(0)
    for c in reversed(table.collapsed()):
        acc = acc * fx + c
    acc *= fx ** table.rho
    if acc == 0 or table.const.sign == 0:
        return 0.0
    log_abs = (math.log(abs(acc.numerator)) - math.log(acc.denominator)
               + table.const.log_abs)
    return (1 if acc > 0 else -1) * table.const.sign * math.exp(log_abs)


def within_rule(value: float, exact: float) -> bool:
    """The package's own acceptance rule for an evaluated point."""
    return abs(value - exact) <= max(1e-12, 1e-9 * abs(exact))


def coeff_digest(table) -> str:
    """SHA-256 over the sorted (k, t, numerator, denominator) of a table's coefficients."""
    h = hashlib.sha256()
    for (k, t), c in sorted(table.coeffs.items()):
        h.update(f"{k},{t},{c.numerator},{c.denominator};".encode())
    return h.hexdigest()


def cli_numbers(text: str) -> list:
    """Every number in a CLI result: JSON envelope rows or CSV cells."""
    try:
        rows = json.loads(text)["rows"]
        return [float(v) for row in rows for v in row.values()]
    except ValueError:
        cells = list(csv.reader(io.StringIO(text)))[1:]
        return [float(v) for row in cells for v in row]


class Iteration:
    """Runs one workload plan; keeps its timings, operation counts and failures."""

    def __init__(self, args, spec, inputs, trc):
        self.args = args
        self.spec = spec
        self.inputs = inputs
        self.tracer = trc
        self.item = 0
        self.marks = []  # reference-loop time before each plan item and after the last
        self.item_s = []  # wall time of each plan item
        self.spent = {"build": {}, "query": {}, "draw": {}, "ks": {}}  # kind -> item -> s
        self.scaled = {kind: 0.0 for kind in self.spent}  # already in reference seconds
        self.raw = {kind: 0.0 for kind in self.spent}
        self.last_loop = None
        self.attempted = 0
        self.failures = []
        self.autos = []
        self.auto_keys = []
        self.tables = {}
        self.quantiles = {}
        self.stats = {}
        self.evaluated = []  # (table key, x, value) for the exact recheck
        self.latencies = []  # (reference s, measured s) per single-point cdf call
        self.calib_s = {}  # item -> time spent in reference loops inside it
        self.ks_points = 0
        self.exact_s = 0.0  # time inside the exact fallback (untraced iterations)
        self.draws = 0
        self.samples = []  # the Monte Carlo samples, in plan order
        self.passes = {"cold": [], "warm": []}
        self.cli_out = {"cold": [], "warm": []}
        self.cache_index = -1

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def add(self, kind: str, seconds: float) -> None:
        """Measured seconds, scaled later by the reference loop around the plan item."""
        per_item = self.spent[kind]
        per_item[self.item] = per_item.get(self.item, 0.0) + seconds
        self.raw[kind] += seconds

    def reference_loop(self, seconds=calib.loop_seconds) -> float:
        """Times a reference loop inside a plan item (not counted in the item's time)."""
        start = time.perf_counter()
        loop = seconds()
        self.calib_s[self.item] = self.calib_s.get(self.item, 0.0) + time.perf_counter() - start
        return loop

    def recalibrate(self) -> float:
        """Times the rational reference loop; returns the factor for the work since the last call."""
        loop = self.reference_loop()
        before, self.last_loop = self.last_loop, loop
        return calib.factor(before if before is not None else loop, loop)

    def add_scaled(self, kind: str, seconds: float, factor: float) -> None:
        """Measured seconds between two `recalibrate` calls, scaled by their factor."""
        self.scaled[kind] += seconds * factor
        self.raw[kind] += seconds

    def op(self, fn, *a, **kw):
        """One public call; an exception is a failed operation. Returns (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*a, **kw)
        except Exception as exc:  # any raise is a failed operation, not a crash
            self.fail(f"{getattr(fn, '__name__', fn)}{a!r}: {type(exc).__name__}: {exc}")
            result = None
        return result, time.perf_counter() - start

    def params(self, ref):
        if isinstance(ref, str):
            return self.autos[int(ref[1:])]
        m, n, beta, K = ref
        return dist.DistParams(m=m, n=n, beta=beta, K=K)

    def table(self, ref):
        """(key, table) of a reference; builds it on first use, timed as build."""
        p = self.params(ref)
        if p is None:
            return None, None
        key = specs.table_key(p.m, p.n, p.beta, p.K)
        if key not in self.tables:
            self.tables[key], dt = self.op(dist.get_table, p)
            self.add("build", dt)
        return key, self.tables[key]

    # -- plan items ------------------------------------------------------------

    def run(self) -> None:
        """Runs the plan, timing the reference loop before each item and after the last."""
        try:
            for self.item, item in enumerate(self.spec["plan"]):
                self.marks.append(calib.loop_seconds())
                start = time.perf_counter()
                try:
                    self.run_item(item)
                finally:
                    self.item_s.append(time.perf_counter() - start -
                                       self.calib_s.get(self.item, 0.0))
        finally:
            self.marks.append(calib.loop_seconds())

    def run_item(self, item) -> None:
        if item == "queries":
            self.queries()
        elif item == "cli":
            self.cli_pass("cold")
            self.cli_pass("warm")
        elif item in ("cold", "warm"):
            self.cli_pass(item)
        elif item[0] == "table":
            self.table(item[1])
        elif item[0] == "auto":
            m, n, beta, h = item[1:]
            p, dt = self.op(dist.auto_converged_params, m, n, beta, moments=h)
            self.add("build", dt)
            self.autos.append(p)
            self.auto_keys.append(specs.auto_key(m, n, beta, h))
        elif item[0] == "snapshot":
            _, dt = self.op(jack.load_expansion_cache, self.cache_path(0))
            self.add("build", dt)
        else:
            raise ValueError(f"unknown plan item {item!r}")

    def queries(self) -> None:
        s = self.spec
        for ref in s["quantiles"]:
            key, t = self.table(ref)
            if t is not None:
                got = [self.op(t.quantile, a) for a in specs.TABLE1_ALPHAS]
                self.add("query", sum(dt for _, dt in got))
                self.quantiles[key] = [q for q, _ in got]
        for ref in s["stats"]:
            key, t = self.table(ref)
            if t is not None:
                self.stats[key], dt = self.op(t.summary_stats)
                self.add("query", dt)
        for ref in s["cdf03"]:
            key, t = self.table(ref)
            if t is not None:
                v, dt = self.op(t.cdf, 0.3)
                self.add("query", dt)
                self.evaluated.append((key, 0.3, v))
        self.points()
        for i, (m, n, beta, count, ref) in enumerate(s["mc"]):
            cfg = mc.McConfig(m=m, n=n, beta=beta, replications=count,
                              seed=self.inputs["mc_seeds"][i])
            self.recalibrate()
            x, dt = self.op(mc.sample_extreme_ratio, cfg)
            f = self.recalibrate()
            if x is None:
                continue
            self.draws += count
            self.add_scaled("draw", dt, f)
            self.samples.append(x)
            key, t = self.table(ref)
            if t is None:
                continue
            seen = {}

            def timed_cdf_many(xs, t=t, seen=seen):
                start = time.perf_counter()
                seen["v"] = t.cdf_many(xs)
                seen["s"] = time.perf_counter() - start
                seen["x"] = xs
                return seen["v"]

            # cdf_many's exact fallbacks are rational work, the rest is its
            # numpy float path: each part is scaled by its own reference loop
            exact_before = self.exact_s
            float_before = self.reference_loop(calib.float_loop_seconds)
            _, dt = self.op(mc.ks_distance, x, timed_cdf_many)
            ff = calib.factor(float_before, self.reference_loop(calib.float_loop_seconds),
                              calib.NOMINAL_FLOAT_S)
            f = self.recalibrate()
            exact = self.exact_s - exact_before
            float_s = max(seen.get("s", 0.0) - exact, 0.0)
            self.add_scaled("query", dt - float_s, f)
            self.add_scaled("query", float_s, ff)
            if "s" in seen:
                self.ks_points += count
                self.add_scaled("ks", exact, f)
                self.add_scaled("ks", float_s, ff)
                np.save(os.path.join(self.args.out, f"mc{i}-x.npy"), seen["x"])
                np.save(os.path.join(self.args.out, f"mc{i}-cdf.npy"), seen["v"])
                for j in self.inputs["rng"].choice(count, RECHECK_POINTS, replace=False):
                    self.evaluated.append((key, float(seen["x"][j]), float(seen["v"][j])))
            # sampler post-processing, not a query on a table: left out of query_s
            for a in specs.TABLE1_ALPHAS:
                self.op(mc.empirical_quantile, x, a)

    def points(self) -> None:
        """The single-point cdf calls, with the reference loop timed every ~0.1 s among them.

        All of them are scaled by the median of those loop timings: one
        factor per iteration, so that the tail percentiles do not pick out
        the calls whose short stretch happened to be scaled most.
        """
        key, t = self.table(self.spec["points"][0])
        if t is None:
            return
        clock = time.perf_counter
        self.recalibrate()
        loops = [self.last_loop]
        raw = []
        last = clock()
        for x in self.inputs["points"]:
            self.attempted += 1
            start = clock()
            try:
                v = t.cdf(x)
            except Exception as exc:  # a failed point counts; the rest still run
                self.fail(f"cdf({x}) on {key}: {type(exc).__name__}: {exc}")
                continue
            end = clock()
            raw.append(end - start)
            self.evaluated.append((key, x, v))
            if end - last > 0.1:
                self.recalibrate()
                loops.append(self.last_loop)
                last = clock()
        self.recalibrate()
        loops.append(self.last_loop)
        f = calib.NOMINAL_S / statistics.median(loops)
        self.latencies.extend((dt * f, dt) for dt in raw)

    def cli_pass(self, label: str) -> None:
        env = dict(os.environ)
        if label == "cold":
            self.cache_index += 1
        if self.spec.get("cache_dir"):
            env["JACKRATIO_CACHE_DIR"] = os.path.dirname(self.cache_path(self.cache_index))
        cmds = [[a.format(**self.inputs["fmt"]) for a in cmd] for cmd in self.spec["cli"]]
        total = 0.0
        outs = []
        self.recalibrate()
        for j, cmd in enumerate(cmds):
            self.attempted += 1
            start = time.perf_counter()
            if self.tracer is not None:
                with self.tracer.span("cli.process") as sp:
                    env["PERFBENCH_TRACE_FILE"] = os.path.join(
                        self.args.trace_dir, f"cli-{label}-{len(self.passes[label])}-{j}.json")
                    env["PERFBENCH_PARENT_SPAN"] = str(sp.id)
                    proc = self.run_cli(cmd, env)
            else:
                proc = self.run_cli(cmd, env)
            total += time.perf_counter() - start
            outs.append(proc.stdout if proc else None)
            if proc is None or proc.returncode != 0:
                err = proc.stderr.strip()[-300:] if proc else "timed out"
                self.fail(f"jackratio {' '.join(cmd)[:80]} ({label}): {err}")
        self.passes[label].append((total * self.recalibrate(), total))
        self.cli_out[label].append(outs)

    def run_cli(self, cmd, env):
        try:
            return subprocess.run([sys.executable, os.path.join(HERE, "cli_shim.py"), *cmd],
                                  env=env, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return None

    def cache_path(self, index: int) -> str:
        return os.path.join(self.args.out, f"jackratio-cache-{index}", "jack_cache.json")


# -- correctness gates --------------------------------------------------------

def check(it: Iteration, ref: dict, record: bool) -> dict:
    """Run every gate; each check is one attempted operation, a miss is a failure."""
    observed = {"digests": {}, "K": {}, "quantiles": {}, "stats": {}, "cli": {}}

    def gate(ok: bool, what: str) -> None:
        it.attempted += 1
        if not ok:
            it.fail(what)

    for key, p in zip(it.auto_keys, it.autos):
        if p is None:
            continue
        observed["K"][key] = p.K
        if not record:
            gate(ref["K"].get(key) == p.K,
                 f"K: auto_converged_params({key}) picked K={p.K}, recorded {ref['K'].get(key)}")
    for key, t in it.tables.items():
        if t is None:
            continue
        observed["digests"][key] = d = coeff_digest(t)
        if not record:
            gate(ref["digests"].get(key) == d, f"digest: coefficients of table {key} changed")
    for key, qs in it.quantiles.items():
        observed["quantiles"][key] = qs
        want = ref["quantiles"].get(key) or [None] * len(qs)
        for a, q, w in zip(specs.TABLE1_ALPHAS, qs, want):
            if q is None:
                continue
            gate(abs(exact_cdf(it.tables[key], q) - a) <= QUANTILE_TOL,
                 f"quantile: cdf(quantile({a})) != {a} on {key}")
            if not record:
                gate(w is not None and abs(q - w) <= QUANTILE_REF_TOL,
                     f"quantile({a}) on {key} = {q}, recorded {w}")
    for key, st in it.stats.items():
        if st is None:
            continue
        observed["stats"][key] = st
        if not record:
            want = ref["stats"].get(key) or {}
            gate(all(abs(st[k] - want.get(k, math.inf)) <= STATS_REF_RTOL * abs(st[k])
                     for k in st), f"summary_stats on {key} differ from the recorded values")
    rng = it.inputs["rng"]
    prefix = it.spec["prefix"]
    if prefix and it.samples and it.inputs["index"] == 0:
        m, n, beta, _, _ = it.spec["mc"][0]
        short = mc.McConfig(m=m, n=n, beta=beta, replications=prefix,
                            seed=it.inputs["mc_seeds"][0])
        gate(np.array_equal(mc.sample_extreme_ratio(short), it.samples[0][:prefix]),
             f"prefix: {prefix} draws are not a prefix of a longer run with the same seed")
    if it.evaluated:
        picks = rng.choice(len(it.evaluated), min(len(it.evaluated), 3 * RECHECK_POINTS),
                           replace=False)
        chosen = sorted({int(j) for j in picks} |
                        {j for j, e in enumerate(it.evaluated) if e[1] == 0.3})
        for j in chosen:
            key, x, v = it.evaluated[j]
            if v is not None:
                gate(within_rule(v, exact_cdf(it.tables[key], x)),
                     f"recheck: cdf({x}) on {key} = {v} is off its exact value")
    check_cli(it, ref, gate, observed, record)
    return observed


def check_cli(it: Iteration, ref: dict, gate, observed: dict, record: bool) -> None:
    """Warm output equals cold output; results agree with the library or the record."""
    cmds = it.spec["cli"]
    for outs in it.cli_out["cold"] + it.cli_out["warm"]:
        for cmd, out, first in zip(cmds, outs, it.cli_out["cold"][0]):
            if out is not None and first is not None:
                gate(out == first, f"cli: output of {' '.join(cmd)[:60]} changed between runs")
    for cmd, out in zip(cmds, it.cli_out["cold"][0] if it.cli_out["cold"] else []):
        if out is None:
            continue
        got = cli_numbers(out)
        if cmd[:2] == ["dist", "cdf"]:
            key = specs.table_key(10, 3, 1, int(cmd[cmd.index("--K") + 1]))
            t = it.tables.get(key)
            rows = json.loads(out)["rows"]
            for row in rows[::max(1, len(rows) // RECHECK_POINTS)]:
                gate(t is not None and within_rule(row["cdf"], exact_cdf(t, row["x"])),
                     f"cli: cdf({row['x']}) = {row['cdf']} off its exact value")
        elif cmd[0] == "sim":
            reps = int(cmd[cmd.index("--reps") + 1])
            head = it.samples[0][:reps] if it.samples else None
            gate(head is not None and head.size == reps and all(
                abs(g - mc.empirical_quantile(head, a)) <= CLI_ROUND_TOL
                for g, a in zip(got[1::2], specs.TABLE1_ALPHAS)),
                "cli: sim quantiles differ from the library's sample with the same seed")
        else:
            name = " ".join(cmd)
            observed["cli"][name] = got
            if not record:
                want = ref["cli"].get(name)
                gate(want is not None and len(want) == len(got) and
                     all(abs(g - w) <= CLI_ROUND_TOL for g, w in zip(got, want)),
                     f"cli: {name} printed {got}, recorded {want}")


# -- entry point ----------------------------------------------------------------

def make_inputs(spec: dict, seed: int, index: int) -> dict:
    """The seeded inputs of iteration `index` of a run: the same seed gives the same inputs."""
    point_seq, check_seq, mc_seq, cli_seq = np.random.SeedSequence([seed, index]).spawn(4)
    _, count, lo, hi = spec["points"]
    points = [float(x) for x in np.random.default_rng(point_seq).uniform(lo, hi, count)]
    mc_seeds = [int(s.generate_state(1)[0]) for s in mc_seq.spawn(len(spec["mc"]))]
    cli_points = ",".join(repr(float(x)) for x in np.random.default_rng(cli_seq).uniform(
        0.0, 1.0, spec.get("cli_points", 1)))
    return {
        "index": index,
        "points": points,
        "mc_seeds": mc_seeds,
        "rng": np.random.default_rng(check_seq),
        "fmt": {"mc_seed": str(mc_seeds[0]) if mc_seeds else "0", "cli_points": cli_points},
    }


def counts(it: Iteration, fallbacks: int) -> dict:
    """Deterministic counts of the iteration: they repeat exactly for one seed."""
    out = {f"{k}.{w}": v for k, (h, mi) in tracing.cache_infos().items()
           for w, v in (("hits", h), ("misses", mi))}
    cells = num_bits = den_bits = 0
    for t in it.tables.values():
        if t is None:
            continue
        cells += len(t.coeffs)
        for c in t.collapsed():
            num_bits = max(num_bits, abs(c.numerator).bit_length())
            den_bits = max(den_bits, c.denominator.bit_length())
    out.update({
        "dist.tables": sum(t is not None for t in it.tables.values()),
        "dist.coeff_cells": cells,
        "dist.coeff_num_bits_max": num_bits,
        "dist.coeff_den_bits_max": den_bits,
        "dist.exact_fallback.points": fallbacks,
        "mc.samples": it.draws,
    })
    if it.spec.get("cache_dir") and os.path.exists(it.cache_path(0)):
        with open(it.cache_path(0)) as fh:
            out["jack.snapshot.entries"] = len(json.load(fh)["entries"])
        out["jack.snapshot.bytes"] = os.path.getsize(it.cache_path(0))
    return out


def summarize(it: Iteration) -> dict:
    """The iteration's measurements in reference seconds (see calib.py), and raw."""
    factors = [calib.factor(a, b) for a, b in zip(it.marks, it.marks[1:])]

    def total(kind):
        return it.scaled[kind] + sum(s * factors[i] for i, s in it.spent[kind].items())

    def median_pass(label, raw=False):
        passes = [p[1] if raw else p[0] for p in it.passes[label]]
        return statistics.median(passes) if passes else None

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": sum(s * f for s, f in zip(it.item_s, factors)),
        "build_s": total("build"),
        "query_s": total("query") + sum(ref for ref, _ in it.latencies),
        "latencies_s": [ref for ref, _ in it.latencies],
        "ks_points": it.ks_points,
        "ks_s": total("ks"),
        "draws": it.draws,
        "draw_s": total("draw"),
        "cold_cmd_s": median_pass("cold"),
        "warm_cmd_s": median_pass("warm"),
        "peak_rss_mb": rss_kb / 1024,
        "raw": {"wall_s": sum(it.item_s), "build_s": it.raw["build"],
                "query_s": it.raw["query"] + sum(raw for _, raw in it.latencies),
                "cold_cmd_s": median_pass("cold", True), "warm_cmd_s": median_pass("warm", True),
                "reference_loop_s": it.marks, "latencies_s": [raw for _, raw in it.latencies]},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0, help="iteration number within the run")
    ap.add_argument("--size", choices=tuple(specs.SIZES), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--trace-dir", default=None, help="trace into this directory")
    ap.add_argument("--record", action="store_true",
                    help="report the observed gate values instead of checking them")
    args = ap.parse_args()

    spec = specs.SIZES[args.size][args.workload]
    inputs = make_inputs(spec, args.seed, args.index)
    ready = time.monotonic()

    warnings.filterwarnings("ignore", category=dist.TruncationWarning)
    with open(args.reference) as fh:
        ref = json.load(fh).get(args.size, {})
    ref = {k: ref.get(k, {}) for k in ("digests", "K", "quantiles", "stats", "cli")}

    fallbacks = [0]
    orig_exact = dist.SeriesTable.__dict__.get("_eval_exact")
    trc = None
    missing = []
    if args.trace_dir:
        trc = tracing.Tracer()
        missing = trc.install()
    elif orig_exact is not None:
        def counted(self, *a, **kw):
            fallbacks[0] += 1
            start = time.perf_counter()
            try:
                return orig_exact(self, *a, **kw)
            finally:
                it.exact_s += time.perf_counter() - start
        dist.SeriesTable._eval_exact = counted

    it = Iteration(args, spec, inputs, trc)
    ready_loop = calib.loop_seconds()
    try:
        if trc is not None:
            with trc.span("bench.workload"):
                it.run()
        else:
            it.run()
    except Exception:  # a crash of the harness itself still reports a result
        it.fail("workload crashed: " + traceback.format_exc(limit=3))

    if trc is not None:
        trc.uninstall()
        trc.write(os.path.join(args.trace_dir, "worker.json"))
    elif orig_exact is not None:
        dist.SeriesTable._eval_exact = orig_exact

    try:
        observed = check(it, ref, args.record)
    except Exception:  # a crash in a gate is a failed gate
        it.fail("gates crashed: " + traceback.format_exc(limit=3))
        observed = {}
    result = summarize(it)
    result.update({
        "ready": ready,
        "ready_loop_s": ready_loop,
        "attempted": it.attempted,
        "failures": it.failures,
        "counts": counts(it, fallbacks[0]) if trc is None else {},
        "mc_files": [[f"mc{i}-x.npy", f"mc{i}-cdf.npy"] for i in range(len(spec["mc"]))],
        "missing": missing if orig_exact is not None else missing + ["dist.exact_fallback"],
        "observed": observed,
        "jackratio_version": jackratio.__version__,
    })
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
