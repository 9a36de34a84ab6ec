"""Tests of the benchmark itself, at the tiny 'smoke' sizes.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
SCRATCH = os.path.join(ROOT, ".perfbench_out", "tests")

sys.path.insert(0, BENCH)
import run as bench  # noqa: E402


def run_bench(workload, *extra, seed=3, trace=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = None
    for line in lines:
        if line.startswith("run record: "):
            with open(os.path.join(cwd, line[len("run record: "):])) as fh:
                record = json.load(fh)
    return proc, result, record


def tampered_reference(edit):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        ref = json.load(fh)
    edit(ref["smoke"])
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "reference-tampered.json")
    with open(path, "w") as fh:
        json.dump(ref, fh)
    return path


@pytest.mark.parametrize("workload", ["build-n3", "sweep-n2", "mc-ks", "cli-cache"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result, record = run_bench(workload)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    assert record["nproc"] and record["python"] and record["numpy"]
    assert record["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_gates_fail_on_tampered_digest():
    key = "10,3,1,25"
    path = tampered_reference(lambda ref: ref["digests"].__setitem__(key, "0" * 64))
    proc, result, _ = run_bench("build-n3", "--reference", path)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert f"digest: coefficients of table {key} changed" in proc.stdout


def test_gates_fail_on_tampered_K():
    key = "5,2,1,moments=0"
    path = tampered_reference(lambda ref: ref["K"].__setitem__(key, 25))
    proc, result, _ = run_bench("build-n3", "--reference", path)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert f"K: auto_converged_params({key}) picked K=50, recorded 25" in proc.stdout


def test_two_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        proc, result, record = run_bench("cli-cache", seed=5)
        assert proc.returncode == 0, proc.stderr
        counts.append(record["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["dist.coeff_cells"] > 0
    assert counts[0]["jack.snapshot.entries"] > 0


def test_traced_run_reports_per_layer_metrics():
    proc, result, record = run_bench("build-n3", trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = result["metrics"]
    assert "trace.overhead_s" in metrics
    assert set(metrics) == set(bench.PER_LAYER)
    for name, unit in bench.PER_LAYER.items():
        assert metrics[name]["unit"] == unit
    assert metrics["jack.jack_product_with_trace_power.calls"]["value"] > 0
    assert metrics["cli.main.busy_s"]["value"] > 0
    # spans nest under one root, so the layers' self times cover the traced wall
    assert 0.9 <= metrics["trace.layer_self_share"]["value"] <= 1.1


def test_refuses_to_run_without_the_package():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result, _ = run_bench("mc-ks", cwd=bare)
    assert proc.returncode not in (0, None)
    assert result is None
