import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300)


def run_concordance(*args):
    return run_script("mc_concordance.py", *args)


def test_mc_concordance_runs():
    for beta in ("1", "4"):
        proc = run_concordance("--m", "5", "--n", "2", "--beta", beta,
                               "--reps", "4000", "--ks-reps", "2000")
        assert proc.returncode == 0, proc.stderr
        assert "sampled 4000 replications" in proc.stdout
        assert f"beta={beta}," in proc.stdout
        assert "KS distance over first 2000 samples" in proc.stdout
    # --ks-reps past --reps takes every sample, and the report says how many
    proc = run_concordance("--m", "5", "--n", "2", "--reps", "1000", "--ks-reps", "5000")
    assert proc.returncode == 0, proc.stderr
    assert "KS distance over first 1000 samples" in proc.stdout


@pytest.mark.parametrize("args, message", [
    (["--m", "6", "--n", "2"], "does not terminate"),  # no default t_max
    (["--ks-reps", "0"], "--ks-reps"),
    (["--ks-reps", "-5"], "--ks-reps"),  # would take all but the last 5 samples
    (["--reps", "0"], "replication"),
])
def test_mc_concordance_rejects_bad_parameters_before_sampling(args, message):
    proc = run_concordance("--m", "25", "--n", "2", "--reps", "1000", *args)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert "sampled" not in proc.stdout


def test_reproduce_tables_writes_the_recorded_files(tmp_path):
    golden = os.path.join(ROOT, "tests", "reproduce_tables_golden")
    proc = run_script("reproduce_tables.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(golden, name), "rb") as want, open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name
