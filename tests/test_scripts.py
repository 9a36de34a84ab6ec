import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_mc_concordance_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for beta in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "mc_concordance.py"),
             "--m", "5", "--n", "2", "--beta", beta, "--reps", "4000", "--ks-reps", "2000"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "sampled 4000 replications" in proc.stdout
        assert f"beta={beta}," in proc.stdout
        assert "KS distance over first 2000 samples" in proc.stdout
