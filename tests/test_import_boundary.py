"""numpy loads only where arrays are used: the sampler and `cdf_many`; the
E-basis layers (`jack`, `esym`) only where the symbolic commands use them;
`dataclasses` (with `inspect` and `ast` behind it) nowhere a command runs.

Each check runs in a fresh interpreter, because the test process itself has
numpy loaded already.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# dir(jackratio), dunder names left out
PUBLIC_NAMES = (
    "DegenerateBetaError", "DistParams", "EPolynomial", "JackExpansion", "LBRow",
    "McConfig", "Partition", "SeriesTable", "TruncationError", "TruncationWarning",
    "__version__", "auto_converged_params", "clear_caches",
    "conjugate", "dist", "e_to_jack", "eigenvalue_closed_form", "elementary_values",
    "empirical_moments", "empirical_quantile", "esym", "gen_pochhammer_exact",
    "get_general_table", "get_table", "jack", "jack_at_identity", "jack_expansion",
    "jack_product", "ks_distance", "laplace_beltrami_row",
    "leading_elementary_coeff", "load_expansion_cache", "lower_hook_product", "mc",
    "normalize", "partitions", "partitions_of",
    "pi_exponent", "sample_extreme_ratio", "save_expansion_cache",
    "special", "upper_hook_product", "weight",
)


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ["dist", "quantile", "--m", "10", "--n", "3", "--K", "10", "--alpha", "0.5"],
    ["dist", "table1", "--variant", "a"],
    ["jack", "product", "--left", "2,1", "--right", "2", "--m", "2"],
    ["lb-row", "--nu", "3,2", "--m", "2"],
])
def test_commands_without_arrays_do_not_import_numpy(argv):
    out = run_python(
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import jackratio.cli\n"
        f"assert jackratio.cli.main({argv!r}) == 0\n"
        "print('numpy' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [
    ["dist", "quantile", "--m", "10", "--n", "3", "--K", "10", "--alpha", "0.5"],
    ["dist", "fig1", "--m-grid", "5:25:20"],
])
def test_dist_commands_do_not_import_the_symbolic_layers(argv):
    out = run_python(
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import jackratio.cli\n"
        f"assert jackratio.cli.main({argv!r}) == 0\n"
        "print([m for m in ('jackratio.jack', 'jackratio.esym') if m in sys.modules])\n")
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["dist", "quantile", "--m", "10", "--n", "3", "--K", "10", "--alpha", "0.5"],
    ["dist", "table1", "--variant", "a"],
    ["dist", "fig1", "--m-grid", "5:25:20"],
    ["jack", "product", "--left", "2,1", "--right", "2", "--m", "2"],
    ["lb-row", "--nu", "3,2", "--m", "2"],
])
def test_commands_start_without_dataclasses(argv):
    out = run_python(
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import jackratio.cli\n"
        f"assert jackratio.cli.main({argv!r}) == 0\n"
        "print('dataclasses' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_sim_still_samples():
    out = run_python(
        "import jackratio.cli\n"
        "assert jackratio.cli.main(['sim', '--m', '6', '--n', '3', '--reps', '100',\n"
        "                           '--alpha', '0.5', '--format', 'csv']) == 0\n")
    header, row = out.splitlines()
    assert header == "alpha,F_sim_inv"
    assert 0 < float(row.split(",")[1]) < 1


def test_mc_names_import_from_the_package():
    out = run_python(
        "from jackratio import (McConfig, sample_extreme_ratio, ks_distance,\n"
        "                       empirical_quantile, empirical_moments)\n"
        "import jackratio.mc as mc\n"
        "assert McConfig is mc.McConfig and ks_distance is mc.ks_distance\n"
        "samples = sample_extreme_ratio(McConfig(m=6, n=3, replications=50))\n"
        "print(len(samples), 0 < empirical_quantile(samples, 0.5) < 1)\n")
    assert out.split() == ["50", "True"]


def test_every_public_name_resolves():
    out = run_python(
        "import jackratio\n"
        f"names = {PUBLIC_NAMES!r}\n"
        "missing = [n for n in names if not hasattr(jackratio, n)]\n"
        "unlisted = sorted(set(names) - set(dir(jackratio)))\n"
        "print(missing, unlisted)\n")
    assert out.strip() == "[] []"
