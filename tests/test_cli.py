import csv
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from jackratio import cli
from jackratio.cli import build_parser, main
from jackratio.dist import TruncationWarning
from jackratio.esym import EPolynomial
from jackratio.jack import e_to_jack, jack_product


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _quiet_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# -- symbolic subcommands ------------------------------------------------------

def test_jack_product_unity_case(capsys):
    code, out, _ = run(capsys, "jack", "product", "--left", "1", "--right", "1",
                       "--m", "2")
    assert code == 0
    assert json.loads(out) == {"2": "1", "1,1": "1"}


def test_jack_product_matches_library(capsys):
    code, out, _ = run(capsys, "jack", "product", "--left", "2,1", "--right", "2",
                       "--beta", "1/2", "--m", "3")
    assert code == 0
    got = {tuple(int(p) for p in k.split(",")): Fraction(v)
           for k, v in json.loads(out).items()}
    assert got == jack_product((2, 1), (2,), Fraction(1, 2), 3).as_dict()


def test_jack_expand_round_trip(capsys):
    code, out, _ = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "3")
    assert code == 0
    terms = {tuple(int(p) for p in k.split(",")): Fraction(v)
             for k, v in json.loads(out).items()}
    back = e_to_jack(EPolynomial(terms, 3), Fraction(1))
    assert back.as_dict() == {(2, 1): Fraction(1)}


def test_symbolic_commands_match_their_recorded_output(capsys):
    # stdout compared whole, so the order of the printed terms is checked too
    with open(os.path.join(ROOT, "tests", "symbolic_cli_golden.json")) as fh:
        golden = json.load(fh)
    for command, want in golden.items():
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, ""), command
        assert out == want, command


def test_lb_row_csv(capsys):
    code, out, _ = run(capsys, "lb-row", "--nu", "2", "--m", "2",
                       "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert {r["partition"]: r["coefficient"] for r in rows} == \
        {"2": "4", "1,1": "-4"}


# -- distribution subcommands ----------------------------------------------------

def test_dist_cdf_envelope(capsys):
    code, out, _ = run(capsys, "dist", "cdf", "--m", "10", "--n", "3",
                       "--x", "0.389,0.5", "--digits", "8")
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "dist cdf"
    assert env["params"] == {"m": 10, "n": 3, "beta": 1, "K": 25, "t_max": 6}
    assert env["metadata"]["truncation"]["K"] == 25
    assert env["metadata"]["truncation"]["mass"] == pytest.approx(0.98540, abs=1e-4)
    assert "version" in env["metadata"]
    assert env["rows"][0]["x"] == 0.389
    assert env["rows"][0]["cdf"] == pytest.approx(0.010019, abs=1e-5)
    assert env["rows"][1]["cdf"] > env["rows"][0]["cdf"]


def test_dist_pdf_positive(capsys):
    code, out, _ = run(capsys, "dist", "pdf", "--m", "10", "--n", "3",
                       "--beta", "2", "--x", "0.3,0.6,0.9")
    assert code == 0
    env = json.loads(out)
    assert all(r["pdf"] > 0 for r in env["rows"])


def test_dist_quantile_round_trip(capsys):
    code, out, _ = run(capsys, "dist", "quantile", "--m", "5", "--n", "2",
                       "--K", "50", "--alpha", "0.5", "--digits", "12")
    assert code == 0
    q = json.loads(out)["rows"][0]["quantile"]
    code, out, _ = run(capsys, "dist", "cdf", "--m", "5", "--n", "2",
                       "--K", "50", "--x", str(q), "--digits", "12")
    assert code == 0
    assert json.loads(out)["rows"][0]["cdf"] == pytest.approx(0.5, abs=1e-6)


def test_dist_moment_json(capsys):
    code, out, _ = run(capsys, "dist", "moment", "--m", "5", "--n", "2",
                       "--K", "50", "--h", "0,1", "--digits", "10")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["moment"] == pytest.approx(1.0, abs=1e-6)
    assert rows[1]["moment"] == pytest.approx(2 / 3, abs=1e-6)


def test_dist_table1_variant_a(capsys):
    code, out, _ = run(capsys, "dist", "table1", "--variant", "a")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0].keys()) == ["alpha", "F_25_inv"]
    expected = {0.01: 0.388874, 0.05: 0.508863, 0.5: 0.758879,
                0.9: 0.888465, 0.95: 0.917165}
    assert len(rows) == 5
    for r in rows:
        assert float(r["F_25_inv"]) == \
            pytest.approx(expected[float(r["alpha"])], abs=1e-3)


def test_dist_fig1_grid(capsys):
    code, out, _ = run(capsys, "dist", "fig1", "--m-grid", "5:45:20")
    assert code == 0
    rows = parse_csv(out)
    assert [r["m"] for r in rows] == ["5", "25", "45"]
    vals = [float(r["Pr(0.7<l_n/l_1<1)"]) for r in rows]
    assert vals == sorted(vals)
    assert 0 < vals[0] < vals[-1] < 1


def test_dist_table2_and_fig1_report_truncation(capsys):
    code, out, _ = run(capsys, "dist", "fig1", "--m-grid", "5:25:20", "--format", "json")
    assert code == 0
    truncation = json.loads(out)["metadata"]["truncation"]
    assert [t["m"] for t in truncation] == [5, 25]
    assert [t["K"] for t in truncation] == [50, 100]
    for t in truncation:
        assert t.keys() == {"m", "K", "t_max", "last_increment_rel", "mass"}
        assert t["last_increment_rel"] < 1e-10
        assert t["mass"] == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run(capsys, "dist", "table2", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    truncation = envelope["metadata"]["truncation"]
    assert [t["m"] for t in truncation] == [r["m"] for r in envelope["rows"]]
    for t in truncation:
        monitors = t["moment_last_increment_rel"]
        assert list(monitors) == ["1", "2", "3", "4"]
        assert all(0 <= v < 1e-10 for v in monitors.values())
    # CSV carries the rows alone
    code, out, _ = run(capsys, "dist", "table2")
    assert code == 0
    assert out.splitlines()[0] == "m,Mean,Variance,Skewness,Kurtosis"


# -- simulation ---------------------------------------------------------------

def test_sim_alpha_json(capsys):
    code, out, _ = run(capsys, "sim", "--m", "6", "--n", "3", "--reps", "2000",
                       "--seed", "5", "--alpha", "0.5,0.9")
    assert code == 0
    env = json.loads(out)
    assert env["params"]["statistic"] == "one_minus_ratio"
    assert env["params"]["seed"] == 5
    rows = env["rows"]
    assert rows[0]["alpha"] == 0.5 and rows[1]["alpha"] == 0.9
    assert 0 < rows[0]["F_sim_inv"] < rows[1]["F_sim_inv"] < 1


def test_sim_moments_csv(capsys):
    code, out, _ = run(capsys, "sim", "--m", "6", "--n", "3", "--reps", "5000",
                       "--moments", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0].keys()) == ["Mean", "Variance", "Skewness", "Kurtosis"]
    assert 0 < float(rows[0]["Mean"]) < 1


def test_sim_dump(capsys, tmp_path):
    target = tmp_path / "samples.npy"
    code, _, _ = run(capsys, "sim", "--m", "6", "--n", "3", "--reps", "100",
                     "--alpha", "0.5", "--dump", str(target))
    assert code == 0
    samples = np.load(target)
    assert samples.shape == (100,)
    assert np.all((samples > 0) & (samples < 1))


def test_sim_quaternion_matches_library(capsys, tmp_path):
    from jackratio.mc import McConfig, sample_extreme_ratio
    target = tmp_path / "samples.npy"
    code, out, _ = run(capsys, "sim", "--m", "6", "--n", "3", "--beta", "4",
                       "--reps", "500", "--seed", "9", "--alpha", "0.5",
                       "--dump", str(target))
    assert code == 0
    assert json.loads(out)["params"]["beta"] == 4
    want = sample_extreme_ratio(McConfig(m=6, n=3, beta=4, replications=500, seed=9))
    assert np.array_equal(np.load(target), want)


def test_sim_reports_sampler_counts(capsys, monkeypatch):
    argv = ("sim", "--m", "4", "--n", "3", "--reps", "2000", "--seed", "13", "--moments")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    sampler = json.loads(out)["metadata"]["sampler"]
    assert set(sampler) == {"eigvalsh", "resampled"}
    assert sampler["eigvalsh"] > 0 and sampler["resampled"] == 0
    code, out, _ = run(capsys, "sim", "--m", "25", "--n", "2", "--reps", "100", "--moments")
    assert json.loads(out)["metadata"]["sampler"] == {"eigvalsh": 0, "resampled": 0}

    real = np.linalg.eigvalsh
    singles = []

    def flaky(a, *args, **kwargs):  # fails on every batch and on the first single draw
        if len(a) == 1:
            singles.append(1)
        if len(a) > 1 or len(singles) == 1:
            raise np.linalg.LinAlgError("flaky")
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    with pytest.warns(UserWarning, match="1 replications resampled"):
        code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["metadata"]["sampler"]["resampled"] == 1


def test_sim_too_many_reps_is_a_clean_error(capsys, monkeypatch):
    # the output array is allocated before any per-chunk work, so a count
    # that cannot be held fails at once; the allocation is faked, never made
    real = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape) > 10 ** 9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real(shape, *args, **kwargs)
    monkeypatch.setattr(np, "empty", empty)
    code, out, err = run(capsys, "sim", "--m", "10", "--n", "3",
                         "--reps", "10000000000000", "--moments")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unable to allocate")


def test_sim_requires_alpha_or_moments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--m", "6", "--n", "3", "--reps", "10"])
    assert exc.value.code == 2


# -- plumbing -------------------------------------------------------------------

def test_warning_is_one_stderr_line():
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "jackratio.cli", "dist", "quantile", "--m", "10",
         "--n", "3", "--K", "10", "--alpha", "0.5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: series truncation K=10 shows relative last "
                           "increment 1.24e-01; results may be off\n")
    assert json.loads(proc.stdout)["rows"][0]["alpha"] == 0.5


def test_series_cut_in_t_warns_and_reports_its_last_column():
    # the K monitor passes here, so the last column is what shows the cut
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "jackratio.cli", "dist", "cdf", "--m", "10", "--n", "2",
         "--K", "60", "--t-max", "10", "--x", "0.95"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: series truncation K=60 shows last column t=10 at "
                           "3.37e-02 of the mass; results may be off\n")
    truncation = json.loads(proc.stdout)["metadata"]["truncation"]
    assert truncation.keys() == {"K", "t_max", "last_increment_rel", "mass", "last_column_rel"}
    assert truncation["last_increment_rel"] < 1e-10
    assert truncation["last_column_rel"] == pytest.approx(3.373e-2, rel=1e-3)


def test_warning_format_is_restored(capsys):
    before = warnings.formatwarning
    assert run(capsys, "dist", "quantile", "--m", "10", "--n", "3", "--K", "10",
               "--alpha", "0.5")[0] == 0
    assert run(capsys, "dist", "cdf", "--m", "3", "--n", "5", "--x", "0.5")[0] == 1
    assert warnings.formatwarning is before


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "cdf", "--m", "10"])  # missing --n and --x
    assert exc.value.code == 2


def test_domain_error_exits_1(capsys):
    code, out, err = run(capsys, "dist", "cdf", "--m", "3", "--n", "5",
                         "--x", "0.5")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_bad_partition_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jack", "expand", "--kappa", "1,x", "--m", "2"])
    assert exc.value.code == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "jack", "product", "--left", "1", "--right", "1",
                       "--m", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"2": "1", "1,1": "1"}


def test_unwritable_output_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "dist", "table2", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: could not write {target}: No such file or directory"


def test_unwritable_output_fails_before_the_handler(capsys, tmp_path, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("built a table")

    monkeypatch.setattr(cli, "get_table", no_table)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "dist", "table2", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: could not write {target}: No such file or directory"


def test_output_file_is_left_alone_when_the_handler_fails(capsys, tmp_path):
    existing = tmp_path / "old.json"
    existing.write_text("keep me\n")
    fresh = tmp_path / "new.json"
    for target in (existing, fresh):
        code, out, err = run(capsys, "dist", "cdf", "--m", "3", "--n", "3", "--x", "0.5",
                             "--output", str(target))
        assert code == 1
        assert err.startswith("error: ")
    assert existing.read_text() == "keep me\n"
    assert not fresh.exists()


def test_unwritable_dump_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.npy"
    code, out, err = run(capsys, "sim", "--m", "6", "--n", "3", "--reps", "100",
                         "--alpha", "0.5", "--dump", str(target))
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: could not write {target}: No such file or directory"


def test_digits_formatting(capsys):
    code, out, _ = run(capsys, "dist", "table1", "--variant", "a", "--digits", "2")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["F_25_inv"] == "0.39"


def test_negative_digits_is_a_usage_error(capsys):
    # round(v, -3) printed 0.0 in JSON; the csv format spec failed outright
    for fmt in ("json", "csv"):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--m", "5", "--n", "2", "--reps", "10", "--alpha", "0.5",
                  "--digits", "-3", "--format", fmt])
        assert exc.value.code == 2
        assert "digits must be nonnegative" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cache_dir_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JACKRATIO_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "3")
    assert code == 0
    cache = tmp_path / "jack_cache.json"
    assert cache.exists()
    payload = json.loads(cache.read_text())
    assert payload["version"] == 1

    # a second run loads the cache without complaint
    code, _, err = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "3")
    assert code == 0
    assert "ignoring" not in err

    # a corrupt cache is reported, skipped, and rewritten
    cache.write_text("{not json")
    code, out, err = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "3")
    assert code == 0
    assert "ignoring unusable cache" in err
    assert json.loads(out)  # normal output still produced
    assert json.loads(cache.read_text())["version"] == 1

    # wrong format version is also rejected gracefully
    cache.write_text(json.dumps({"version": 999, "entries": {}}))
    code, _, err = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "3")
    assert code == 0
    assert "ignoring unusable cache" in err


def test_cache_dir_list_payload_is_reported(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JACKRATIO_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "jack_cache.json"
    cache.write_text("[1, 2]")
    code, out, err = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "3")
    assert code == 0
    assert "ignoring unusable cache" in err
    assert json.loads(out)
    assert json.loads(cache.read_text())["version"] == 1


def test_cache_dir_wrong_entry_is_rejected(capsys, tmp_path, monkeypatch):
    # well-formed but wrong: C_(1) = 5 E_(1) instead of E_(1)
    monkeypatch.setenv("JACKRATIO_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "jack_cache.json"
    cache.write_text(json.dumps({"version": 1, "entries": [
        {"kappa": [1], "beta": "1", "m": 2, "terms": {"1": "5"}}]}))
    code, out, err = run(capsys, "jack", "product", "--left", "1", "--right", "1",
                         "--m", "2")
    assert code == 0
    assert "ignoring unusable cache" in err
    assert json.loads(out) == {"2": "1", "1,1": "1"}


def test_unwritable_cache_dir_is_reported(capsys, tmp_path, monkeypatch):
    # a regular file where the cache directory should be: the answer is
    # still printed, and the failed save is reported on stderr
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    monkeypatch.setenv("JACKRATIO_CACHE_DIR", str(blocker))
    code, out, err = run(capsys, "jack", "expand", "--kappa", "2,1", "--m", "2")
    assert code == 0
    assert json.loads(out) == {"2,1": "12/5"}
    assert "could not save cache" in err
    code, out, err = run(capsys, "jack", "product", "--left", "1", "--right", "1",
                         "--m", "2")
    assert code == 0
    assert json.loads(out) == {"2": "1", "1,1": "1"}
    assert "could not save cache" in err
    assert blocker.read_text() == ""


def test_dist_commands_leave_cache_dir_alone(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JACKRATIO_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "jack_cache.json"
    cache.write_text("[1, 2]")
    code, _, err = run(capsys, "dist", "cdf", "--m", "5", "--n", "2", "--K", "10",
                       "--x", "0.5")
    assert code == 0
    assert err == ""
    assert cache.read_text() == "[1, 2]"


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["dist", "table1", "--variant", "b"])
    assert args.variant == "b"
