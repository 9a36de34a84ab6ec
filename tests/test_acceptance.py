"""End-to-end acceptance checks, one block per criterion.

Every numeric target is either exact (symbolic identities), an independently
computed oracle (quadrature, Monte Carlo), or a frozen reference value; the
tolerances are stated inline.  Sub-checks whose reference values were shown
to be unreproducible are marked as strict expected failures with the
analysis kept in the project notes; a companion check demonstrates the
attainable version next to each one.
"""

import csv
import io
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from appendix_recurrences import appendix_row
from conftest import record
from jackratio.cli import main
from jackratio.dist import (DistParams, auto_converged_params, get_table,
                            get_general_table, TruncationWarning)
from jackratio.esym import EPolynomial, eigenvalue_closed_form, laplace_beltrami_row
from jackratio.jack import e_to_jack, jack_expansion, jack_product
from jackratio.mc import (McConfig, empirical_moments, empirical_quantile,
                          ks_distance, sample_extreme_ratio)
from jackratio.partitions import partitions_of
from operator_oracle import apply_operator
import quadrature_oracle

SEED = 20240601

UNREPRODUCIBLE = ("reference values are not outputs of the stated truncation "
                  "order; analysis in the project notes")


@pytest.fixture(autouse=True)
def _quiet_truncation():
    # the stated truncation orders are deliberately unconverged in the tails;
    # the warning channel is exercised elsewhere
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


@pytest.fixture(scope="module")
def table_k25():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return get_table(DistParams(m=10, n=3, beta=1, K=25))


@pytest.fixture(scope="module")
def samples_1m():
    return sample_extreme_ratio(McConfig(m=10, n=3, replications=10**6,
                                         seed=SEED))


@pytest.fixture(scope="module")
def table2_rows(tmp_path_factory):
    """The full moment table, produced end to end through the CLI."""
    out = tmp_path_factory.mktemp("accept") / "table2.csv"
    code = main(["dist", "table2", "--output", str(out)])
    assert code == 0
    with open(out) as fh:
        return {int(r["m"]): r for r in csv.DictReader(fh)}


# -- criterion 1: exact symbolic algebra ---------------------------------------

def test_single_e_term_in_c_basis():
    got = e_to_jack(EPolynomial({(2, 1, 1): Fraction(1)}, 4), 1).as_dict()
    want = {(2, 1, 1): Fraction(3, 16), (1, 1, 1, 1): Fraction(1, 2)}
    record("1", "single E-term in the C basis", got == want)
    assert got == want


def test_product_linearization_examples():
    a = jack_product((2, 1), (2,), 1, 2).as_dict()
    b = jack_product((5,), (1,), 1, 2).as_dict()
    ok = (a == {(3, 2): Fraction(28, 75), (4, 1): Fraction(27, 50)} and
          b == {(6,): Fraction(1), (5, 1): Fraction(5, 27)})
    record("1", "product linearization examples", ok)
    assert ok


GRID_BETAS = (Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2),
              Fraction(3, 7))


def test_resolution_of_unity_grid():
    t0 = time.perf_counter()
    for m in (1, 2, 3, 4):
        for k in range(0, 9):
            for beta in GRID_BETAS:
                total = EPolynomial.zero(m)
                for kappa in partitions_of(k, m):
                    total = total + jack_expansion(kappa, beta, m)
                assert total.terms == \
                    EPolynomial.term((k,) if k else (), m).terms
    elapsed = time.perf_counter() - t0
    record("1", "resolution of unity, m<=4, k<=8, five betas", True,
           f"{elapsed:.1f}s")
    assert elapsed < 60


def test_eigenfunction_identity_grid():
    for m in (1, 2, 3, 4):
        for k in range(1, 9):
            for beta in GRID_BETAS:
                for kappa in partitions_of(k, m):
                    f = jack_expansion(kappa, beta, m)
                    assert apply_operator(f, beta).terms == \
                        f.scale(eigenvalue_closed_form(kappa, beta, m)).terms
    record("1", "operator eigenfunction identity on the same grid", True)


def test_low_variable_recurrence_equivalence():
    # the hand recurrences index by source partition; transposing the
    # operator's off-diagonal action must reproduce them entry for entry,
    # at every beta since the off-diagonal entries do not depend on it
    for beta in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for m in (2, 3, 4):
            for k in range(1, 7):
                parts = partitions_of(k, m)
                incoming = {mu: {} for mu in parts}
                for lam in parts:
                    for mu, c in dict(laplace_beltrami_row(lam, beta, m).entries).items():
                        if mu != lam:
                            incoming[mu][lam] = c
                for mu in parts:
                    app = {lam: c for lam, c in appendix_row(mu, beta, m).items() if c}
                    assert app == incoming[mu], (beta, m, mu)
    record("1", "low-variable recurrence equivalence (m=2,3,4; k<=6; beta=1,2,1/2)", True)


# -- criterion 2: quantile table, real case -------------------------------------

def test_real_case_quantile_table(table_k25):
    targets = {0.01: 0.389, 0.05: 0.509, 0.50: 0.759, 0.90: 0.888, 0.95: 0.917}
    t0 = time.perf_counter()
    got = {a: table_k25.quantile(a) for a in targets}
    elapsed = time.perf_counter() - t0
    ok = all(abs(got[a] - targets[a]) <= 1e-3 for a in targets)
    record("2", "five quantiles within 0.001", ok,
           ", ".join(f"{a}: {got[a]:.4f}" for a in targets) +
           f"; {elapsed:.2f}s")
    assert ok
    assert elapsed < 300


# -- criterion 3: quantile table, complex case ----------------------------------

@pytest.fixture(scope="module")
def table_k40():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return get_table(DistParams(m=10, n=3, beta=2, K=40))


def test_complex_case_head_quantiles(table_k40):
    targets = {0.01: 0.451, 0.05: 0.539, 0.50: 0.726}
    t0 = time.perf_counter()
    got = {a: table_k40.quantile(a) for a in targets}
    elapsed = time.perf_counter() - t0
    ok = all(abs(got[a] - targets[a]) <= 1e-3 for a in targets)
    record("3", "head quantiles (alpha=0.01,0.05,0.50) within 0.001", ok,
           ", ".join(f"{a}: {got[a]:.4f}" for a in targets))
    assert ok
    assert elapsed < 1800


@pytest.mark.xfail(strict=True, reason=UNREPRODUCIBLE)
def test_complex_case_tail_quantiles_at_stated_truncation(table_k40):
    targets = {0.90: 0.834, 0.95: 0.859}
    got = {a: table_k40.quantile(a) for a in targets}
    ok = all(abs(got[a] - targets[a]) <= 1e-3 for a in targets)
    record("3", "tail quantiles (alpha=0.90,0.95) at K=40", ok,
           ", ".join(f"{a}: {got[a]:.4f} vs {targets[a]}" for a in targets))
    assert ok


def test_complex_case_full_column_slightly_deeper():
    # four more terms of the outer sum reproduce the whole reference column
    table = get_table(DistParams(m=10, n=3, beta=2, K=44))
    targets = {0.01: 0.451, 0.05: 0.539, 0.50: 0.726, 0.90: 0.834, 0.95: 0.859}
    got = {a: table.quantile(a) for a in targets}
    ok = all(abs(got[a] - targets[a]) <= 1e-3 for a in targets)
    record("3", "full column at K=44 within 0.001", ok,
           ", ".join(f"{a}: {got[a]:.4f}" for a in targets))
    assert ok


# -- criterion 4: moment table across dimensions --------------------------------

TABLE2_REFERENCE = {
    5: (0.667, 0.0415, -0.675, 2.81),
    25: (0.382, 0.0246, 0.0224, 2.41),
    45: (0.301, 0.0174, 0.164, 2.50),
    65: (0.260, 0.0136, 0.235, 2.57),
    85: (0.232, 0.0112, 0.280, 2.62),
    105: (0.212, 0.00961, 0.311, 2.66),
    125: (0.196, 0.00841, 0.334, 2.68),
    145: (0.184, 0.00749, 0.349, 2.70),
}
COLUMNS = ("Mean", "Variance", "Skewness", "Kurtosis")
DISPUTED = {(125, "Kurtosis"), (145, "Skewness"), (145, "Kurtosis")}


def test_moment_table_reference_entries(table2_rows):
    misses = []
    for m, ref in TABLE2_REFERENCE.items():
        for col, want in zip(COLUMNS, ref):
            if (m, col) in DISPUTED:
                continue
            got = float(table2_rows[m][col])
            if abs(got - want) > 5e-3:
                misses.append(f"m={m} {col}: {got:.4f} vs {want}")
    record("4", "29 of 32 reference entries within 0.005", not misses,
           "; ".join(misses) or "all within tolerance")
    assert not misses, misses


@pytest.mark.xfail(strict=True, reason=UNREPRODUCIBLE)
def test_moment_table_disputed_entries(table2_rows):
    misses = []
    for m, col in sorted(DISPUTED):
        want = TABLE2_REFERENCE[m][COLUMNS.index(col)]
        got = float(table2_rows[m][col])
        if abs(got - want) > 5e-3:
            misses.append(f"m={m} {col}: {got:.4f} vs {want}")
    record("4", "remaining entries (m=125 kurtosis; m=145 skewness, kurtosis)",
           not misses, "; ".join(misses))
    assert not misses


def test_moment_table_disputed_entries_match_simulation(table2_rows):
    # an independent 5e5-replication simulation sides with the computed
    # values at the three disputed cells (tolerances are three sigma)
    checks = []
    for m in (125, 145):
        samples = sample_extreme_ratio(McConfig(m=m, n=2,
                                                replications=500_000,
                                                seed=SEED))
        mom = empirical_moments(samples)
        skew = float(table2_rows[m]["Skewness"])
        kurt = float(table2_rows[m]["Kurtosis"])
        checks.append(abs(mom["skewness"] - skew) <= 0.011)
        checks.append(abs(mom["kurtosis"] - kurt) <= 0.021)
    ok = all(checks)
    record("4", "disputed cells match an independent simulation", ok)
    assert ok


def test_moment_table_disputed_entries_match_quadrature():
    # the deterministic version of the check above: Gauss-Legendre on the
    # n = 2 density reaches about 1e-14 on these moments (twice the nodes
    # move them by less), and the series' moments are correctly rounded from
    # exact sums, so 1e-12 relative leaves room for neither side to be wrong;
    # the five-digit values are the quadrature's, which the paper's 2.68,
    # 0.349 and 2.70 miss
    five_digits = {125: {"skewness": 0.33710, "kurtosis": 2.69284},
                   145: {"skewness": 0.35653, "kurtosis": 2.72028}}
    misses = []
    for m, want in five_digits.items():
        series = get_table(auto_converged_params(m, 2, 1, moments=4)).summary_stats()
        oracle = quadrature_oracle.summary_stats(m, 1)
        for key, value in series.items():
            if abs(value - oracle[key]) > 1e-12 * abs(oracle[key]):
                misses.append(f"m={m} {key}: {value!r} vs {oracle[key]!r}")
        for key, value in want.items():
            if abs(oracle[key] - value) > 5e-6:
                misses.append(f"m={m} {key}: quadrature {oracle[key]:.6f} vs {value}")
    record("4", "all four moments at m=125, 145 match quadrature within 1e-12",
           not misses, "; ".join(misses))
    assert not misses, misses


def test_cdf_matches_quadrature_n2():
    # x <= 0.7 keeps the check off the saturated tail, where the series'
    # truncation (its monitor allows 1e-10 of the mass; at (25,2,2) K=80
    # misses 5.6e-12) and not the evaluation sets the difference
    misses = []
    for m, beta in ((25, 1), (25, 2)):
        table = get_table(auto_converged_params(m, 2, beta))
        for x in (0.1, 0.3, 0.5, 0.7):
            got, want = table.cdf(x), quadrature_oracle.cdf(m, beta, x)
            if abs(got - want) > 1e-12 * want:
                misses.append(f"({m},2,{beta}) x={x}: {got!r} vs {want!r}")
    assert not misses, misses


# -- criterion 5: Monte Carlo concordance ----------------------------------------

def test_mc_quantile_concordance(samples_1m):
    targets = {0.01: 0.390, 0.05: 0.509, 0.50: 0.759, 0.90: 0.885, 0.95: 0.910}
    got = {a: empirical_quantile(samples_1m, a) for a in targets}
    ok = all(abs(got[a] - targets[a]) <= 5e-3 for a in targets)
    record("5", "five empirical quantiles within 0.005 of reference", ok,
           ", ".join(f"{a}: {got[a]:.4f}" for a in targets))
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="the truncated model places only 0.985 of its mass "
                          "on [0, 1], so the KS distance to any sample is at "
                          "least the missing 0.015; notes have the analysis")
def test_ks_against_stated_truncation(samples_1m, table_k25):
    d = ks_distance(samples_1m[:10**5], table_k25.cdf_many)
    record("5", "KS vs stated-truncation model <= 0.01", d <= 0.01,
           f"distance {d:.4f}")
    assert d <= 0.01


def test_ks_against_converged_model(samples_1m):
    table = get_table(auto_converged_params(10, 3, 1))
    d = ks_distance(samples_1m[:10**5], table.cdf_many)
    record("5", "KS vs converged model <= 0.01", d <= 0.01, f"distance {d:.4f}")
    assert d <= 0.01


# -- criterion 6: probability growth in dimension --------------------------------

def test_probability_growth_and_simulation_agreement():
    ms = (5, 25, 45, 65, 85)
    series = []
    for m in ms:
        table = get_table(auto_converged_params(m, 2, 1))
        series.append(table.cdf(0.3))
    increasing = all(a < b for a, b in zip(series, series[1:]))
    record("6", "series probability strictly increasing in m", increasing,
           ", ".join(f"{m}: {v:.4f}" for m, v in zip(ms, series)))
    assert increasing

    diffs = []
    for m, v in zip(ms, series):
        samples = sample_extreme_ratio(McConfig(m=m, n=2,
                                                replications=200_000,
                                                seed=SEED))
        diffs.append(abs(float(np.mean(samples <= 0.3)) - v))
    ok = all(d <= 0.01 for d in diffs)
    record("6", "simulation agreement within 0.01", ok,
           f"max diff {max(diffs):.4f}")
    assert ok


# -- criterion 7: normalization oracles -------------------------------------------

def test_density_integrates_to_one():
    table = get_table(DistParams(m=5, n=2, beta=1, K=40))
    val, _ = quad(table.pdf, 0, 1, limit=200)
    ok = abs(val - 1) <= 1e-3
    record("7", "density integrates to 1 (tol 1e-3)", ok, f"integral {val:.8f}")
    assert ok


def test_zeroth_moment_is_one():
    table = get_table(DistParams(m=5, n=2, beta=1, K=40))
    val = table.moment(0)
    ok = abs(val - 1) <= 1e-6
    record("7", "zeroth moment equals 1 (tol 1e-6)", ok, f"moment {val:.9f}")
    assert ok


def test_density_matches_cdf_derivative(table_k25):
    h = 1e-5
    rels = []
    for x in (0.2, 0.5, 0.8):
        num = (table_k25.cdf(x + h) - table_k25.cdf(x - h)) / (2 * h)
        rels.append(abs(num - table_k25.pdf(x)) / abs(num))
    ok = max(rels) <= 1e-5
    record("7", "density equals cdf derivative (rel tol 1e-5)", ok,
           f"max rel {max(rels):.2e}")
    assert ok


def test_general_shape_formula_agrees(table_k25):
    general = get_general_table(3, 10, 25)
    rels = []
    for x in (0.2, 0.5, 0.8):
        a = table_k25.pdf(x)
        b = general.pdf(x)
        rels.append(abs(a - b) / abs(a))
    ok = max(rels) <= 1e-10
    record("7", "general-shape formula agrees with the specialized one", ok,
           f"max rel {max(rels):.2e}")
    assert ok
