import hashlib
import math
import sys
import tracemalloc
import warnings
from collections.abc import Mapping
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import jackratio.dist as dist_mod
import moment_oracle
import quadrature_oracle
from backward_build import (backward_coeffs, cellwise_pieri_coefficients, delta_functional,
                            rising_factorial)
from jackratio import esym, jack
from jackratio.dist import (MONITOR_TOLERANCE, DistParams, LeadingConstant, SeriesTable,
                            TruncationError, TruncationWarning, auto_converged_params,
                            get_general_table, get_table)
from jackratio.jack import jack_expansion, jack_product
from jackratio.partitions import partitions_of
from jackratio.special import gen_pochhammer_exact


def quiet_table(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return get_table(params)


def drop_table(params):
    """Forget the table that get_table keeps for params; its build stays."""
    key = (params.m, params.n, params.beta, params.resolved_t_max)
    if key in dist_mod._BUILDS:
        dist_mod._BUILDS[key].tables.pop(params.resolved_K, None)


# -- parameter validation -----------------------------------------------------

def test_general_table_validation():
    # the same domain errors as DistParams, not an empty table or a TypeError
    for args, kw in (((2, 5, -1), {}), ((2, 5, 4), {"t_max": -3}), ((2, 5, 2.5), {}),
                     ((2, 5, None), {}), ((2, 5, True), {}), ((2.0, 5, 4), {}),
                     ((2, 5.0, 4), {})):
        with pytest.raises(ValueError):
            get_general_table(*args, **kw)


def test_params_validation():
    with pytest.raises(ValueError):
        DistParams(m=3, n=3, beta=1)  # needs m > n
    with pytest.raises(ValueError):
        DistParams(m=10, n=3, beta=3)
    with pytest.raises(ValueError):
        DistParams(m=10, n=3, K=-1)
    with pytest.raises(ValueError):
        DistParams(m=10, n=3, t_max=-2)
    with pytest.raises(ValueError):
        DistParams(m=10, n=1, beta=1)
    # non-integers and bools are domain errors, not TypeErrors from the build
    for bad in (dict(K=2.5), dict(t_max=1.5), dict(m=10.0), dict(n=3.0), dict(beta=2.0),
                dict(beta=True), dict(K=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            DistParams(**{"m": 10, "n": 3, **bad})
    for bad in (dict(moments=1.0), dict(moments=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            auto_converged_params(10, 3, 1, **bad)
    with pytest.raises(ValueError, match="must be an integer"):
        auto_converged_params(10.0, 3, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        auto_converged_params(10, 3, 1, moments=-1)


@pytest.mark.parametrize("call", [
    lambda i: get_table(DistParams(m=10, n=3, beta=i(2), K=25)).collapsed(),
    lambda i: get_table(DistParams(m=i(8), n=i(5), K=10)).collapsed(),
    lambda i: get_general_table(i(3), i(10), i(10)).collapsed(),
    lambda i: auto_converged_params(i(25), 2, 1),
    lambda i: get_table(DistParams(m=10, n=3, K=25)).moment(i(2)),
    lambda i: get_table(DistParams(m=10, n=3, K=25)).moment_monitor(i(1)),
])
def test_numpy_integers_give_the_python_int_results(monkeypatch, call):
    # numpy scalars once reached the exact arithmetic and overflowed there
    results = []
    for i in (int, np.int64, np.int32):
        monkeypatch.setattr(dist_mod, "_BUILDS", {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            results.append(call(i))
    assert results[1] == results[0] and results[2] == results[0]


def test_default_truncation_orders():
    p = DistParams(m=10, n=3, beta=1)
    assert p.resolved_K == 25
    assert p.resolved_t_max == 6
    p2 = DistParams(m=10, n=3, beta=2)
    assert p2.resolved_K == 40
    assert p2.resolved_t_max == 14


def test_fractional_p_requires_explicit_t_max():
    p = DistParams(m=6, n=4, beta=1)  # p = 1/2
    with pytest.raises(ValueError):
        p.resolved_t_max
    assert DistParams(m=6, n=4, beta=1, t_max=9).resolved_t_max == 9


# -- normalization and calculus oracles ---------------------------------------

def test_mass_is_one_at_converged_truncation():
    assert abs(get_table(DistParams(m=5, n=2, beta=1, K=40)).moment(0) - 1) <= 1e-6


def test_constant_log_abs_beyond_float_range():
    # sign and log|q c| of a q far beyond float range, as the benchmark reads them
    const = LeadingConstant(Fraction(10 ** 400, 3), 0.5)
    assert const.sign == 1
    assert const.log_abs == pytest.approx(400 * math.log(10) - math.log(6), rel=1e-13)
    assert LeadingConstant(Fraction(-7, 2), 1.0).sign == -1
    assert LeadingConstant(Fraction(7, 2), -1.0).sign == -1
    assert LeadingConstant(Fraction(1, 10 ** 400), 1.0).log_abs == pytest.approx(-400 * math.log(10))


def lgamma_log_constant(m, n, beta):
    """The terms whose sum is log of a series table's constant, by lgamma,
    as the package computed it before the constant was exact:

        log Gamma_{n-1}(n b/2 + 1) + log Gamma_{n-1}((n-2) b/2 + 1) + r log pi
        - log Gamma_{n-1}((n-1) b + 2) - (m n b/2) log n - log Gamma(n b/2)
        - log Gamma_n(m b/2) + log Gamma(m n b/2)
    """
    b = Fraction(beta)

    def log_mvgamma(k, c):
        return [k * (k - 1) * beta / 4 * math.log(math.pi)] + [
            math.lgamma(float(c - Fraction(i - 1) * b / 2)) for i in range(1, k + 1)]

    r = n * b / 2 if beta == 1 else (n - 1) * b / 2
    f = Fraction(m * n) * b / 2
    plus = (log_mvgamma(n - 1, n * b / 2 + 1) + log_mvgamma(n - 1, (n - 2) * b / 2 + 1)
            + [float(r) * math.log(math.pi), math.lgamma(float(f))])
    minus = (log_mvgamma(n - 1, (n - 1) * b + 2) + [float(f) * math.log(n), math.lgamma(n * beta / 2)]
             + log_mvgamma(n, m * b / 2))
    return plus + [-t for t in minus]


CONSTANT_GRID = [(m, n, beta) for beta in (1, 2, 4) for n in range(2, 6)
                 for m in range(n + 1, 146)] + [(7, 7, 1)]


def test_table_constants_are_exact():
    # q c with no power of pi; c = 1.0 where m n beta is even, else 1/sqrt(n)
    # correctly rounded.  The lgamma oracle carries about an ulp of each of
    # its terms, which reach thousands at beta = 4, n = 5 (its error there is
    # up to 1.9e-12), so it is held to 1e-13 or to that rounding if larger
    with localcontext() as ctx:
        ctx.prec = 50
        for m, n, beta in CONSTANT_GRID:
            # `_series_constant` asserts that no power of pi is left
            const = dist_mod._leading(*dist_mod._series_constant(m, n, beta), n)
            if m * n * beta % 2:
                assert const.c == float(1 / Decimal(n).sqrt()), (m, n, beta)
            else:
                assert const.c == 1.0, (m, n, beta)
            terms = lgamma_log_constant(m, n, beta)
            oracle = Decimal(sum(terms)).exp()
            exact = Decimal(const.q.numerator) / Decimal(const.q.denominator) * Decimal(const.c)
            tol = max(1e-13, 2 * sys.float_info.epsilon * sum(map(abs, terms)))
            assert abs(float(oracle / exact - 1)) <= tol, (m, n, beta)
    table = get_general_table(7, 7, 1, t_max=1)
    assert table.const is table.build.const
    assert table.const == dist_mod._leading(*dist_mod._series_constant(7, 7, 1), 7)


def test_cdf_boundaries_and_monotone_grid():
    for params in (DistParams(m=10, n=3, beta=1, K=25),
                   DistParams(m=10, n=3, beta=2, K=40)):
        table = quiet_table(params)
        assert table.cdf(0.0) == 0.0
        grid = np.linspace(0, 1, 1001)
        vals = table.cdf_many(grid)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] == pytest.approx(table.mass(), abs=1e-9)


def test_pdf_positive_on_grid():
    for params in (DistParams(m=10, n=3, beta=1, K=25),
                   DistParams(m=10, n=3, beta=2, K=40),
                   DistParams(m=5, n=2, beta=1, K=40)):
        table = quiet_table(params)
        for x in np.linspace(0.001, 0.999, 1000):
            assert table.pdf(float(x)) >= 0


def test_pdf_is_cdf_derivative():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=25))
    h = 1e-5
    for x in (0.2, 0.5, 0.8):
        num = (table.cdf(x + h) - table.cdf(x - h)) / (2 * h)
        assert num == pytest.approx(table.pdf(x), rel=1e-5)


def test_pdf_integrates_to_one():
    table = quiet_table(DistParams(m=5, n=2, beta=1, K=40))
    val, _ = quad(table.pdf, 0, 1, limit=200)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_moments_match_quadrature():
    params = auto_converged_params(5, 2, 1, moments=4)
    table = get_table(params)
    for h in range(5):
        ref, _ = quad(lambda x: x ** h * table.pdf(x), 0, 1, limit=200)
        assert table.moment(h) == pytest.approx(ref, abs=1e-6)


def test_domain_errors():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=25))
    with pytest.raises(ValueError):
        table.cdf(-0.1)
    with pytest.raises(ValueError):
        table.cdf(1.5)
    with pytest.raises(ValueError):
        table.cdf(float("nan"))
    with pytest.raises(ValueError):
        table.cdf_many([0.5, float("nan")])
    with pytest.raises(ValueError):
        table.cdf_many([0.5, 1.5])
    with pytest.raises(ValueError):
        table.pdf(0.0)
    with pytest.raises(ValueError, match="nonnegative integer"):
        table.moment(-1)
    # a bool is not an order, though True == 1
    for bad in (1.5, True):
        for query in (table.moment, table.moment_monitor):
            with pytest.raises(ValueError, match="must be an integer"):
                query(bad)
    with pytest.raises(ValueError):
        table.quantile(0.0)


# -- truncation structure ------------------------------------------------------

def test_t_sum_terminates_exactly():
    # extending t_max beyond its natural bound adds only exact zeros
    base = quiet_table(DistParams(m=10, n=3, beta=1, K=8))
    extended = quiet_table(DistParams(m=10, n=3, beta=1, K=8, t_max=12))
    assert base.coeffs == extended.coeffs


def test_coeffs_are_exact_fractions():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=6))
    assert all(isinstance(c, Fraction) for c in table.coeffs.values())
    assert all(isinstance(c, Fraction) for c in table.collapsed())


def test_exact_and_float_paths_agree():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=25))
    for x in (0.1, 0.3889, 0.62, 0.91):
        fast = table.cdf(x)
        slow = table._eval_exact(Fraction(x), derivative=False)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("params, exact_share", [
    (DistParams(m=10, n=3, beta=1, K=25), (0.0, 0.1)),  # nearly all on the float path
    # the Taylor centres about r/8 take every point centre 0 rejects
    (DistParams(m=10, n=3, beta=2, K=20), (0.0, 0.0)),
])
def test_cdf_many_matches_pointwise_cdf(monkeypatch, params, exact_share):
    table = quiet_table(params)
    calls = []
    exact = table._eval_exact
    monkeypatch.setattr(table, "_eval_exact",
                        lambda x, derivative: calls.append(x) or exact(x, derivative))
    xs = np.random.default_rng(7).uniform(0, 1, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        many = table.cdf_many(xs)
        fallbacks = len(calls)
        single = [table.cdf(float(x)) for x in xs]
    assert exact_share[0] <= fallbacks / len(xs) <= exact_share[1]
    for a, b in zip(many, single):
        assert abs(a - b) <= max(1e-12, 1e-9 * abs(b))
    assert table.mass() == table.moment(0) == table.diagnostics["mass"]


def test_cdf_many_keeps_the_input_shape(monkeypatch):
    table = quiet_table(DistParams(m=10, n=3, beta=2, K=20))
    calls = []
    exact = table._eval_exact
    monkeypatch.setattr(table, "_eval_exact",
                        lambda x, derivative: calls.append(x) or exact(x, derivative))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        scalar = table.cdf_many(0.5)
        # x^8 underflows at 2^-600, so the float bound rejects it and the
        # exact path returns it: one point of the grid falls back
        grid = [[0.5, 0.99], [0.3, 2.0 ** -600]]
        many = table.cdf_many(grid)
        assert calls == [Fraction(2.0 ** -600)]
        single = [[table.cdf(x) for x in row] for row in grid]
    assert scalar.shape == () and many.shape == (2, 2)
    got = [float(scalar)] + many.ravel().tolist()
    want = [single[0][0]] + [v for row in single for v in row]  # cdf(0.5) first
    for v, b in zip(got, want):
        assert abs(v - b) <= max(1e-12, 1e-9 * abs(b))


def test_cdf_many_float_path_allocates_little():
    # value, error estimate and x^power: three arrays the size of the input,
    # plus the accept flags; a temporary per operation would double it
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=50))
    xs = np.random.default_rng(3).uniform(0, 1, 20_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        table.cdf_many(xs)  # memoizes the polynomial
        tracemalloc.start()
        try:
            table.cdf_many(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(table.cdf(0.3)) is float  # the scalar path stays on Python floats
    assert peak <= 4 * xs.nbytes


def test_quantile_evaluates_each_point_once(monkeypatch):
    table = quiet_table(DistParams(m=10, n=3, beta=2, K=20))
    seen = []
    evaluate = table._evaluate
    monkeypatch.setattr(table, "_evaluate",
                        lambda x, derivative: seen.append(x) or evaluate(x, derivative))
    q = table.quantile(0.5)
    assert seen[-1] == q
    assert len(seen) == len(set(seen))


def test_float_fallback_under_cancellation():
    # large m: the alternating coefficients overwhelm double precision near 1
    # in the monomial basis, so the Taylor centre about 1 (or the exact path)
    # takes the point; results must stay sane
    params = auto_converged_params(145, 2, 1)
    table = get_table(params)
    v = table.cdf(0.97)
    exact = table._eval_exact(Fraction(0.97), derivative=False)
    assert v == exact
    assert v == pytest.approx(1.0, abs=1e-9)  # essentially all mass below 0.9
    grid = table.cdf_many(np.linspace(0.05, 0.45, 11))
    assert np.all(np.diff(grid) > 0)
    assert grid[0] < 0.1 and grid[-1] > 0.99


# -- convergence monitor --------------------------------------------------------

def test_truncation_warning_fires_once_when_unconverged():
    params = DistParams(m=10, n=3, beta=1, K=25)
    drop_table(params)
    with pytest.warns(TruncationWarning):
        get_table(params).cdf(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        get_table(params).cdf(0.6)  # no second warning

    drop_table(params)
    with pytest.warns(TruncationWarning) as record:
        get_table(params).moment(2)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        get_table(params).moment(2)


def test_truncation_warning_names_the_callers_line():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=25))
    entry_points = {
        "cdf": lambda: table.cdf(0.5),
        "cdf_many": lambda: table.cdf_many([0.5]),
        "pdf": lambda: table.pdf(0.5),
        "quantile": lambda: table.quantile(0.5),
        "mass": lambda: table.mass(),
        "moment": lambda: table.moment(1),
    }
    for name, call in entry_points.items():
        table._warned = False
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            call()
        assert [w.filename for w in seen] == [__file__], name


def column_share(table):
    """|sum_k c[k,t_max] / sum_{k,t} c[k,t]| from the cells, as Fractions."""
    t_max = table.build.spec.t_max
    cells = dict(table.coeffs)
    column = sum((c for (k, t), c in cells.items() if t == t_max), Fraction(0))
    return abs(column / sum(cells.values()))


@pytest.mark.parametrize("params", [
    DistParams(m=10, n=2, beta=1, K=60, t_max=10), DistParams(m=10, n=2, beta=1, K=20, t_max=10),
    DistParams(m=11, n=3, beta=1, K=12, t_max=8), DistParams(m=6, n=4, beta=1, K=6, t_max=5),
    # a terminating shape cut below its natural t_max (14)
    DistParams(m=10, n=3, beta=2, K=20, t_max=9),
])
def test_last_column_monitor_on_series_cut_in_t(params):
    drop_table(params)  # a fresh table, which has not warned yet
    table = quiet_table(params)
    share = table.diagnostics["last_column_rel"]
    assert share == pytest.approx(float(column_share(table)), rel=1e-15)
    assert share > MONITOR_TOLERANCE
    assert not table.converged
    with pytest.warns(TruncationWarning, match=f"last column t={params.t_max} at"):
        table.cdf(0.5)


def test_last_column_monitor_catches_a_silent_cut():
    # at (10,2,1,K=60,t_max=10) the K monitor passes, but the mass is 0.949
    # and cdf(0.95) is off by 1.5e-2; the column holds 3.4e-2 of the mass
    params = DistParams(m=10, n=2, beta=1, K=60, t_max=10)
    drop_table(params)
    table = get_table(params)
    assert table.diagnostics["last_increment_rel"] < MONITOR_TOLERANCE
    assert table.diagnostics["last_column_rel"] == pytest.approx(3.373e-2, rel=1e-3)
    with pytest.warns(TruncationWarning, match=r"K=60 shows last column t=10 at 3\.37e-02 of"):
        value = table.cdf(0.95)
    assert abs(value - quadrature_oracle.cdf(10, 1, 0.95)) > 1e-2


@pytest.mark.parametrize("params", [
    DistParams(m=10, n=3, beta=1, K=25), DistParams(m=105, n=2, beta=1, K=50),
    # past the natural t_max the last columns are zero
    DistParams(m=10, n=3, beta=1, K=8, t_max=12), DistParams(m=5, n=2, beta=1, K=10, t_max=3),
])
def test_no_column_monitor_where_the_inner_series_terminates(params):
    assert "last_column_rel" not in quiet_table(params).diagnostics


def test_no_warning_when_converged():
    params = auto_converged_params(5, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        get_table(params).cdf(0.5)


def test_summary_stats_raise_when_unconverged():
    with pytest.raises(TruncationError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            get_table(DistParams(m=25, n=2, beta=1, K=25)).summary_stats()


def test_auto_converged_params():
    params = auto_converged_params(25, 2, 1, moments=4)
    table = get_table(params)
    assert table.converged
    stats = table.summary_stats()
    assert 0 < stats["mean"] < 1
    assert stats["variance"] > 0


def exact_central_moments(table):
    """Mean, variance, mu3 and mu4 as Fractions, from the collapsed
    coefficients and the constant q c at the exact value of the float c."""
    const = table.const.q * Fraction(table.const.c)
    m1, m2, m3, m4 = (const * sum((c * Fraction(table.rho + j, table.rho + j + h)
                                   for j, c in enumerate(table.collapsed())), Fraction(0))
                      for h in (1, 2, 3, 4))
    return (m1, m2 - m1 ** 2, m3 - 3 * m1 * m2 + 2 * m1 ** 3,
            m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4)


@pytest.mark.parametrize("m", range(5, 146, 20))
def test_summary_stats_are_correctly_rounded(m):
    # the table's own constant (c = 1), then the same q with c = 1/sqrt(3)
    ref = get_table(auto_converged_params(m, 2, 1, moments=4))
    assert ref.const.c == 1.0
    for const in (ref.const, dist_mod._leading(ref.const.q, Fraction(1, 2), 3)):
        table = SeriesTable(ref.build, ref.K)
        table.const = const
        mean, var, mu3, mu4 = exact_central_moments(table)
        stats = table.summary_stats()
        assert stats["mean"] == float(mean)
        assert stats["variance"] == float(var)
        assert stats["kurtosis"] == float(mu4 / var ** 2)
        with localcontext() as ctx:
            ctx.prec = 60
            skewness = float(Decimal(mu3.numerator) / Decimal(mu3.denominator)
                             / (Decimal(var.numerator) / Decimal(var.denominator)) ** Decimal(1.5))
        assert abs(stats["skewness"] - skewness) <= math.ulp(skewness)


# -- quantiles -------------------------------------------------------------------

def test_quantile_round_trip():
    params = auto_converged_params(5, 2, 1)
    table = get_table(params)
    x = 0.5
    assert table.quantile(table.cdf(x)) == pytest.approx(x, abs=1e-6)


def test_quantile_tolerance():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=25))
    for alpha in (0.01, 0.5, 0.95):
        q = table.quantile(alpha)
        assert abs(table.cdf(q) - alpha) <= 1e-8


def test_quantile_beyond_truncated_mass_raises():
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=25))
    assert table.mass() < 0.999
    with pytest.raises(TruncationError):
        table.quantile(0.999)


# -- the Pieri recurrence against explicit pair products ----------------------

def pairwise_product_coeffs(s, K):
    """c[k,t] for k <= K of the series s, assembled term by term from the
    E-basis products C_kappa * C_tau.

    Sums scalar_k/t! [a_tau]_tau g^delta_{kappa,tau} [a_num]_delta C_delta(I)
    / [a_den]_delta over kappa of weight k, tau of weight t and every delta,
    with g from `jack_product` and C_delta(I) from evaluating the expansion.
    """
    ones = [Fraction(1)] * s.nvars
    cells = {}
    for k in range(K + 1):
        scalar_k = rising_factorial(s.gamma_arg, k) / (Fraction(s.base) ** k * math.factorial(k))
        for t in range(s.t_max + 1):
            for tau in partitions_of(t, s.nvars):
                ptau = gen_pochhammer_exact(s.a_tau, tau, s.beta)
                if not ptau:
                    continue
                for kappa in partitions_of(k, s.nvars):
                    for delta, g in jack_product(kappa, tau, s.beta, s.nvars).terms:
                        ident = jack_expansion(delta, s.beta, s.nvars).evaluate(ones)
                        term = (scalar_k / math.factorial(t) * g * ptau * ident *
                                gen_pochhammer_exact(s.a_num, delta, s.beta) /
                                gen_pochhammer_exact(s.a_den, delta, s.beta))
                        cells[(k, t)] = cells.get((k, t), Fraction(0)) + term
    return {kt: v for kt, v in cells.items() if v}


def test_coeffs_match_pairwise_product_oracle():
    for params in (DistParams(m=10, n=3, beta=1, K=5),
                   DistParams(m=10, n=3, beta=4, K=3),
                   DistParams(m=6, n=4, beta=2, K=3)):
        table = quiet_table(params)
        assert table.coeffs == pairwise_product_coeffs(table.build.spec, table.K), params


BACKWARD_GRID = [
    DistParams(m=10, n=3, beta=1, K=25), DistParams(m=10, n=3, beta=2, K=20),
    DistParams(m=10, n=3, beta=4, K=10), DistParams(m=6, n=4, beta=2, K=8),
    DistParams(m=11, n=4, beta=1, K=12), DistParams(m=105, n=2, beta=1, K=40),
    # t_max past the natural bound (the Pochhammer factors vanish from t=7 on)
    DistParams(m=10, n=3, beta=1, K=8, t_max=12),
    # half-integer shape: the inner series does not terminate
    DistParams(m=10, n=2, beta=1, K=10, t_max=6),
]


@pytest.mark.parametrize("params", BACKWARD_GRID)
def test_forward_build_matches_backward_oracle(params):
    table = quiet_table(params)
    assert table.coeffs == backward_coeffs(table.build.spec, table.K)


# n = 2 shapes for the closed-form oracle, as (m, beta, table): the sweep at
# its auto K, beta = 4, t_max = 0, an explicit t_max on a non-terminating
# shape, and the square real case (p = -1/2, every a_t > 0)
N2_ORACLE_SHAPES = [
    *(pytest.param(m, beta, lambda m=m, beta=beta: get_table(auto_converged_params(m, 2, beta)),
                   id=f"{m},2,{beta},auto") for beta in (1, 2) for m in range(5, 146, 20)),
    pytest.param(9, 4, lambda: get_table(DistParams(m=9, n=2, beta=4, K=40)), id="9,2,4,K=40"),
    pytest.param(3, 1, lambda: get_table(DistParams(m=3, n=2, beta=1, K=0)), id="3,2,1,K=0"),
    pytest.param(3, 1, lambda: get_table(DistParams(m=3, n=2, beta=1, K=10)), id="3,2,1,K=10"),
    pytest.param(10, 1, lambda: get_table(DistParams(m=10, n=2, beta=1, K=20, t_max=10)),
                 id="10,2,1,K=20,t_max=10"),
    pytest.param(2, 1, lambda: get_general_table(2, 2, 20, t_max=12), id="general(2,2),K=20,t_max=12"),
]


@pytest.mark.parametrize("m, beta, make", N2_ORACLE_SHAPES)
def test_n2_cells_and_collapse_match_closed_form_oracle(m, beta, make):
    table = make()
    K, t_max = table.K, table.build.spec.t_max
    want = moment_oracle.cells(m, beta, K, t_max)
    assert dict(table.coeffs) == want
    assert table.collapsed() == moment_oracle.collapse(want, K, t_max)
    D = table._denominator
    assert {t: Fraction(v, D) for t, v in table._last_row} == \
        {t: c for (k, t), c in want.items() if k == K}


def test_delta_functional_matches_closed_forms():
    # the box-by-box recurrence against the closed forms, one partition each
    for m, n, beta in ((10, 2, 1), (10, 3, 2), (10, 3, 4), (11, 4, 1), (9, 5, 2)):
        spec = dist_mod._spec(m, n, beta, 0)
        for w in range(14):
            nums, den = dist_mod._DeltaFunctional(spec).at(w)
            deltas = partitions_of(w, spec.nvars)
            assert len(nums) == len(deltas)
            want = {d: delta_functional(d, spec) for d in deltas}
            assert {d: Fraction(v, den) for d, v in zip(deltas, nums)} == want, (m, n, beta, w)
            assert math.gcd(den, *nums) == 1


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_integer_pieri_levels_match_cellwise_oracle(beta):
    # every move of a level, by rank over its denominator, is the oracle's rational
    for nvars in range(1, 6):
        for w in range(9):
            sources, targets, nums, den, size = dist_mod._pieri_moves(w, Fraction(beta), nvars)
            lams, mus = partitions_of(w, nvars), partitions_of(w + 1, nvars)
            assert len(sources) == len(targets) == len(nums) and size == len(mus)
            assert set(sources) == set(range(len(lams)))
            for i, lam in enumerate(lams):
                got = {mus[mu]: Fraction(c, den)
                       for j, mu, c in zip(sources, targets, nums) if j == i}
                assert len(got) == sources.count(i)
                assert got == cellwise_pieri_coefficients(lam, beta, nvars), (beta, nvars, lam)


def clear_build_caches():
    for cache in (dist_mod._BUILDS, dist_mod._PIERI_MOVES, dist_mod._DELTA_FUNCTIONAL):
        cache.clear()


@pytest.mark.parametrize("m, n, beta, K", [(10, 3, 1, 25), (10, 3, 2, 10), (105, 2, 1, 50),
                                           (11, 4, 1, 6)])
def test_extended_table_equals_cold_build(m, n, beta, K):
    clear_build_caches()
    quiet_table(DistParams(m=m, n=n, beta=beta, K=K))
    extended = quiet_table(DistParams(m=m, n=n, beta=beta, K=2 * K))
    clear_build_caches()
    cold = quiet_table(DistParams(m=m, n=n, beta=beta, K=2 * K))
    assert extended is not cold
    assert extended.coeffs == cold.coeffs
    assert extended.diagnostics == cold.diagnostics


@pytest.mark.parametrize("m, n, beta", [(10, 3, 1), (105, 2, 1)])
def test_extended_collapse_equals_cold_collapse(m, n, beta):
    # K = 50, then 25 (below it: a collapse of its own), then 100 (extends 50's)
    clear_build_caches()
    warm = {K: quiet_table(DistParams(m=m, n=n, beta=beta, K=K)) for K in (50, 25, 100)}
    for K, table in warm.items():
        clear_build_caches()
        cold = quiet_table(DistParams(m=m, n=n, beta=beta, K=K))
        assert table is not cold
        assert table._denominator == cold._denominator
        assert table._nums == cold._nums
        assert table._last_row == cold._last_row
        assert table.diagnostics == cold.diagnostics
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert [table.moment(h) for h in range(5)] == [cold.moment(h) for h in range(5)]


def count_pieri_steps(monkeypatch):
    calls = [0]
    step = dist_mod._pieri_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(dist_mod, "_pieri_step", counted)
    return calls


def test_convergence_search_extends_one_build(monkeypatch):
    calls = count_pieri_steps(monkeypatch)
    clear_build_caches()
    assert quiet_table(DistParams(m=10, n=3, beta=1, K=100)).coeffs
    single = calls[0]
    clear_build_caches()
    calls[0] = 0
    assert auto_converged_params(10, 3, 1).K == 100
    assert 0 < calls[0] <= single


def test_convergence_search_picks_the_same_K():
    clear_build_caches()
    picked = [auto_converged_params(m, 2, 1, moments=4).K for m in (5, 25, 45, 65, 85, 105)]
    assert picked == [50, 100, 100, 100, 100, 100]


def test_pieri_moves_in_one_variable_are_the_identity():
    # what lets an n = 2 build skip every Pieri step: p_1 C_(w) = C_(w+1)
    for beta in (1, 2, 4):
        for w in range(61):
            sources, targets, nums, den, size = dist_mod._pieri_moves(w, Fraction(beta), 1)
            assert (sources, targets, nums, size) == ((0,), (0,), (den,), 1)


def test_n2_search_makes_no_pieri_step(monkeypatch):
    calls = count_pieri_steps(monkeypatch)
    clear_build_caches()
    assert auto_converged_params(105, 2, 1, moments=4).K == 100
    assert calls[0] == 0
    clear_build_caches()
    auto_converged_params(10, 3, 1)
    assert calls[0] > 0


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# SHA-256 of the collapse and row K as Fractions, N_j/D and (t, v/D), and of
# the sorted cells (k, t, numerator, denominator) of every table the n = 2
# searches build.  The cells were recorded when each Pieri step still ran,
# the Fractions when the collapse still summed the cells one by one: the
# build that skips the steps and the collapse by one polynomial product must
# match both.  The hashes pin values, not the common denominator D, which
# the collapse is free to choose (it is now the least one)
N2_SEARCH_DIGESTS = {
    (5, 25): ("b5450038f4d2230683d16d65e187991a8a1db359d28d72dabae5865cf49d070b",
              "48461f0d849c8227b131b0c4fe6acf900746d7eafab76881b3d4fb31ceccdf9a"),
    (5, 50): ("6f96d0267a4d3f54ab638bed36ad85725ab2403e0cbbcc31907bc7753bfa3b69",
              "38dfa3bdf81152a1a7d752cb522275170ce3c44a5804653801bc6ef511878850"),
    (25, 25): ("0232998c7b7fafc0023f1a38b501e1efc747e4c806c14c8f69ba8e6696f08d6d",
               "966159d916305336766fa80437b408780b5439382f387ab8aa3cfcc26e19125d"),
    (25, 50): ("1b8714af306b89f5977871c92f69b854988df9932adf122053a4fbae75b16e69",
               "dc4261c5b4c811a39f300fe8b6112c6b13674bf3a927039821dcc6818f9527da"),
    (25, 100): ("cd840e9354fb0a957bc7eabaffa1a0730bbf2d09bbfb45d64fd92100c16cdeb0",
                "9716fdf8c1949851f89e85fe9f85398a3efff06d55324c429e1d794c7bd974b5"),
    (45, 25): ("a7bd01121d7fdcf5010008998da5b26566f57eca30c307110a81b14205866050",
               "17b17c0cfb98f445219bcf544c60338bc00e27043161fd36731cf70485047574"),
    (45, 50): ("5000ceb1dafff87c3703b4e36db3d1cb9dbb899163db51ba65c89cd05abad108",
               "9b31cf0d8b36a644a3c7e4e785839007394c26e4b617789180e10004f258e5cb"),
    (45, 100): ("4818ad9e6324bd6c04794c7066d5a4b3166421dea337cdc551fbe049da910a7d",
                "07d5667aab614d351e168a0cb325877936d1897233ccac57512399ff6105a1c3"),
    (65, 25): ("5c5f450683c786257273b4716333219d186be4dd36d32aafccd9432ef4fe28be",
               "374f7509bad46490536b575ccef2710f47414f0476a35f58183ea52180a21768"),
    (65, 50): ("4023298146ec0373f7e4a67f7329f2f2243e70015d82268f5528fa945f851eb0",
               "d93fb03cdb86c4a5dea219e1d5e5c889dc3d57a66b45227e5c5d7b21ccaec6f0"),
    (65, 100): ("ec539beb49450cd7a1b7a59265543a08c4d4f2ea648b58075157d0caf53ae7b6",
                "bc3c97d8c0e1a40bad5c84fd7aed924dc7c9b8de40a9320f266220bf656e65ea"),
    (85, 25): ("84f3d9939ac48da72a86bafe6836cfb7f971ff78d42cd340f612aa712b707ebb",
               "4770e8b4ab4cbf92e451702ced9533a4d33427e7a25c454b0061214fbd717e7a"),
    (85, 50): ("19866da28a5c1adb05ec2b66e490487aa5aa40d469b063c6644d3984ac3a8baf",
               "2f4eb36f914331c5a308acd319ad94f751d6322d372381c82cd0eafb19457c0b"),
    (85, 100): ("f1e063d50de5a727b2fd9344307d4d378df404de72431197a1c59f5a0f45337a",
                "7c3b89bb630dc092b15516b6188e4ca33d01267c8cd72c1391b87cddfcda84d3"),
    (105, 25): ("4c4ebc964f80a241f51eb98d3173a5884d6a87dc2eaa4950159c326e9f00539b",
                "935dc9f9eba22474b07325704a4f9d6b02a220af00357d63ac6619526f71b36d"),
    (105, 50): ("3ad15463b7b3716b035cf591f861a512c0e886ee5193628383f4fa438a415d95",
                "389f92cec6c75722169eac93bee19296ffb8601183352684adc0a4502411452a"),
    (105, 100): ("afa8859472adf3aa79946679987ada1c6e4c5613182b1739a47a103ec8217731",
                 "9e53057e0be6c5b3610007a4891986e4b1e98dc937bd064d147f3aa4542153dc"),
}


def test_n2_search_tables_match_recorded_digests():
    found = {}
    for m in range(5, 106, 20):
        clear_build_caches()
        auto_converged_params(m, 2, 1, moments=4)
        (build,) = dist_mod._BUILDS.values()
        for K, table in build.tables.items():
            cells = sorted((k, t, c.numerator, c.denominator)
                           for (k, t), c in table.coeffs.items())
            D = table._denominator
            found[(m, K)] = (digest(([Fraction(n, D) for n in table._nums],
                                     [(t, Fraction(v, D)) for t, v in table._last_row])),
                             digest(cells))
    assert found == N2_SEARCH_DIGESTS


def test_collapse_denominator_is_least():
    # D shares no factor with every N_j and row K: it is the least common
    # denominator of the table's exact data, at n = 2 and at n >= 3
    tables = []
    for m in range(5, 106, 20):
        clear_build_caches()
        auto_converged_params(m, 2, 1, moments=4)
        (build,) = dist_mod._BUILDS.values()
        tables += build.tables.values()
    tables.append(quiet_table(DistParams(m=10, n=3, beta=1, K=50)))
    assert len(tables) == 18
    for table in tables:
        assert math.gcd(table._denominator, *table._nums,
                        *(v for _, v in table._last_row)) == 1, (table.build.spec, table.K)


def test_n2_collapse_makes_no_cell_until_coeffs_is_read():
    clear_build_caches()
    params = auto_converged_params(105, 2, 1, moments=4)
    build = dist_mod._BUILDS[(105, 2, 1, 51)]
    assert build.rows == []
    table = get_table(params)
    assert len(table.coeffs) == 101 * 52
    assert len(build.rows) == params.K + 1 == 101


def test_one_build_owns_the_tables_of_a_search():
    clear_build_caches()
    params = auto_converged_params(10, 3, 1)
    assert list(dist_mod._BUILDS) == [(10, 3, 1, 6)]  # t_max 6 by default
    build = dist_mod._BUILDS[(10, 3, 1, 6)]
    assert sorted(build.tables) == [25, 50, 100]
    assert len(build.rows) == 101
    for K, table in build.tables.items():
        assert table.build is build and table.K == K
        assert table.const is build.const
        # the cells are a view of the build's own rows, not a copy
        assert all(row is build.rows[k] for k, row in enumerate(table.coeffs._rows))
        assert all(table.coeffs[(k, t)] == Fraction(*c) for k, row in enumerate(build.rows[:K + 1])
                   for t, c in row.items())
        assert len(table.coeffs) == sum(map(len, build.rows[:K + 1]))
    assert get_table(params) is build.tables[100]
    assert get_table(DistParams(m=10, n=3, beta=1, K=100, t_max=6)) is build.tables[100]


def test_convergence_search_stops_at_its_budget(monkeypatch):
    # (10,3,2) converges at K=160; under a budget of 60 the search tries
    # K=40, then 60 (not 80), and gives up without building past it
    assert auto_converged_params(10, 3, 2).K == 160
    clear_build_caches()
    monkeypatch.setattr(dist_mod, "_K_BUDGET", 60)
    with pytest.raises(TruncationError, match="K=60"):
        auto_converged_params(10, 3, 2)
    build = dist_mod._BUILDS[(10, 3, 2, 14)]
    assert sorted(build.tables) == [40, 60]
    assert len(build.rows) == 61


def test_get_table_builds_no_expansions():
    saved = dict(jack._EXPANSION_CACHE), dict(esym._ROW_CACHE)
    jack.clear_caches()
    esym._ROW_CACHE.clear()
    try:
        params = DistParams(m=9, n=4, beta=1, K=6)
        drop_table(params)
        assert quiet_table(params).coeffs
        assert not jack._EXPANSION_CACHE
        assert not esym._ROW_CACHE
    finally:
        jack._EXPANSION_CACHE.update(saved[0])
        esym._ROW_CACHE.update(saved[1])


# -- the general real-case formula -------------------------------------------------

def test_general_formula_specializes():
    p = DistParams(m=10, n=3, beta=1, K=25)
    table = quiet_table(p)
    for x in (0.2, 0.5, 0.8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            a = table.pdf(x)
            b = get_general_table(3, 10, 25).pdf(x)
        assert b == pytest.approx(a, rel=1e-10)


def test_general_formula_square_case_runs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        v = get_general_table(2, 2, 10, t_max=30).pdf(0.5)
    assert v > 0


def test_general_formula_normalizes():
    table = get_general_table(2, 5, 40)
    val, _ = quad(table.pdf, 0, 1, limit=200)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_general_formula_requires_t_max_when_nonterminating():
    # half-integer shape parameter: the inner sum never terminates on its own
    with pytest.raises(ValueError):
        get_general_table(2, 4, 10)
    with pytest.raises(ValueError):
        get_general_table(2, 2, 10)
    # integer shape parameter: terminates without help
    get_general_table(3, 4, 6)


# -- the exact passes over integers against Fraction oracles ---------------------

def fraction_collapse(table):
    """The coefficient c_j of x^(rho+j): the Fraction sum of the c[k,t] with k+t = j."""
    out = [Fraction(0)] * (table.K + table.build.spec.t_max + 1)
    for (k, t), c in table.coeffs.items():
        out[k + t] += c
    return out


def fraction_horner(table, x, derivative):
    """x^power * sum_j c_j x^j by Horner over Fractions, with c_j from
    `fraction_collapse` and, for the density, c_j * (rho + j) and power rho - 1."""
    coeffs = fraction_collapse(table)
    acc = Fraction(0)
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if derivative:
            c *= table.rho + j
        acc = acc * x + c
    return acc * x ** (table.rho - 1 if derivative else table.rho)


def rounded(value, const):
    """value * const with value a Fraction: the correctly rounded float of
    value * q times c, for const = q c."""
    return float(value * const.q) * const.c


def fraction_moment(table, h):
    """E[X^h] and its relative last increment from per-k Fraction sums."""
    increments = [Fraction(0)] * (table.K + 1)
    for (k, t), c in table.coeffs.items():
        e = table.rho + k + t
        increments[k] += c * Fraction(e, e + h)
    total = sum(increments, Fraction(0))
    if total == 0:
        return 0.0, float("inf")
    return rounded(total, table.const), float(abs(increments[-1] / total))


EXACT_TABLES = [
    DistParams(m=105, n=2, beta=1, K=100), DistParams(m=10, n=3, beta=2, K=20),
    DistParams(m=11, n=4, beta=1, K=12), DistParams(m=10, n=3, beta=4, K=10),
    # half-integer shape: the inner series does not terminate
    DistParams(m=10, n=2, beta=1, K=10, t_max=6),
    # m n beta odd: the constant is q / sqrt(3), so c is not 1
    DistParams(m=9, n=3, beta=1, K=10, t_max=6),
]


@pytest.mark.parametrize("params", EXACT_TABLES)
def test_integer_horner_matches_fraction_horner(params):
    table = quiet_table(params)
    assert table.collapsed() == fraction_collapse(table)
    rng = np.random.default_rng(11)
    # the fallback takes floats, so the third point is the float nearest 1/3
    points = ([Fraction(0), Fraction(1), Fraction(1 / 3), Fraction(0.5), Fraction(0.97),
               Fraction(2.0 ** -40)] + [Fraction(float(x)) for x in rng.uniform(0, 1, 20)])
    for derivative in (False, True):
        for x in points:
            want = fraction_horner(table, x, derivative)
            got = table._eval_exact(x, derivative)
            assert got == rounded(want, table.const), (x, derivative)
            if table.const.c == 1.0:  # one rounding in all
                assert got == float(want * table.const.q), (x, derivative)


@pytest.mark.parametrize("params", EXACT_TABLES)
def test_integer_moment_sums_match_fraction_sums(params):
    table = quiet_table(params)
    for h in range(5):
        assert table._moment_with_monitor(h) == fraction_moment(table, h), h
        if table.const.c == 1.0:
            total, den, _ = table._moment_sums(h)
            assert table._moment_with_monitor(h)[0] == float(Fraction(total, den) * table.const.q), h
    mass, rel_last = fraction_moment(table, 0)
    assert table.diagnostics["mass"] == mass
    assert table.diagnostics["last_increment_rel"] == rel_last


# -- the fixed-point Horner of the exact fallback ---------------------------------

def shifted(nums):
    """The numerators as `_exact_value` takes them: times 2^_GUARD."""
    return [n << dist_mod._GUARD for n in nums]


ONE = LeadingConstant(Fraction(1), 1.0)


def test_fixed_point_horner_survives_heavy_cancellation(monkeypatch):
    # sum_j (-1)^j C(200, j) x^j = (1 - x)^200: terms near 2^196, a value of 2^-2000
    nums = [(-1) ** j * math.comb(200, j) for j in range(201)]
    calls = []
    horner = dist_mod._fixed_horner
    monkeypatch.setattr(dist_mod, "_fixed_horner", lambda *a: calls.append(a) or horner(*a))
    x = 1 - Fraction(1, 2 ** 10)
    want = (1 - x) ** 200
    for den, const in ((1, ONE), (3, LeadingConstant(Fraction(2) ** 2000, 1.0)),
                       (7, LeadingConstant(Fraction(2) ** 2003, -1.25))):
        calls.clear()
        got = dist_mod._exact_value(shifted(nums), den, x, 0, const)
        assert got == float(want * const.q / den) * const.c
        assert len(calls) > 1  # 64 guard bits cannot show it; G grew
    assert dist_mod._exact_value(shifted(nums), 1, Fraction(1), 0, ONE) == 0.0  # exact zero
    assert dist_mod._exact_value(shifted(nums), 1, Fraction(1), 3, ONE) == 0.0


@pytest.mark.parametrize("log_abs", [800.0, -800.0])
def test_exact_value_with_a_constant_beyond_float_range(log_abs):
    # const = 2^(+-1154)/3, about e^(+-800)/3, is beyond float range, the
    # product is not
    E = round(log_abs / math.log(2))
    const = LeadingConstant(Fraction(2) ** E / 3, 1.0)
    rng = np.random.default_rng(5)
    nums = [int(v) << max(-E, 0) for v in rng.integers(-10 ** 6, 10 ** 6, 30)]
    den = 3 << max(E, 0)
    for x in [Fraction(float(v)) for v in rng.uniform(0, 1, 20)]:
        want = sum(n * x ** j for j, n in enumerate(nums)) * x ** 2 / den
        got = dist_mod._exact_value(shifted(nums), den, x, 2, const)
        assert got == rounded(want, const)
        assert 1e-12 < abs(got) < 1e12
    if log_abs < 0:
        return
    # a table's fallback with that constant (its mass would overflow, so the
    # constant is swapped in after the build), at x small enough for the range
    table = SeriesTable(quiet_table(DistParams(m=10, n=3, beta=1, K=10)).build, 10)
    table.const = const
    for x in (2.0 ** -230, 1.5 * 2.0 ** -231, 2.0 ** -228):
        for derivative in (False, True):
            want = fraction_horner(table, Fraction(x), derivative)
            value = table._eval_exact(Fraction(x), derivative)
            assert value == rounded(want, const)
            assert 1e-30 < value < 1e80


def test_float_terms_are_dropped_when_they_could_overflow():
    # the float path needs every coefficient and the sum of their sizes in
    # float range; without it every point takes the exact fallback
    build = quiet_table(DistParams(m=10, n=3, beta=1, K=10)).build
    table = SeriesTable(build, 10)
    sizes = [abs(float(c)) for c in table.collapsed()]
    # the largest coefficient at 1e308 keeps each one finite, not their sum
    assert sum(sizes) / max(sizes) > 1.8  # 1e308 * 1.8 is beyond float range
    for q in (Fraction(2) ** 1154 / 3, Fraction(1e308 / max(sizes))):
        table = SeriesTable(build, 10)
        table.const = LeadingConstant(q, 1.0)
        assert table._polynomial(False)[1] is None
        x = 2.0 ** -230
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert table.cdf(x) == table._eval_exact(Fraction(x), False)
            # cdf_many takes every point through the exact path as well
            xs = [x, 2.0 ** -231, 2.0 ** -232]
            assert table.cdf_many(xs).tolist() == [table._eval_exact(Fraction(v), False)
                                                   for v in xs]
            assert not table._centres


@settings(max_examples=300, deadline=None)
@given(nums=st.lists(st.integers(-2 ** 120, 2 ** 120), min_size=1, max_size=40),
       e=st.integers(0, 70), data=st.data(), power=st.integers(0, 15),
       guard=st.integers(0, 200), den=st.integers(1, 2 ** 80), E=st.integers(-300, 300))
def test_fixed_point_horner_bound_and_rounding(nums, e, data, power, guard, den, E):
    p = data.draw(st.integers(0, 2 ** e))
    x = Fraction(p, 2 ** e)
    exact = sum(n * x ** j for j, n in enumerate(nums)) * x ** power
    s = dist_mod._fixed_horner([n << guard for n in nums], p, e, power)
    assert abs(s - exact * 2 ** guard) <= len(nums) + 1
    if guard >= e * (len(nums) - 1 + power):
        assert s == exact * 2 ** guard
    try:
        want = float(exact * Fraction(2) ** E / den)
    except OverflowError:
        return
    assert dist_mod._exact_value(shifted(nums), den, x, power,
                                 LeadingConstant(Fraction(2) ** E, 1.0)) == want


def test_exact_value_decides_a_rounding_the_truncation_crossed():
    # (1 - X)^4 q(X) at x near 7/8: the sum is near 2^-12 q(x), so a float
    # differs from its neighbours in about the units of s = 2^64 S, and x
    # near 1 hardly damps the floors, which leave s a few units low:
    # s often rounds to another float than 2^64 S, and s +- 1 often agree on it
    rng = np.random.default_rng(7)
    base = [(-1) ** j * math.comb(4, j) for j in range(5)]
    crossed = 0
    for _ in range(300):
        q = [int(v) for v in rng.integers(-8, 9, 8)]
        nums = [sum(base[i] * q[j - i] for i in range(5) if 0 <= j - i < 8) for j in range(12)]
        p, e = 7 * 2 ** 67 + int(rng.integers(0, 2 ** 60)), 70
        x = Fraction(p, 2 ** e)
        exact = sum(n * x ** j for j, n in enumerate(nums))
        s = dist_mod._fixed_horner(shifted(nums), p, e, 0)
        crossed += float(Fraction(s, 2 ** dist_mod._GUARD)) != float(exact)
        assert dist_mod._exact_value(shifted(nums), 1, x, 0, ONE) == float(exact)
    assert crossed > 100


def test_exact_value_needs_a_dyadic_point():
    with pytest.raises(ValueError, match="dyadic"):
        dist_mod._exact_value(shifted([1, 2]), 1, Fraction(1, 3), 0, ONE)


class NoCells(Mapping):
    """Stands in for `SeriesTable.coeffs`: any read of a cell fails."""

    def __getitem__(self, key):
        raise AssertionError("read a cell")

    def __iter__(self):
        raise AssertionError("walked the cells")

    def __len__(self):
        raise AssertionError("counted the cells")


def test_queries_read_the_collapse_not_the_cells():
    # every query is O(K + t_max) off the collapse made at construction, so a
    # fresh table whose cells can no longer be read still answers all of them
    ref = get_table(auto_converged_params(25, 2, 1, moments=4))
    xs = [0.05, 0.3, 0.6, 0.97]

    def answers(table):
        return (table.summary_stats(), [table.moment(h) for h in range(5)],
                table.collapsed(), [table.cdf(x) for x in xs], [table.pdf(x) for x in xs],
                table.cdf_many(xs).tolist())

    want = answers(ref)
    table = SeriesTable(ref.build, ref.K)
    table.coeffs = NoCells()
    assert answers(table) == want


# -- float evaluation under a derived bound -----------------------------------------

BOUND_TABLES = [
    DistParams(m=25, n=2, beta=2, K=80), DistParams(m=105, n=2, beta=1, K=100),
    DistParams(m=145, n=2, beta=1, K=200), DistParams(m=10, n=3, beta=1, K=100),
    DistParams(m=10, n=3, beta=2, K=20),
]


@pytest.mark.parametrize("params", BOUND_TABLES)
def test_accepted_floats_are_within_their_bound(params):
    table = quiet_table(params)
    rng = np.random.default_rng(5)
    # a seeded grid plus the edges of the centres' intervals
    xs = np.concatenate([rng.uniform(0, 1, 120), [2.0 ** -30, 1 / 16, 3 / 16, 0.5, 15 / 16, 1.0]])
    values, bounds = table._bounded_many(xs, False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert table.cdf_many(xs).tolist() == values.tolist()
        for x, v, b in zip(xs.tolist(), values.tolist(), bounds.tolist()):
            exact = table._eval_exact(Fraction(x), False)
            assert abs(v - exact) <= b if b else v == exact, x
            assert b <= 1e-9 * abs(v), x
            assert table._bounded(x, False) == (v, b), x  # bitwise, as cdf_many
            assert table.cdf(x) == v, x
            if 0 < x < 1:
                pv, pb = table._bounded(x, True)
                exact = table._eval_exact(Fraction(x), True)
                assert abs(pv - exact) <= pb if pb else pv == exact, x
                assert pb <= 1e-9 * abs(pv) and table.pdf(x) == pv, x


def test_pdf_far_tail_is_within_1e9_or_exact():
    # at (105,2,1,K=100) the pdf falls to about 1e-23 near x = 0.9, where no
    # centre keeps 1e-9 of it: those points take the exact path
    table = quiet_table(DistParams(m=105, n=2, beta=1, K=100))
    for x in np.linspace(0.5, 0.99, 50).tolist():
        value, bound = table._bounded(x, True)
        exact = table._eval_exact(Fraction(x), True)
        assert value == exact if not bound else abs(value - exact) <= 1e-9 * abs(exact), x


def test_bound_covers_an_underflowing_power():
    # 1e6 x^15 on x in [2^-71, 2^-68]: x^15 is mostly subnormal while the
    # value reaches normal range.  The product chain then errs by up to
    # 14 * 2^-1075, which the sum multiplies; the bound must carry that
    power, c = 15, 1e6
    gamma, floor = dist_mod._gamma(2 + power + 3), (1 + power) * dist_mod._ETA
    poly = dist_mod._Poly.of(power, [c])
    assert (poly.gamma, poly.floor) == (gamma, floor)
    rng = np.random.default_rng(3)
    xs = np.ldexp(rng.uniform(1, 2, 300), rng.integers(-71, -68, 300))
    values, bounds, ok = dist_mod._horner(poly, xs)
    assert 0 < ok.sum() < len(xs)
    subnormal = 0
    for x, v, b, accepted in zip(xs.tolist(), values.tolist(), bounds.tolist(), ok.tolist()):
        assert dist_mod._horner(poly, x) == (v, b, accepted)
        if accepted:
            assert abs(v - float(Fraction(c) * Fraction(x) ** power)) <= b, x
            subnormal += x < 2.0 ** (-1023 / power)
    assert subnormal
    # and so on a table, at rho = 8
    table = quiet_table(DistParams(m=10, n=3, beta=2, K=20))
    for k in range(125, 136):
        x = 2.0 ** -k * 1.7
        value, bound = table._bounded(x, False)
        exact = table._eval_exact(Fraction(x), False)
        assert abs(value - exact) <= bound if bound else value == exact, x


def test_no_centre_where_centre_zero_accepts():
    # a well conditioned table pays for no Taylor shift
    table = quiet_table(DistParams(m=10, n=3, beta=1, K=50))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        table.cdf_many(np.random.default_rng(2).uniform(0, 1, 2000))
        table.quantile(0.9)
    assert not table._shifts and not table._centres


def fresh_table(params):
    """A new table for params, whose envelope and centres no earlier call filled."""
    drop_table(params)
    return quiet_table(params)


def running_sum_bound(poly, x):
    """Centre 0's bound by Higham's running error sum alone, at a float x."""
    a = 0.0
    for size in poly.sizes:
        a = a * x + size
    xp = x
    for _ in range(poly.power - 1):
        xp *= x
    return a * (xp * poly.gamma + poly.power * dist_mod._ETA) + poly.floor


@pytest.mark.parametrize("params", BOUND_TABLES[:2])
def test_cdf_many_blocks_give_the_pointwise_pairs(params):
    # three blocks, the last of 17 points: every (value, bound) is bitwise
    # the one `_bounded` gives after the call
    table = fresh_table(params)
    rng = np.random.default_rng(19)
    xs = rng.uniform(0, 1, 2 * dist_mod._BLOCK + 17)
    xs[:dist_mod._GRID + 1] = np.arange(dist_mod._GRID + 1) / dist_mod._GRID
    rng.shuffle(xs)
    values, bounds = table._bounded_many(xs, False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert table.cdf_many(xs).tolist() == values.tolist()
    assert ([table._bounded(x, False) for x in xs.tolist()]
            == list(zip(values.tolist(), bounds.tolist())))


@pytest.mark.parametrize("params", BOUND_TABLES)
def test_envelope_grid_points_are_within_their_bound(params):
    # x = i/64 is its own cell; one ulp below it shares the cell, one above
    # takes the next one
    table = fresh_table(params)
    grid = np.arange(dist_mod._GRID + 1) / dist_mod._GRID
    xs = np.concatenate([grid, np.nextafter(grid[1:], 0), np.nextafter(grid[:-1], 1)])
    values, bounds = table._bounded_many(xs, False)
    for x, v, b in zip(xs.tolist(), values.tolist(), bounds.tolist()):
        exact = table._eval_exact(Fraction(x), False)
        assert abs(v - exact) <= b if b else v == exact, x
        assert table._bounded(x, False) == (v, b), x
        if 0 < x < 1:
            pv, pb = table._bounded(x, True)
            exact = table._eval_exact(Fraction(x), True)
            assert abs(pv - exact) <= pb if pb else pv == exact, x


@pytest.mark.parametrize("params", BOUND_TABLES)
def test_envelope_bound_is_never_below_the_running_sum_bound(params):
    # where the envelope passes the 1e-9 rule its bound is returned, and it is
    # at least the running-sum bound; elsewhere the running sum decides
    table = quiet_table(params)
    for derivative in (False, True):
        poly = table._polynomial(derivative)
        rng = np.random.default_rng(23)
        xs = np.concatenate([rng.uniform(0, 1, 400), 2.0 ** -rng.uniform(1, 40, 100)])
        values, bounds, ok = dist_mod._horner(poly, xs)
        by_envelope = 0
        for x, v, b, accepted in zip(xs.tolist(), values.tolist(), bounds.tolist(), ok.tolist()):
            running = running_sum_bound(poly, x)
            assert accepted == (running <= 1e-9 * abs(v)), x
            assert b >= running, x
            if b != running:
                by_envelope += 1
                assert accepted, x
            assert dist_mod._horner(poly, x) == (v, b, accepted), x
        assert by_envelope


@pytest.mark.parametrize("params", BOUND_TABLES[:2])
def test_envelope_makes_no_exact_fallback_of_its_own(monkeypatch, params):
    # with every envelope cell at infinity, centre 0 runs the running sum on
    # every point; the same calls then make as many exact fallbacks, and
    # give the same values
    def run():
        table = fresh_table(params)
        calls = []
        exact = table._eval_exact
        monkeypatch.setattr(table, "_eval_exact",
                            lambda x, derivative: calls.append(x) or exact(x, derivative))
        xs = np.random.default_rng(29).uniform(0, 1, 20_000)
        values = table._bounded_many(xs, False)[0].tolist()
        values += [table._bounded(x, derivative)[0]
                   for x in np.random.default_rng(31).uniform(0, 1, 1_000).tolist()
                   for derivative in (False, True)]
        return len(calls), values

    fallbacks, values = run()
    monkeypatch.setattr(dist_mod._Poly, "cell", lambda self, i: math.inf)
    monkeypatch.setattr(dist_mod._Poly, "filled",
                        lambda self, index: np.full(dist_mod._GRID + 1, math.inf))
    assert run() == (fallbacks, values)
    assert fallbacks  # the pdf's far tail, at least


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=12),
       r=st.integers(1, dist_mod._CENTRES))
def test_taylor_shift_matches_fraction_expansion(coeffs, r):
    # P(r/8 + y) = 8^-D sum_k T_k (8y)^k with T the shift by r of M_i = P_i 8^(D-i)
    D = len(coeffs) - 1
    scale = dist_mod._CENTRES
    shift = dist_mod._taylor_shift([c * scale ** (D - i) for i, c in enumerate(coeffs)], r)
    at = Fraction(r, scale)
    want = [Fraction(0)] * (D + 1)
    for i, c in enumerate(coeffs):  # c (at + y)^i, binomially
        for k in range(i + 1):
            want[k] += c * math.comb(i, k) * at ** (i - k)
    assert [Fraction(t, scale ** (D - k)) for k, t in enumerate(shift)] == want


@pytest.mark.parametrize("params", BOUND_TABLES[:3])
def test_cdf_matches_quadrature_within_bound_and_truncation(params):
    # the truncation at x is the exact difference from the table at 2K; the
    # quadrature itself reaches about 1e-14 (tests/quadrature_oracle.py)
    table = quiet_table(params)
    longer = quiet_table(DistParams(m=params.m, n=2, beta=params.beta, K=2 * params.K))
    for x in (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9):
        value, bound = table._bounded(x, False)
        truncation = abs(longer._eval_exact(Fraction(x), False) -
                         table._eval_exact(Fraction(x), False))
        want = quadrature_oracle.cdf(params.m, params.beta, x)
        assert abs(value - want) <= bound + truncation + 1e-14 * want, x
