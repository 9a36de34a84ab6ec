import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gaussian_sampler import gaussian_ratios, two_sample_ks
from jackratio import mc
from jackratio.dist import auto_converged_params, get_table
from jackratio.mc import (McConfig, empirical_moments, empirical_quantile,
                          ks_distance, sample_extreme_ratio)

# Kolmogorov distribution: P(sqrt(N) D > c) = 0.001 for c = sqrt(-ln(0.0005)/2)
KS_CRIT_0_001 = math.sqrt(-math.log(0.0005) / 2)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(m=3, n=3)
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, beta=3)
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, replications=0)
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, statistic="median")
    for bad in (dict(m=10.0), dict(n=3.0), dict(replications=2.5), dict(replications=True),
                dict(beta=True), dict(beta=2.0), dict(seed=1.5), dict(seed="3"),
                dict(seed=None), dict(seed=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(**{"m": 10, "n": 3, **bad})
    with pytest.raises(ValueError, match="nonnegative"):
        McConfig(m=10, n=3, seed=-1)


def test_determinism_and_prefix_property():
    # n = 2 and n = 3 take closed forms, n = 4 the eigensolver
    for n, beta in itertools.product((2, 3, 4), (1, 2, 4)):
        def run(reps, seed=7):
            return sample_extreme_ratio(McConfig(m=6, n=n, beta=beta,
                                                 replications=reps, seed=seed))
        a, b, c = run(1000), run(1000), run(3000)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c[:1000])
        assert not np.array_equal(a, run(1000, seed=8))
        # a partial second chunk against a longer one (CHUNK = 65536)
        assert np.array_equal(run(70_000), run(150_000)[:70_000])


def _eigvalsh_ratios(v):
    """l_min/l_max of the 2 x 2 T = B B^T by the dense solver, for rows (d0, d1, e0)."""
    d0, d1, e0 = v.T
    T = np.empty((len(v), 2, 2))
    T[:, 0, 0], T[:, 1, 1] = d0 + e0, d1
    T[:, 0, 1] = T[:, 1, 0] = np.sqrt(e0 * d1)
    eigs = np.linalg.eigvalsh(T)
    return eigs[:, 0] / eigs[:, 1]


def test_closed_form_matches_eigensolver_n2():
    # eigvalsh is backward stable: each eigenvalue is off by O(eps l_max),
    # so its ratio is off by O(eps) absolutely however small l_min is; the
    # closed form is a sum of nonnegative terms and is off by a few eps
    # relatively.  8 eps bounds their difference (measured: up to 3 eps).
    for m, beta in ((3, 1), (25, 1), (25, 2), (6, 4)):
        cfg = McConfig(m=m, n=2, beta=beta)
        v = np.random.default_rng(m * beta).chisquare(
            mc._degrees_of_freedom(cfg), size=(100_000, 3))
        diff = np.abs(mc._ratios(v, 2) - _eigvalsh_ratios(v))
        assert diff.max() <= 8 * np.finfo(float).eps, (m, beta, diff.max())


HAND_ROWS_N2 = np.array([
    [2.0, 5.0, 0.0],  # e0 = 0: T is diagonal
    [5.0, 2.0, 0.0],
    [3.0, 3.0, 0.0],  # and with d0 = d1 both eigenvalues are 3
    # neighbouring doubles with e0 = 0: the unclamped quotient is 1 + eps
    [19.312270052999637, 19.31227005299964, 0.0],
    [2.0, 5.0, 5e-324],  # subnormal e0
    [2.0, 1e-300, 3.0],  # tiny d1: l_min = det/l_max = 2e-300/5
])


def test_closed_form_hand_rows():
    rows = HAND_ROWS_N2
    r = mc._ratios(rows, 2)
    assert np.all((r >= 0) & (r <= 1))
    assert r[0] == r[1] == 0.4
    assert r[2] == 1.0
    assert r[3] == pytest.approx(rows[3, 0] / rows[3, 1], abs=np.finfo(float).eps)
    assert r[4] == 0.4
    # T = [[5, sqrt(3e-300)], [sqrt(3e-300), 1e-300]]: l_max = 5 to double
    # precision; eigvalsh would lose l_min = 4e-301 below its eps * 5 error
    assert r[5] == pytest.approx(4e-301 / 5, rel=1e-15)


def test_ratios_n2_match_the_plain_formula():
    # the closed form works in place on two arrays, with the plain formula's
    # operations in the same order, so its ratios are the same doubles; the
    # sampler hands it the columns of a transposed (3, R) array
    for m, beta in ((3, 1), (25, 2)):
        df = mc._degrees_of_freedom(McConfig(m=m, n=2, beta=beta))
        v = np.concatenate([HAND_ROWS_N2,
                            np.random.default_rng(m).chisquare(df, size=(100_000, 3))])
        d0, d1, e0 = v.T
        g = d0 + e0 - d1
        s = d0 + e0 + d1 + np.sqrt(g * g + 4.0 * e0 * d1)
        want = np.minimum(4.0 * d0 * d1 / (s * s), 1.0)
        for rows in (v, np.asfortranarray(v)):
            got = np.empty(len(v))
            mc._ratios_n2(rows, got)
            assert np.array_equal(got, want), (m, beta)


def _eigvalsh_ratios_n3(v):
    """l_min/l_max of the 3 x 3 T = B B^T by the dense solver, for rows (d0, d1, d2, e0, e1)."""
    d0, d1, d2, e0, e1 = v.T
    T = np.zeros((len(v), 3, 3))
    T[:, 0, 0], T[:, 1, 1], T[:, 2, 2] = d0 + e0, d1 + e1, d2
    T[:, 0, 1] = T[:, 1, 0] = np.sqrt(e0 * d1)
    T[:, 1, 2] = T[:, 2, 1] = np.sqrt(e1 * d2)
    eigs = np.linalg.eigvalsh(T)
    return eigs[:, 0] / eigs[:, 2]


def test_closed_form_matches_eigensolver_n3():
    # eigvalsh is backward stable: each eigenvalue is off by a few eps l_max,
    # so its ratio is off by a few eps absolutely.  The closed form's seeds
    # are good to a few eps relative unless two eigenvalues nearly meet, so
    # one Newton step leaves the rounding of the determinant recurrence,
    # which is exact for a T within a few eps l_max of the drawn one
    # (Demmel, Dhillon and Ren 1995); the Sturm counts send to eigvalsh a
    # row whose step went to another root or is not within 16 eps.  8 eps
    # bounds the difference (measured: up to 3 eps).  A row the counts do
    # not certify is eigvalsh's ratio, clamped to [0, 1].
    eps = np.finfo(float).eps
    for m, beta in itertools.product((4, 6, 10, 25), (1, 2, 4)):
        cfg = McConfig(m=m, n=3, beta=beta)
        v = np.random.default_rng(m * beta).chisquare(
            mc._degrees_of_freedom(cfg), size=(100_000, 5))
        r = mc._ratios(v, 3)
        want = _eigvalsh_ratios_n3(v)
        diff = np.abs(r - want)
        assert diff.max() <= 8 * eps, (m, beta, diff.max())
        todo = mc._closed_form(v, 3, np.empty(len(v)))
        assert np.array_equal(r[todo], np.clip(want[todo], 0.0, 1.0))
        assert np.all((r >= 0) & (r <= 1))


def test_closed_form_hand_rows_n3():
    x = 19.312270052999637
    x1 = np.nextafter(x, 30.0)
    rows = np.array([
        [2.0, 5.0, 3.0, 0.0, 0.0],  # e = 0: T is diagonal
        [5.0, 3.0, 2.0, 0.0, 0.0],
        [3.0, 3.0, 3.0, 1e-40, 1e-40],  # a triple eigenvalue to double precision
        [2.0, 5.0, 3.0, 5e-324, 5e-324],  # subnormal e
        # tiny d2: l_min = det T / (l_1 l_2) = 1e-299 / 15, and l_1 l_2 = 15 is
        # the determinant of the leading 2 x 2 block to double precision
        [2.0, 5.0, 1e-300, 3.0, 1.0],
        [x, x1, np.nextafter(x1, 30.0), 0.0, 0.0],  # neighbouring doubles
    ])
    todo = mc._closed_form(rows, 3, np.empty(len(rows))).tolist()
    r = mc._ratios(rows, 3)
    assert np.all((r >= 0) & (r <= 1))
    eps = np.finfo(float).eps
    assert r[0] == pytest.approx(0.4, abs=eps) and r[1] == pytest.approx(0.4, abs=eps)
    assert r[3] == pytest.approx(0.4, abs=eps)
    l1 = (11 + math.sqrt(61)) / 2  # the larger eigenvalue of [[5, sqrt 15], [sqrt 15, 6]]
    assert r[4] == pytest.approx(1e-299 / 15 / l1, rel=1e-14)
    assert r[5] == pytest.approx(1.0, abs=4 * eps)
    # the triple and the neighbouring doubles leave no room for the brackets
    assert 2 in todo and 5 in todo
    assert 0 not in todo and 4 not in todo
    assert np.array_equal(r[todo], np.clip(_eigvalsh_ratios_n3(rows[todo]), 0.0, 1.0))


def test_statistics_complement():
    kw = dict(m=6, n=3, replications=500, seed=11)
    r = sample_extreme_ratio(McConfig(statistic="ratio", **kw))
    x = sample_extreme_ratio(McConfig(statistic="one_minus_ratio", **kw))
    assert np.allclose(r + x, 1.0, atol=1e-15)
    assert np.all((r > 0) & (r <= 1))


def test_one_minus_ratio_is_formed_in_place():
    # the complement overwrites the ratios: the same values as 1.0 - ratio,
    # with no second array the size of the result at the peak
    kw = dict(m=25, n=2, replications=10 ** 6, seed=5)

    def sample(statistic):
        tracemalloc.start()
        try:
            out = sample_extreme_ratio(McConfig(statistic=statistic, **kw))
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ratio, ratio_peak = sample("ratio")
    x, x_peak = sample("one_minus_ratio")
    assert np.array_equal(x, 1.0 - ratio)
    assert x_peak - ratio_peak < ratio.nbytes / 4


def _flaky_eigvalsh(monkeypatch, fail_single):
    """eigvalsh that fails on every batch and on the fail_single-th one-sample call."""
    real = np.linalg.eigvalsh
    singles = [0]

    def flaky(a, *args, **kwargs):
        if len(a) > 1:
            raise np.linalg.LinAlgError("batch")
        singles[0] += 1
        if singles[0] == fail_single:
            raise np.linalg.LinAlgError("single")
        return real(a, *args, **kwargs)
    monkeypatch.setattr(mc.np.linalg, "eigvalsh", flaky)


def test_eigensolver_failures_resample_one_by_one(monkeypatch):
    # at n = 4 every draw goes to eigvalsh, in whole-chunk batches
    cfg = McConfig(m=6, n=4, beta=2, replications=300, seed=13)
    clean = sample_extreme_ratio(cfg)
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            _flaky_eigvalsh(patch, fail_single=5)
            with pytest.warns(UserWarning, match="1 replications resampled"):
                runs.append(sample_extreme_ratio(cfg))
    x = runs[0]
    assert x.shape == (300,)
    assert np.all((x >= 0) & (x <= 1))
    assert np.array_equal(runs[0], runs[1])
    # only the sample whose solve failed was drawn again
    assert np.flatnonzero(x != clean).tolist() == [4]


def _chunk_variates(cfg, chunk_seed, count):
    """The (count, 2n - 1) variates of one chunk, rebuilt from its seed.

    Variate j comes from the j-th child of the chunk's SeedSequence: the
    squares of standard normals for chi-square(1), `Generator.chisquare`
    draws for any other df.
    """
    df = mc._degrees_of_freedom(cfg)
    columns = []
    for k, seed in zip(df, chunk_seed.spawn(df.size)):
        rng = np.random.default_rng(seed)
        columns.append(rng.standard_normal(count) ** 2 if k == 1 else rng.chisquare(k, count))
    return np.column_stack(columns)


def test_eigensolver_failures_hit_only_the_n3_fallback_draws(monkeypatch):
    # at (4,3,1) about 1% of the draws are not certified and go to eigvalsh;
    # a failed batch is solved one by one, and only its fifth draw is redrawn
    cfg = McConfig(m=4, n=3, replications=2000, seed=13, statistic="ratio")
    clean, clean_counts = mc._sample(cfg)
    v = _chunk_variates(cfg, np.random.SeedSequence(cfg.seed).spawn(1)[0], 2000)
    todo = mc._closed_form(v, 3, np.empty(2000))
    assert todo.size >= 5
    assert clean_counts == {"eigvalsh": todo.size, "resampled": 0}
    with monkeypatch.context() as patch:
        _flaky_eigvalsh(patch, fail_single=5)
        with pytest.warns(UserWarning, match="1 replications resampled"):
            x, counts = mc._sample(cfg)
    assert counts == {"eigvalsh": todo.size, "resampled": 1}
    assert np.flatnonzero(x != clean).tolist() == [todo[4]]
    assert 0 <= x[todo[4]] <= 1


def test_chunk_seeds_are_the_spawned_children():
    # variate j of chunk i is drawn from the j-th child of the i-th child of
    # SeedSequence(seed), made when the chunk runs; (6,2,1) has df 6, 5 and 1
    cfg = McConfig(m=6, n=2, replications=2 * mc.CHUNK + 10, seed=21, statistic="ratio")
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    v = np.concatenate([_chunk_variates(cfg, c, k)
                        for c, k in zip(children, (mc.CHUNK, mc.CHUNK, 10))])
    assert np.array_equal(sample_extreme_ratio(cfg), mc._ratios(v, 2))


def test_chi_square_generator_laws():
    # each df's generator against Generator.chisquare from an unrelated seed:
    # the dfs of n = 2 and 3 at small and large m, and those of beta = 4 at (8,3)
    N = 50_000
    dfs = {1, 2, 3, 8, 25, 104, *mc._degrees_of_freedom(McConfig(m=8, n=3, beta=4))}
    for df in sorted(dfs):
        got = np.empty(N)
        mc._chi_square(np.random.default_rng(51), df, got)
        want = np.random.default_rng(52).chisquare(df, N)
        assert two_sample_ks(got, want) < KS_CRIT_0_001 * math.sqrt(2 / N), df
        # df = 1 squares standard normals; the others are chisquare's own draws
        rng = np.random.default_rng(51)
        again = rng.standard_normal(N) ** 2 if df == 1 else rng.chisquare(df, N)
        assert np.array_equal(got, again), df


def test_bidiagonal_matches_gaussian_sampler():
    N = 50_000
    for m, n, beta in ((6, 3, 1), (6, 3, 2), (25, 2, 2)):
        new = sample_extreme_ratio(McConfig(m=m, n=n, beta=beta, replications=N,
                                            seed=31, statistic="ratio"))
        old = gaussian_ratios(m, n, beta, N, seed=32)
        assert two_sample_ks(new, old) < KS_CRIT_0_001 * math.sqrt(2 / N), (m, n, beta)


def test_quaternion_samples_match_series():
    N = 50_000
    for m, n in ((6, 2), (10, 2), (8, 3)):
        table = get_table(auto_converged_params(m, n, 4))
        x = sample_extreme_ratio(McConfig(m=m, n=n, beta=4, replications=N, seed=41))
        assert ks_distance(x, table.cdf_many) < KS_CRIT_0_001 / math.sqrt(N), (m, n)


def test_complex_draws_have_unit_variance_entries():
    samples = sample_extreme_ratio(McConfig(m=5, n=2, beta=2,
                                            replications=100, seed=0))
    assert np.all((samples >= 0) & (samples < 1))


def test_nearest_rank_quantile():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert empirical_quantile(xs, 0.5) == 3.0
    assert empirical_quantile(xs, 0.2) == 1.0
    assert empirical_quantile(xs, 0.21) == 2.0
    assert empirical_quantile(xs, 1e-9) == 1.0
    assert empirical_quantile(xs, 0.999) == 5.0
    # the selected order statistic is the sorted sample's, ties included,
    # and the caller's array is left as it was
    ys = np.random.default_rng(3).standard_normal(1001).round(1)
    before = ys.copy()
    for alpha in (1e-6, 0.01, 0.05, 0.5, 0.9, 0.95, 0.999):
        assert empirical_quantile(ys, alpha) == np.sort(before)[math.ceil(alpha * 1001) - 1]
    assert np.array_equal(ys, before)
    with pytest.raises(ValueError):
        empirical_quantile(xs, 0.0)
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)


def test_quantile_against_uniform_law():
    rng = np.random.default_rng(123)
    xs = rng.uniform(size=100_000)
    assert empirical_quantile(xs, 0.95) == pytest.approx(0.95, abs=0.005)
    assert empirical_quantile(xs, 0.5) == pytest.approx(0.5, abs=0.005)


def test_empirical_moments_validation():
    with pytest.raises(ValueError):
        empirical_moments([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        empirical_moments([2.0, 2.0, 2.0, 2.0])


def test_empirical_moments_gaussian_oracle():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal(200_000)
    mom = empirical_moments(xs)
    assert mom["mean"] == pytest.approx(0.0, abs=0.02)
    assert mom["variance"] == pytest.approx(1.0, abs=0.02)
    assert mom["skewness"] == pytest.approx(0.0, abs=0.03)
    assert mom["kurtosis"] == pytest.approx(3.0, abs=0.06)  # non-excess


def test_ks_distance_hand_case():
    # two samples against the identity cdf: every corner gap equals 1/4
    assert ks_distance([0.25, 0.75], lambda x: np.asarray(x)) == pytest.approx(0.25)
    # one sample far in the tail
    assert ks_distance([0.9], lambda x: np.asarray(x)) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        ks_distance([], lambda x: np.asarray(x))


def test_ks_distance_in_place_matches_the_plain_formula():
    # the in-place distance is bitwise the plain one, and leaves the model's
    # values as the cdf returned them; the model and a lower one put the
    # largest gap below and above the empirical cdf
    table = get_table(auto_converged_params(25, 2, 2))
    x = sample_extreme_ratio(McConfig(m=25, n=2, beta=2, replications=150_000, seed=8))
    N = x.size
    hi, lo = np.arange(1, N + 1) / N, np.arange(0, N) / N
    for scale in (1.0, 0.9):
        seen = {}

        def cdf(xs):
            seen["v"] = table.cdf_many(xs) * scale
            seen["copy"] = seen["v"].copy()
            return seen["v"]

        got = ks_distance(x, cdf)
        fx = seen["copy"]
        assert got == float(np.maximum(np.abs(hi - fx), np.abs(fx - lo)).max())
        assert np.array_equal(seen["v"], fx)


def test_mc_matches_series_small_case():
    # independent check of the analytic machinery: moments of 1 - l_2/l_1
    # for a 5x2 real Gaussian matrix (exact mean is 2/3)
    samples = sample_extreme_ratio(McConfig(m=5, n=2, replications=300_000,
                                            seed=2024))
    mom = empirical_moments(samples)
    assert mom["mean"] == pytest.approx(2 / 3, abs=0.002)
    assert mom["variance"] == pytest.approx(0.041512, abs=0.001)
    assert mom["kurtosis"] == pytest.approx(2.8076, abs=0.05)


def test_mc_matches_series_complex_median():
    samples = sample_extreme_ratio(McConfig(m=10, n=3, beta=2,
                                            replications=200_000, seed=99))
    med = empirical_quantile(samples, 0.5)
    assert med == pytest.approx(0.7259, abs=0.005)


def test_ks_distance_self_consistency():
    rng = np.random.default_rng(17)
    xs = rng.uniform(size=20_000)
    d = ks_distance(xs, lambda x: np.asarray(x))
    assert d < 0.015  # far below any rejection threshold for N = 20000
