import numpy as np
import pytest

from jackratio.mc import (McConfig, empirical_moments, empirical_quantile,
                          ks_distance, sample_extreme_ratio)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(m=3, n=3)
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, beta=4)  # no quaternion sampler
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, replications=0)
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, statistic="median")
    with pytest.raises(ValueError):
        McConfig(m=10, n=3, scale=0.0)
    for bad in (dict(m=10.0), dict(n=3.0), dict(replications=2.5), dict(replications=True),
                dict(beta=True), dict(beta=2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(**{"m": 10, "n": 3, **bad})


def test_determinism_and_prefix_property():
    a = sample_extreme_ratio(McConfig(m=6, n=3, replications=1000, seed=7))
    b = sample_extreme_ratio(McConfig(m=6, n=3, replications=1000, seed=7))
    c = sample_extreme_ratio(McConfig(m=6, n=3, replications=3000, seed=7))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c[:1000])
    d = sample_extreme_ratio(McConfig(m=6, n=3, replications=1000, seed=8))
    assert not np.array_equal(a, d)


def test_statistics_complement():
    kw = dict(m=6, n=3, replications=500, seed=11)
    r = sample_extreme_ratio(McConfig(statistic="ratio", **kw))
    x = sample_extreme_ratio(McConfig(statistic="one_minus_ratio", **kw))
    assert np.allclose(r + x, 1.0, atol=1e-15)
    assert np.all((r > 0) & (r <= 1))


def test_scale_invariance():
    base = sample_extreme_ratio(McConfig(m=8, n=3, replications=400, seed=3))
    scaled = sample_extreme_ratio(McConfig(m=8, n=3, replications=400, seed=3,
                                           scale=3.7))
    assert np.max(np.abs(base - scaled)) <= 1e-10


def test_gram_matches_full_spectrum():
    # nonzero eigenvalues of X X^T coincide with those of the n x n Gram X^T X
    rng = np.random.default_rng(42)
    for _ in range(5):
        X = rng.standard_normal((7, 3))
        big = np.linalg.eigvalsh(X @ X.T)
        small = np.linalg.eigvalsh(X.T @ X)
        assert np.allclose(big[-3:], small, rtol=1e-10)
        assert np.allclose(big[:4], 0, atol=1e-10)


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
