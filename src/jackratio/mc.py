"""Monte Carlo sampling of the extreme-eigenvalue ratio of singular Wishart matrices.

The n nonzero eigenvalues of W = X X*, for an m x n Gaussian matrix X with
real (beta = 1), complex (beta = 2) or quaternion (beta = 4) entries, have
the law of the eigenvalues of B B^T, where B is an n x n upper bidiagonal
matrix with independent entries: chi_{beta(m-i)} on the diagonal and
chi_{beta(n-1-i)} on the superdiagonal, i = 0, 1, ...  (Dumitriu and
Edelman, J. Math. Phys. 43, 2002; it is what Householder bidiagonalization
of X leaves).  So each sample costs 2n - 1 chi-square variates, d_i for the
squared diagonal and e_i for the squared superdiagonal, and the symmetric
tridiagonal T = B B^T has T_ii = d_i + e_i (e_{n-1} = 0) and
T_{i+1,i} = sqrt(e_i d_{i+1}).  The variates fix no one normalization of the
entries of X; the emitted statistic, l_min/l_max or 1 - l_min/l_max, is
scale-free.

For n = 2 the ratio has a closed form and T is never built.  With
g = d_0 + e_0 - d_1, 2 l_max = s = d_0 + e_0 + d_1 + sqrt(g^2 + 4 e_0 d_1),
and det T = det(B)^2 = d_0 d_1 gives l_min = det T / l_max, so
l_min/l_max = 4 d_0 d_1 / s^2.  Every sum in it has nonnegative terms, so
nothing cancels and the ratio is accurate to a few ulps relative even where
l_min is tiny; a dense solver is off by O(eps l_max) absolutely there.  For
n >= 3 the extreme eigenvalues come from batched `numpy.linalg.eigvalsh`.

Reproducibility: replications are generated in fixed-size chunks, each from
its own child of numpy's SeedSequence tree, with one chi-square call per
chunk that draws each sample's 2n - 1 variates consecutively.  The stream
layout depends only on the seed, so the first R' samples of a run with
R > R' replications are bit-for-bit identical to a run with R' replications
and the same seed.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

CHUNK = 65536


@dataclass(frozen=True)
class McConfig:
    m: int
    n: int
    beta: int = 1
    replications: int = 1
    seed: int = 0
    statistic: str = "one_minus_ratio"

    def __post_init__(self):
        for name in ("m", "n", "beta", "replications", "seed"):
            value = getattr(self, name)
            # bools are ints to Python, but True is no sample size; a seed of
            # None would draw OS entropy and make the run unrepeatable
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (self.m > self.n >= 2):
            raise ValueError("need m > n >= 2")
        if self.beta not in (1, 2, 4):
            raise ValueError("sampling supports beta = 1 (real), 2 (complex) "
                             "and 4 (quaternion)")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.statistic not in ("ratio", "one_minus_ratio"):
            raise ValueError("statistic must be 'ratio' or 'one_minus_ratio'")


def _degrees_of_freedom(cfg: McConfig) -> np.ndarray:
    """beta(m - i) for the squared diagonal, then beta(n - 1 - i) for the superdiagonal."""
    i = np.arange(cfg.n)
    return cfg.beta * np.concatenate([cfg.m - i, cfg.n - 1 - i[:-1]]).astype(float)


def _ratios(v: np.ndarray, n: int) -> np.ndarray:
    """l_min/l_max of B B^T for each row (d_0..d_{n-1}, e_0..e_{n-2}) of v."""
    if n == 2:
        d0, d1, e0 = v[:, 0], v[:, 1], v[:, 2]
        g = d0 + e0 - d1
        s = d0 + e0 + d1 + np.sqrt(g * g + 4.0 * e0 * d1)  # s = 2 l_max
        r = 4.0 * d0 * d1 / (s * s)  # l_min = det T / l_max, det T = d0 d1
        # rounding can leave r an ulp above 1 where d0 ~ d1 and e0 ~ 0
        return np.minimum(r, 1.0, out=r)
    d, e = v[:, :n], v[:, n:]
    T = np.zeros((len(v), n * n))  # row-major: T_ij sits in column i*n + j
    T[:, ::n + 1] = d
    T[:, :-1:n + 1] += e
    # the subdiagonal T_{i+1,i}; eigvalsh reads the lower triangle only
    T[:, n::n + 1] = np.sqrt(e * d[:, 1:])
    eigs = np.linalg.eigvalsh(T.reshape(-1, n, n))
    return eigs[:, 0] / eigs[:, -1]


def sample_extreme_ratio(cfg: McConfig) -> np.ndarray:
    """R samples of the configured spectral statistic, deterministically seeded."""
    R = cfg.replications
    df = _degrees_of_freedom(cfg)
    n_chunks = (R + CHUNK - 1) // CHUNK
    children = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    out = np.empty(R, dtype=float)
    failures = 0
    pos = 0
    for child in children:
        rng = np.random.default_rng(child)
        count = min(CHUNK, R - pos)
        v = rng.chisquare(df, size=(count, df.size))
        try:
            r = _ratios(v, cfg.n)
        except np.linalg.LinAlgError:
            # solve one by one so a single bad draw does not poison the chunk
            r = np.empty(count)
            for i in range(count):
                while True:
                    try:
                        r[i] = _ratios(v[i:i + 1], cfg.n)[0]
                        break
                    except np.linalg.LinAlgError:
                        failures += 1
                        v[i] = rng.chisquare(df)
        out[pos:pos + count] = r
        pos += count
    if failures > 1e-4 * R:
        warnings.warn(f"{failures} replications resampled after eigensolver "
                      f"failures (more than 0.01% of {R})")
    if cfg.statistic == "one_minus_ratio":
        np.subtract(1.0, out, out=out)
    return out


def empirical_quantile(samples: Sequence[float], alpha: float) -> float:
    """Nearest-rank order statistic: the ceil(alpha*N)-th smallest sample."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("no samples")
    idx = max(math.ceil(alpha * xs.size) - 1, 0)
    return float(np.partition(xs, idx)[idx])


def empirical_moments(samples: Sequence[float]) -> Dict[str, float]:
    """Sample mean, variance, skewness and non-excess kurtosis."""
    xs = np.asarray(samples, dtype=float)
    if xs.size < 4:
        raise ValueError("need at least four samples")
    mean = float(xs.mean())
    c = xs - mean
    var = float(np.mean(c * c))
    if var == 0:
        raise ValueError("degenerate sample: variance is zero")
    return {
        "mean": mean,
        "variance": var,
        "skewness": float(np.mean(c ** 3)) / var ** 1.5,
        "kurtosis": float(np.mean(c ** 4)) / var ** 2,
    }


def ks_distance(samples: Sequence[float], cdf) -> float:
    """sup-norm distance between the sample's empirical cdf and a model cdf.

    With the sample sorted and F its model cdf, that is the largest of
    |(i + 1)/N - F_i| and |F_i - i/N|.  Two arrays the size of the sample
    are formed, the grid i/N and one difference, which is updated in place;
    the model's values are not written to.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    N = xs.size
    if N == 0:
        raise ValueError("no samples")
    fx = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(N + 1, dtype=float)
    grid /= N
    gap = np.subtract(grid[1:], fx)
    np.abs(gap, out=gap)
    above = gap.max()
    np.subtract(fx, grid[:-1], out=gap)
    np.abs(gap, out=gap)
    return float(np.maximum(above, gap.max()))  # np.maximum keeps a nan, as before
