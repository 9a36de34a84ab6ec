"""Monte Carlo sampling of the extreme-eigenvalue ratio of singular Wishart matrices.

Draws X of shape m x n with independent standard Gaussian entries (real for
beta = 1, circular complex for beta = 2) and forms the n nonzero eigenvalues
of W = X X* from the n x n Gram matrix X* X, which has the same nonzero
spectrum and is much smaller.  The emitted statistic is l_min/l_max or
1 - l_min/l_max per configuration.

Reproducibility: replications are generated in fixed-size chunks, each from
its own child of numpy's SeedSequence tree.  The stream layout depends only
on the seed, so the first R' samples of a run with R > R' replications are
bit-for-bit identical to a run with R' replications and the same seed.
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
    scale: float = 1.0  # multiplies X; the ratio statistic must not care

    def __post_init__(self):
        for name in ("m", "n", "beta", "replications"):
            value = getattr(self, name)
            # bools are ints to Python, but True is no sample size
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.m > self.n >= 2):
            raise ValueError("need m > n >= 2")
        if self.beta not in (1, 2):
            raise ValueError("sampling supports beta = 1 (real) and beta = 2 (complex)")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.statistic not in ("ratio", "one_minus_ratio"):
            raise ValueError("statistic must be 'ratio' or 'one_minus_ratio'")
        if not (self.scale > 0):
            raise ValueError("scale must be positive")


def _draw(rng: np.random.Generator, count: int, cfg: McConfig) -> np.ndarray:
    if cfg.beta == 1:
        X = rng.standard_normal((count, cfg.m, cfg.n))
    else:
        X = (rng.standard_normal((count, cfg.m, cfg.n)) +
             1j * rng.standard_normal((count, cfg.m, cfg.n))) / math.sqrt(2)
    if cfg.scale != 1.0:
        X = X * cfg.scale
    return X


def _ratios(X: np.ndarray) -> np.ndarray:
    gram = np.conj(np.transpose(X, (0, 2, 1))) @ X
    eigs = np.linalg.eigvalsh(gram)
    return eigs[:, 0] / eigs[:, -1]


def sample_extreme_ratio(cfg: McConfig) -> np.ndarray:
    """R samples of the configured spectral statistic, deterministically seeded."""
    R = cfg.replications
    n_chunks = (R + CHUNK - 1) // CHUNK
    children = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    out = np.empty(R, dtype=float)
    failures = 0
    pos = 0
    for child in children:
        rng = np.random.default_rng(child)
        count = min(CHUNK, R - pos)
        X = _draw(rng, count, cfg)
        try:
            r = _ratios(X)
        except np.linalg.LinAlgError:
            # solve one by one so a single bad draw does not poison the chunk
            r = np.empty(count)
            for i in range(count):
                while True:
                    try:
                        r[i] = _ratios(X[i:i + 1])[0]
                        break
                    except np.linalg.LinAlgError:
                        failures += 1
                        X[i] = _draw(rng, 1, cfg)[0]
        out[pos:pos + count] = r
        pos += count
    if failures > 1e-4 * R:
        warnings.warn(f"{failures} replications resampled after eigensolver "
                      f"failures (more than 0.01% of {R})")
    if cfg.statistic == "one_minus_ratio":
        out = 1.0 - out
    return out


def empirical_quantile(samples: Sequence[float], alpha: float) -> float:
    """Nearest-rank order statistic: the ceil(alpha*N)-th smallest sample."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("no samples")
    idx = max(math.ceil(alpha * xs.size) - 1, 0)
    return float(xs[idx])


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
    """sup-norm distance between the sample's empirical cdf and a model cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    N = xs.size
    if N == 0:
        raise ValueError("no samples")
    fx = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, N + 1) / N
    lo = np.arange(0, N) / N
    return float(np.maximum(np.abs(hi - fx), np.abs(fx - lo)).max())
