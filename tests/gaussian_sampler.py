"""The sampler the long way: a full Gaussian matrix and its Gram matrix.

`gaussian_ratios` draws X of shape m x n with independent standard Gaussian
entries (real for beta = 1, circular complex for beta = 2) and takes the
extreme eigenvalues of the n x n Gram matrix X* X, which has the n nonzero
eigenvalues of W = X X*.  It shares no step with `jackratio.mc`, which draws
the bidiagonal model of the same spectrum, so the tests compare the two
laws with a two-sample Kolmogorov-Smirnov test (`two_sample_ks`).
"""

import math

import numpy as np

CHUNK = 8192


def gaussian_ratios(m: int, n: int, beta: int, count: int, seed: int) -> np.ndarray:
    """`count` samples of l_min/l_max of X* X for an m x n Gaussian X."""
    if beta not in (1, 2):
        raise ValueError("the Gaussian oracle draws beta = 1 and beta = 2 only")
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    for pos in range(0, count, CHUNK):
        size = (min(CHUNK, count - pos), m, n)
        if beta == 1:
            X = rng.standard_normal(size)
        else:
            X = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)
        gram = np.conj(np.transpose(X, (0, 2, 1))) @ X
        eigs = np.linalg.eigvalsh(gram)
        out[pos:pos + len(X)] = eigs[:, 0] / eigs[:, -1]
    return out


def two_sample_ks(a, b) -> float:
    """sup-norm distance between the empirical cdfs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    at = np.concatenate([a, b])
    fa = np.searchsorted(a, at, side="right") / a.size
    fb = np.searchsorted(b, at, side="right") / b.size
    return float(np.abs(fa - fb).max())
