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
l_min is tiny; a dense solver is off by O(eps l_max) absolutely there.

For n = 3 the extreme eigenvalues come from the coefficients of det(T - lI),
which are sums of nonnegative terms in the five variates: l_max from the
trigonometric form of the cubic, l_min from the quadratic left after it,
each polished by one Newton step.  Sturm counts (the negative LDL^T pivots
of T - sigma I) certify that a bracket of 16 eps relative about each holds
the smallest or the largest eigenvalue and no other.  A draw they do not
certify, about one in 10^5 at m = 10 and more where l_min/l_max is below
about 1e-3 or two eigenvalues nearly meet, goes to batched
`numpy.linalg.eigvalsh`, as every draw does for n >= 4.

Reproducibility: replications are generated in fixed-size chunks of
CHUNK = 65536.  Variate j of chunk i (j = 0 .. 2n - 2, the d_i then the
e_i) has its own stream, `SeedSequence(seed, spawn_key=(i, j))`, and is
drawn by its cheapest exact generator: a squared standard normal for
chi-square(1), twice a standard gamma(df/2) otherwise.  A draw that the
eigensolver fails on is redrawn from the same streams.  The first R'
variates of a stream do not depend on how many are drawn, so the first R'
samples of a run with R > R' replications are bit-for-bit identical to a
run with R' replications and the same seed.  This layout replaced one
chi-square call per chunk over interleaved variates; `jackratio sim`
output for a given seed changed with it, once.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

CHUNK = 65536


class _McConfigFields(NamedTuple):
    m: int
    n: int
    beta: int = 1
    replications: int = 1
    seed: int = 0
    statistic: str = "one_minus_ratio"


class McConfig(_McConfigFields):
    """An immutable tuple of its fields, checked in `__new__`, which
    unpickling and `_replace` go through too."""
    __slots__ = ()

    def __new__(cls, m: int, n: int, beta: int = 1, replications: int = 1,
                seed: int = 0, statistic: str = "one_minus_ratio") -> McConfig:
        ints = []
        for name, value in (("m", m), ("n", n), ("beta", beta),
                            ("replications", replications), ("seed", seed)):
            # bools are ints to Python, but True is no sample size; a seed of
            # None would draw OS entropy and make the run unrepeatable
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            ints.append(operator.index(value))
        m, n, beta, replications, seed = ints
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        if not (m > n >= 2):
            raise ValueError("need m > n >= 2")
        if beta not in (1, 2, 4):
            raise ValueError("sampling supports beta = 1 (real), 2 (complex) "
                             "and 4 (quaternion)")
        if replications < 1:
            raise ValueError("need at least one replication")
        if statistic not in ("ratio", "one_minus_ratio"):
            raise ValueError("statistic must be 'ratio' or 'one_minus_ratio'")
        return super().__new__(cls, m, n, beta, replications, seed, statistic)

    @classmethod
    def _make(cls, iterable) -> McConfig:
        return cls(*iterable)


def _degrees_of_freedom(cfg: McConfig) -> np.ndarray:
    """beta(m - i) for the squared diagonal, then beta(n - 1 - i) for the superdiagonal."""
    i = np.arange(cfg.n)
    return cfg.beta * np.concatenate([cfg.m - i, cfg.n - 1 - i[:-1]]).astype(float)


# Relative half-width of the Sturm-count brackets that certify the n = 3
# closed form: 16 eps leaves no fallback in 300 000 draws at (25,3,1) and
# 0.0003% at (10,3,1); 4 eps would send 0.07% there to eigvalsh.
_DELTA = 16 * np.finfo(float).eps


def _ratios_n2(v: np.ndarray, out: np.ndarray) -> None:
    """l_min/l_max = 4 d0 d1 / s^2 into out, on two work arrays.

    s = 2 l_max = (d0 + e0) + d1 + sqrt(g^2 + 4 e0 d1) with g = (d0 + e0) - d1,
    and l_min = det T / l_max with det T = d0 d1.
    """
    d0, d1, e0 = v[:, 0], v[:, 1], v[:, 2]
    g = d0 + e0
    s = g + d1
    g -= d1
    g *= g
    np.multiply(4.0, e0, out=out)
    out *= d1
    g += out
    np.sqrt(g, out=g)
    s += g  # s = 2 l_max
    s *= s
    np.multiply(4.0, d0, out=out)
    out *= d1
    out /= s
    # rounding can leave r an ulp above 1 where d0 ~ d1 and e0 ~ 0
    np.minimum(out, 1.0, out=out)


def _newton_step(lam, a0, a1, a2, b0, b1) -> None:
    """One Newton step on det(T - lam I), in place on lam.

    P_1 = a_0 - lam, P_2 = (a_1 - lam) P_1 - b_0 and
    P_3 = (a_2 - lam) P_2 - b_1 P_1 are the leading minors of T - lam I,
    and P_3' = (a_2 - lam) P_2' - P_2 + b_1 with P_2' = -(P_1 + a_1 - lam).
    """
    u0 = a0 - lam
    u1 = a1 - lam
    P = u0 * u1
    P -= b0
    dP = u0 + u1
    np.negative(dP, out=dP)
    np.subtract(a2, lam, out=u1)
    dP *= u1
    dP -= P
    dP += b1
    P *= u1
    np.multiply(b1, u0, out=u0)
    P -= u0
    P /= dP
    lam -= P


def _sturm_count(sigma, a0, a1, a2, b0, b1) -> np.ndarray:
    """Negative LDL^T pivots of T - sigma I, or -1 where a pivot is nan.

    A zero pivot q divides to an infinite next pivot of the sign a tiny
    positive q would give; only b_i = 0 beside q = 0 gives 0/0, and that
    row is not counted.  In floating point the count is exact for a T' within a few
    eps * ||T|| of T (Demmel, Dhillon and Ren 1995).
    """
    q0 = a0 - sigma
    q1 = a1 - sigma
    t = b0 / q0
    q1 -= t
    np.divide(b1, q1, out=t)
    q2 = a2 - sigma
    q2 -= t
    count = (q0 < 0).view(np.int8) + (q1 < 0).view(np.int8)
    count += (q2 < 0).view(np.int8)
    count[q2 != q2] = -1
    return count


def _ratios_n3(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """l_min/l_max into out where certified; the indices of the other rows.

    T has diagonal a = (d0 + e0, d1 + e1, d2) and squared off-diagonal
    b = (e0 d1, e1 d2).  l_max comes from the trigonometric form of its
    cubic, with p = tr((T - mI)^2)/6 a sum of squares about the mean m.
    The other two roots have product c0/l_max and sum (c1 - c0/l_max)/l_max,
    where c1 = d0(d1 + e1 + d2) + e0(e1 + d2) + d1 d2 and c0 = d0 d1 d2 are
    sums of nonnegative terms (Cauchy-Binet), and l_min is the smaller root
    of that quadratic without cancellation.  One Newton step polishes each.
    A row is certified when T - sigma I has exactly 0, 1, 2 and 3 negative
    pivots at sigma = l_min (1 -/+ delta) and l_max (1 -/+ delta): then each
    bracket holds its eigenvalue and no other.
    """
    d0, d1, d2, e0, e1 = v.T
    a0 = d0 + e0
    a1 = d1 + e1
    b0 = e0 * d1
    b1 = e1 * d2
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        m = a0 + a1
        m += d2
        m /= 3
        x0, x1, x2 = a0 - m, a1 - m, d2 - m
        p = x0 * x0
        p += x1 * x1
        p += x2 * x2
        t = b0 + b1
        t *= 2
        p += t
        p /= 6
        root_p = np.sqrt(p, out=p)
        c = x0 * x1  # det(T - mI) = 2 p^(3/2) cos(3 phi)
        c *= x2
        np.multiply(x0, b1, out=t)
        c -= t
        np.multiply(x2, b0, out=t)
        c -= t
        del x0, x1, x2
        np.multiply(root_p, root_p, out=t)
        t *= root_p
        t *= 2
        c /= t
        np.clip(c, -1.0, 1.0, out=c)
        np.arccos(c, out=c)
        c /= 3
        np.cos(c, out=c)  # l_max = m + 2 sqrt(p) cos(phi)
        c *= root_p
        c *= 2
        lmax = m
        lmax += c
        del c, p, root_p
        _newton_step(lmax, a0, a1, d2, b0, b1)

        s = d1 + e1  # s = c1 - c0/l_max, then / l_max
        s += d2
        s *= d0
        np.add(e1, d2, out=t)
        t *= e0
        s += t
        np.multiply(d1, d2, out=t)
        s += t
        prod = d0 * d1  # c0/l_max, the product of the two smaller roots
        prod *= d2
        prod /= lmax
        s -= prod
        s /= lmax
        np.multiply(s, s, out=t)  # l_min = 2 prod / (s + sqrt(s^2 - 4 prod))
        prod *= 2
        t -= prod
        t -= prod
        np.maximum(t, 0.0, out=t)
        np.sqrt(t, out=t)
        t += s
        lmin = np.divide(prod, t, out=prod)
        del s, t
        _newton_step(lmin, a0, a1, d2, b0, b1)

        certified = np.ones(len(v), dtype=bool)
        want = 0
        for lam in (lmin, lmax):
            for factor in (1.0 - _DELTA, 1.0 + _DELTA):
                certified &= _sturm_count(lam * factor, a0, a1, d2, b0, b1) == want
                want += 1
    np.divide(lmin, lmax, out=out)
    return np.flatnonzero(~certified)


def _closed_form(v: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Write the closed-form ratios into out; return the rows left to eigvalsh."""
    if n == 2:
        _ratios_n2(v, out)
        return np.empty(0, dtype=np.intp)
    if n == 3:
        return _ratios_n3(v, out)
    return np.arange(len(v))


def _eigvalsh_ratios(v: np.ndarray, n: int) -> np.ndarray:
    """l_min/l_max of B B^T by batched `eigvalsh`, clamped to [0, 1]."""
    d, e = v[:, :n], v[:, n:]
    T = np.zeros((len(v), n * n))  # row-major: T_ij sits in column i*n + j
    T[:, ::n + 1] = d
    T[:, :-1:n + 1] += e
    # the subdiagonal T_{i+1,i}; eigvalsh reads the lower triangle only
    T[:, n::n + 1] = np.sqrt(e * d[:, 1:])
    eigs = np.linalg.eigvalsh(T.reshape(-1, n, n))
    # eigvalsh is off by O(eps l_max), which can leave a tiny l_min negative
    return np.clip(eigs[:, 0] / eigs[:, -1], 0.0, 1.0)


def _ratios(v: np.ndarray, n: int) -> np.ndarray:
    """l_min/l_max of B B^T for each row (d_0..d_{n-1}, e_0..e_{n-2}) of v."""
    r = np.empty(len(v))
    todo = _closed_form(v, n, r)
    if todo.size:
        r[todo] = _eigvalsh_ratios(v[todo], n)
    return r


def _chi_square(rng: np.random.Generator, df: float, out: np.ndarray) -> None:
    """Fill the contiguous out with chi-square(df) variates from rng.

    chi-square(1) is a squared standard normal; any other df is twice a
    gamma(df/2), which numpy draws by Marsaglia and Tsang's method for
    df >= 2.  `Generator.chisquare` would send df = 1 through its
    rejection sampler for gamma shapes below 1, at about three times the
    cost of the normal draw.
    """
    if df == 1:
        rng.standard_normal(out=out)
        np.square(out, out=out)
    else:
        rng.standard_gamma(df / 2, out=out)
        out *= 2


def _sample(cfg: McConfig) -> Tuple[np.ndarray, Dict[str, int]]:
    """The samples of `sample_extreme_ratio` and what they cost the sampler.

    The counts are `eigvalsh`, the draws the closed form left to the dense
    solver, and `resampled`, the draws replaced after it failed on them.
    """
    R = cfg.replications
    df = _degrees_of_freedom(cfg)
    out = np.empty(R, dtype=float)  # before any per-chunk work: a huge R fails here
    # one row per variate, so that each variate of a chunk is contiguous
    work = np.empty((df.size, min(CHUNK, R)))
    counts = {"eigvalsh": 0, "resampled": 0}
    for i, pos in enumerate(range(0, R, CHUNK)):
        count = min(CHUNK, R - pos)
        # variate j of chunk i comes from its own stream, made when the chunk runs
        rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i, j)))
                for j in range(df.size)]
        w = work[:, :count]
        for rng, k, row in zip(rngs, df, w):
            _chi_square(rng, k, row)
        v = w.T
        r = out[pos:pos + count]
        todo = _closed_form(v, cfg.n, r)
        counts["eigvalsh"] += todo.size
        if not todo.size:
            continue
        try:
            r[todo] = _eigvalsh_ratios(v[todo], cfg.n)
        except np.linalg.LinAlgError:
            # solve one by one so a single bad draw does not poison the chunk
            for j in todo:
                while True:
                    try:
                        r[j] = _ratios(v[j:j + 1], cfg.n)[0]
                        break
                    except np.linalg.LinAlgError:
                        counts["resampled"] += 1
                        for rng, k, row in zip(rngs, df, w):
                            _chi_square(rng, k, row[j:j + 1])
    if counts["resampled"] > 1e-4 * R:
        warnings.warn(f"{counts['resampled']} replications resampled after eigensolver "
                      f"failures (more than 0.01% of {R})")
    if cfg.statistic == "one_minus_ratio":
        np.subtract(1.0, out, out=out)
    return out, counts


def sample_extreme_ratio(cfg: McConfig) -> np.ndarray:
    """R samples of the configured spectral statistic, deterministically seeded."""
    return _sample(cfg)[0]


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
    c2 = c * c
    var = float(np.mean(c2))
    if var == 0:
        raise ValueError("degenerate sample: variance is zero")
    c *= c2  # c**3 and c**4 in place: `**` goes through the far slower pow
    c2 *= c2
    return {
        "mean": mean,
        "variance": var,
        "skewness": float(np.mean(c)) / var ** 1.5,
        "kurtosis": float(np.mean(c2)) / var ** 2,
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
