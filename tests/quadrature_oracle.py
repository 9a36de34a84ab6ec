"""The n = 2 law of x = 1 - l_min/l_max by Gauss-Legendre quadrature.

The two nonzero eigenvalues of a singular beta-Wishart matrix with m degrees
of freedom have the joint density prop. to (l_1 l_2)^a |l_1 - l_2|^beta
exp(-(l_1 + l_2)/2), with a = beta(m - 1)/2 - 1 (Muirhead 1982, section 3.2,
for beta = 1; Dumitriu and Edelman 2002 for any beta).  Putting l_2 = r l_1
and integrating l_1 out leaves the density of r = 1 - x on [0, 1]:

    f(r) prop. to r^a (1 - r)^beta (1 + r)^(-beta m).

With r = w^2 the integrand becomes w^(beta(m-1) - 1) (1 - w^2)^beta
(1 + w^2)^(-beta m), smooth on [0, 1] for half-integer a as well, so
composite Gauss-Legendre converges fast.  Nothing here shares a step with the
series in `jackratio.dist`, which makes it an independent check of it.
"""

from typing import Dict

import numpy as np
from numpy.polynomial.legendre import leggauss

PANELS = 16
NODES = 40  # per panel


def _nodes(lo: float, m: int, beta: int):
    """Composite Gauss-Legendre nodes w on [lo, 1], their weights, and the
    log of the integrand there (up to a constant)."""
    t, wt = leggauss(NODES)
    edges = np.linspace(lo, 1.0, PANELS + 1)
    half = np.diff(edges)[:, None] / 2
    mid = (edges[:-1] + edges[1:])[:, None] / 2
    w = (mid + half * t).ravel()
    r = w * w
    log_f = (beta * (m - 1) - 1) * np.log(w) + beta * np.log1p(-r) - beta * m * np.log1p(r)
    return w, (half * wt).ravel(), log_f


def cdf(m: int, beta: int, x: float) -> float:
    """P(X <= x) = P(r >= 1 - x), for 0 <= x <= 1."""
    if x <= 0:
        return 0.0
    _, wt, log_f = _nodes(0.0, m, beta)
    _, wt_x, log_f_x = _nodes(np.sqrt(1.0 - x), m, beta)
    shift = log_f.max()  # one scale for both integrals keeps exp in range
    return float(wt_x @ np.exp(log_f_x - shift) / (wt @ np.exp(log_f - shift)))


def summary_stats(m: int, beta: int) -> Dict[str, float]:
    """Mean, variance, skewness and non-excess kurtosis of x."""
    w, wt, log_f = _nodes(0.0, m, beta)
    p = wt * np.exp(log_f - log_f.max())
    p /= p.sum()
    x = 1.0 - w * w
    mean = float(p @ x)
    c = x - mean
    var = float(p @ c ** 2)
    return {
        "mean": mean,
        "variance": var,
        "skewness": float(p @ c ** 3) / var ** 1.5,
        "kurtosis": float(p @ c ** 4) / var ** 2,
    }
