"""The n = 2 series coefficients in closed form, from the law of x alone.

At n = 2 the density of x = 1 - l_2/l_1 is prop. to

    (1 - x)^p x^beta (2 - x)^(-beta m),    p = beta (m - 1)/2 - 1

(`quadrature_oracle` with r = 1 - x).  With (2 - x)^(-beta m) prop. to
sum_k (beta m)_k / k! (x/2)^k and (1 - x)^p = sum_t (-p)_t / t! x^t, term by
term integration from 0 gives the cdf as a constant times

    sum_{k,t} c[k,t] x^(beta + 1 + k + t),
    c[k,t] = (beta m)_k / (k! 2^k) * (-1)^t C(p, t) * (beta + 1)/(beta + 1 + k + t),

where (-1)^t C(p, t) = (-p)_t / t! for any real p and the factor beta + 1
makes c[0,0] = 1, the one common scale that the series' tables use too.
Nothing here touches a partition, a Jack polynomial, a Pieri move or the
build in `jackratio.dist`, which makes it an independent check of every cell
at n = 2.  For an integer p >= 0 the cells with t > p vanish; the square
real case m = n = 2 is p = -1/2, where every (-1)^t C(p, t) is positive.
"""

from fractions import Fraction
from typing import Dict, List, Tuple


def _rising_over_factorial(a: Fraction, count: int, base: int) -> List[Fraction]:
    """(a)_k / (k! base^k) for k = 0..count-1."""
    out = [Fraction(1)]
    for k in range(1, count):
        out.append(out[-1] * (a + k - 1) / (k * base))
    return out


def cells(m: int, beta: int, K: int, t_max: int) -> Dict[Tuple[int, int], Fraction]:
    """{(k, t): c[k,t]} for k <= K and t <= t_max, zeros left out."""
    p = Fraction(beta * (m - 1), 2) - 1
    s = _rising_over_factorial(Fraction(beta * m), K + 1, 2)
    a = _rising_over_factorial(-p, t_max + 1, 1)
    out = {}
    for k in range(K + 1):
        for t in range(t_max + 1):
            c = s[k] * a[t] * Fraction(beta + 1, beta + 1 + k + t)
            if c:
                out[(k, t)] = c
    return out


def collapse(cells: Dict[Tuple[int, int], Fraction], K: int, t_max: int) -> List[Fraction]:
    """sum_{k+t=j} c[k,t] for j = 0..K+t_max."""
    out = [Fraction(0)] * (K + t_max + 1)
    for (k, t), c in cells.items():
        out[k + t] += c
    return out
