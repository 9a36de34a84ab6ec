"""Exact gamma values, Pochhammer symbols and the Jack closed forms.

For beta in {1, 2, 4} every gamma argument of the series' leading constant
is a positive integer or half-integer, so Gamma and the multivariate gamma
are kept exact here, as a rational times a power of sqrt(pi).  The
generalized Pochhammer symbols are exact rationals.

The two closed forms the series needs from Jack polynomial theory live here
too: the value of C_kappa at the identity and the Pieri coefficients of
(x_1 + ... + x_m) C_lambda.  Neither needs an expansion of C_kappa.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .partitions import (Partition, lower_hook_product, normalize,
                         upper_hook_product)


# ---------------------------------------------------------------------------
# gamma-type functions
# ---------------------------------------------------------------------------

def gamma_exact(z) -> Tuple[Fraction, int]:
    """Gamma(z) at a positive integer or half-integer z as (q, h), exactly:
    Gamma(z) = q pi^(h/2), with Gamma(k) = (k-1)! and
    Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi).

    ValueError at the poles z = 0, -1, -2, ... and at every other z.
    """
    z = Fraction(z)
    if z <= 0 and z.denominator == 1:
        raise ValueError(f"gamma pole at {z}")
    if z <= 0 or z.denominator > 2:
        raise ValueError(f"exact gamma needs a positive integer or half-integer, got {z}")
    if z.denominator == 1:
        return Fraction(math.factorial(z.numerator - 1)), 0
    k = z.numerator // 2  # z = k + 1/2
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k)), 1


def multivariate_gamma(beta, m: int, c) -> Tuple[Fraction, int]:
    """The m-variate gamma function at parameter beta, exactly,

        pi^(m(m-1)beta/4) * prod_{i=1..m} Gamma(c - (i-1)beta/2)  =  q pi^(h/2),

    as (q, h).  Each shifted argument must avoid the poles of Gamma and be a
    positive integer or half-integer (see `gamma_exact`).
    """
    half = Fraction(beta) / 2
    c = Fraction(c)
    if m < 1:
        raise ValueError("m must be >= 1")
    q, h = Fraction(1), 0
    for i in range(m):
        arg = c - i * half
        if arg <= 0 and arg.denominator == 1:
            raise ValueError(f"multivariate gamma pole: argument {arg} at row {i + 1}")
        gq, gh = gamma_exact(arg)
        q *= gq
        h += gh
    # every argument is in Z/2, so for m >= 2 beta is an integer and so is
    # m(m-1) beta/2
    return q, h + int(m * (m - 1) * half)


def gen_pochhammer_exact(a, kappa: Partition, beta) -> Fraction:
    """Generalized Pochhammer symbol with rational arguments, exactly:

        prod_{i} rising(a - (i-1)beta/2, kappa_i)

    The factors share the denominator d of a and beta/2, so the product is
    formed over their integer numerators and divided by d^|kappa| once.
    Returns Fraction(0) the moment any factor vanishes.
    """
    a = Fraction(a)
    half = Fraction(beta) / 2
    kappa = normalize(kappa)
    d = a.denominator * half.denominator
    a_num = a.numerator * half.denominator
    step = half.numerator * a.denominator
    out = 1
    for i, part in enumerate(kappa):
        base = a_num - i * step
        for j in range(part):
            f = base + j * d
            if f == 0:
                return Fraction(0)
            out *= f
    return Fraction(out, d ** sum(kappa))


def pi_exponent(beta, n: int) -> Fraction:
    """Exponent of pi in the main normalizing constant, by case on beta."""
    beta = Fraction(beta)
    if beta not in (Fraction(1), Fraction(2), Fraction(4)):
        raise ValueError("pi exponents are tabulated for beta in {1, 2, 4}")
    return Fraction(n) * beta / 2 if beta == 1 else Fraction(n - 1) * beta / 2


# ---------------------------------------------------------------------------
# closed forms for Jack polynomials C_kappa (normalized to sum to p_1^k)
# ---------------------------------------------------------------------------

def _alpha(beta) -> Fraction:
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    return 2 / beta


def jack_at_identity(kappa: Partition, beta, m: int) -> Fraction:
    """Exact value of C_kappa at (1, 1, ..., 1) in m variables.

    With alpha = 2/beta and k = |kappa| (Koev-Edelman 2006):

        alpha^(2k) k! [m beta/2]_kappa / (h^*_kappa h_*^kappa)
    """
    kappa = normalize(kappa)
    alpha = _alpha(beta)
    if len(kappa) > m:
        raise ValueError(f"C_{kappa} vanishes in {m} variables")
    k = sum(kappa)
    poch = gen_pochhammer_exact(Fraction(m) * beta / 2, kappa, beta)
    hooks = upper_hook_product(kappa, alpha) * lower_hook_product(kappa, alpha)
    return alpha ** (2 * k) * math.factorial(k) * poch / hooks


def pieri_ratios(lam: Partition, a: int, b: int, m: int) -> List[Tuple[Partition, int, int]]:
    """(mu, num, den) with pieri(lam -> mu) = num/den > 0, not reduced, for
    each mu in at most m rows, given a partition lam in at most m rows and
    alpha = a/b in lowest terms.

    mu is lam plus one box (i, j).  The coefficient is h^*_mu / (alpha
    (|lam|+1) h^*_lam) times prod_{r<i} b_mu(r,j)/b_lam(r,j), b(s) = (alpha
    a + l + 1)/(alpha (a+1) + l) in the arm a and leg l of s (Stanley
    1989).  Only the hooks in row i and column j change, and over column j
    the hook ratio cancels against the b's, leaving

        1/(|lam|+1) * prod_{c<j} (l + alpha(a+2)) / (l + alpha(a+1))
                    * prod_{r<i} (alpha a + i-r+1) / (alpha a + i-r)

    with the arms and legs taken in lam, over integers after scaling by
    alpha's denominator.  Along row i the leg is constant, L, on the cells
    lam_{i+L+1} < c <= lam_{i+L}, and there the product over c telescopes
    to (L + alpha(j - lam_{i+L+1})) / (L + alpha(j - lam_{i+L})).
    """
    size = sum(lam) + 1
    out = []
    for i in range(1, min(len(lam) + 1, m) + 1):
        row = lam[i - 1] if i <= len(lam) else 0
        if i > 1 and lam[i - 2] == row:
            continue  # no addable box in this row
        j = row + 1
        num, den = 1, size
        hi = row
        for leg in range(len(lam) - i + 1):
            lo = lam[i + leg] if i + leg < len(lam) else 0
            if lo < hi:
                num *= b * leg + a * (j - lo)
                den *= b * leg + a * (j - hi)
            hi = lo
        for r in range(1, i):
            arm = lam[r - 1] - j
            num *= a * arm + b * (i - r + 1)
            den *= a * arm + b * (i - r)
        out.append((lam[:i - 1] + (j,) + lam[i:], num, den))
    return out
