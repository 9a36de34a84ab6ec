"""Signed log-domain scalars and the special functions built on them.

Large gamma-function products overflow double precision long before the
quantities of interest do, so multiplicative constants are carried as a
sign together with the log of the absolute value.  Exact-rational variants
of the Pochhammer products are provided as well; the series code prefers
those, converting to the log domain only at the very end.

The two closed forms the series needs from Jack polynomial theory live here
too: the value of C_kappa at the identity and the Pieri coefficients of
(x_1 + ... + x_m) C_lambda.  Neither needs an expansion of C_kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Union

from .partitions import (Partition, lower_hook_product, normalize,
                         upper_hook_product)

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, log|value|); sign 0 encodes exact zero."""
    sign: int
    log_abs: float

    @classmethod
    def zero(cls) -> "SignedLogValue":
        return cls(0, float("-inf"))

    @classmethod
    def one(cls) -> "SignedLogValue":
        return cls(1, 0.0)

    @classmethod
    def from_float(cls, v: float) -> "SignedLogValue":
        if v == 0:
            return cls.zero()
        return cls(1 if v > 0 else -1, math.log(abs(v)))

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "SignedLogValue":
        fr = Fraction(fr)
        return cls.from_ratio(fr.numerator, fr.denominator)

    @classmethod
    def from_ratio(cls, num: int, den: int) -> "SignedLogValue":
        """num/den for integers in lowest terms with den > 0, as from_fraction
        would give it, without the gcd that building the Fraction costs."""
        if num == 0:
            return cls.zero()
        # big integers exceed float range, so take logs of the integer parts
        return cls(1 if num > 0 else -1, _log_int(abs(num)) - _log_int(den))

    @classmethod
    def exp(cls, log_value: float, sign: int = 1) -> "SignedLogValue":
        return cls(sign, log_value)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign, self.log_abs + other.log_abs)

    def __truediv__(self, other: "SignedLogValue") -> "SignedLogValue":
        if other.sign == 0:
            raise ZeroDivisionError("signed-log division by exact zero")
        if self.sign == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self.sign * other.sign, self.log_abs - other.log_abs)

    def __neg__(self) -> "SignedLogValue":
        return SignedLogValue(-self.sign, self.log_abs)

    def __add__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.log_abs >= other.log_abs else (other, self)
        diff = lo.log_abs - hi.log_abs  # <= 0
        if self.sign == other.sign:
            return SignedLogValue(self.sign, hi.log_abs + math.log1p(math.exp(diff)))
        delta = -math.expm1(diff)  # 1 - exp(diff) in [0, 1]
        if delta == 0.0:
            return SignedLogValue.zero()
        return SignedLogValue(hi.sign, hi.log_abs + math.log(delta))

    def scale_log(self, log_shift: float) -> "SignedLogValue":
        if self.sign == 0:
            return self
        return SignedLogValue(self.sign, self.log_abs + log_shift)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)


def _log_int(n: int) -> float:
    """log of a positive integer, robust to values beyond float range."""
    if n <= 0:
        raise ValueError("need a positive integer")
    try:
        return math.log(n)
    except OverflowError:
        hi = n >> (n.bit_length() - 60)
        return math.log(hi) + (n.bit_length() - 60) * math.log(2)


def log_fraction(fr: Fraction) -> SignedLogValue:
    return SignedLogValue.from_fraction(fr)


# ---------------------------------------------------------------------------
# gamma-type functions
# ---------------------------------------------------------------------------

def _log_gamma_signed(z: float) -> SignedLogValue:
    """Gamma(z) as a signed-log value; poles at nonpositive integers rejected."""
    if z <= 0 and float(z).is_integer():
        raise ValueError(f"gamma pole at {z}")
    if z > 0:
        return SignedLogValue(1, math.lgamma(z))
    # sign alternates between consecutive negative integers
    crossings = math.floor(-z) + 1
    sign = -1 if crossings % 2 else 1
    return SignedLogValue(sign, math.lgamma(z))


def log_multivariate_gamma(beta, m: int, c) -> SignedLogValue:
    """The m-variate gamma function at parameter beta:

        pi^(m(m-1)beta/4) * prod_{i=1..m} Gamma(c - (i-1)beta/2)

    Each shifted argument must avoid the poles of Gamma.
    """
    beta = Fraction(beta)
    c = Fraction(c)
    if m < 1:
        raise ValueError("m must be >= 1")
    out = SignedLogValue.exp(float(Fraction(m * (m - 1)) * beta / 4) * math.log(math.pi))
    for i in range(1, m + 1):
        arg = c - Fraction(i - 1) * beta / 2
        if arg <= 0 and arg.denominator == 1:
            raise ValueError(f"multivariate gamma pole: argument {arg} at row {i}")
        out = out * _log_gamma_signed(float(arg))
    return out


def rising_factorial(a: Fraction, n: int) -> Fraction:
    """Exact rising factorial a (a+1) ... (a+n-1)."""
    a = Fraction(a)
    out = Fraction(1)
    for j in range(n):
        out *= a + j
    return out


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


def gen_pochhammer(a, kappa: Partition, beta) -> SignedLogValue:
    """Generalized Pochhammer symbol as a signed-log value.

    Exact zero detection relies on exact inputs (int or Fraction); float
    arguments are accepted but compared against zero directly.
    """
    kappa = normalize(kappa)
    if isinstance(a, (int, Fraction)) and isinstance(beta, (int, Fraction)):
        return SignedLogValue.from_fraction(gen_pochhammer_exact(a, kappa, beta))
    a = float(a)
    beta_f = float(beta)
    out = SignedLogValue.one()
    for i, part in enumerate(kappa, start=1):
        base = a - (i - 1) * beta_f / 2
        for j in range(part):
            f = base + j
            if f == 0:
                return SignedLogValue.zero()
            out = out * SignedLogValue.from_float(f)
    return out


def pi_exponent(which: str, beta, n: int) -> Fraction:
    """Exponent of pi in the normalizing constants, by case on beta.

    which = "r" is the exponent in the main constant; "r1" and "r2" are the
    exponents attached to the two auxiliary integrals it is assembled from.
    """
    beta = Fraction(beta)
    if beta not in (Fraction(1), Fraction(2), Fraction(4)):
        raise ValueError("pi exponents are tabulated for beta in {1, 2, 4}")
    real = beta == 1
    if which == "r":
        return Fraction(n) * beta / 2 if real else Fraction(n - 1) * beta / 2
    if which == "r1":
        return Fraction(0) if real else -Fraction(n) * beta / 2
    if which == "r2":
        return Fraction(0) if real else -Fraction(n - 1) * beta / 2
    raise ValueError(f"unknown exponent name {which!r}")


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


def pieri_coefficients(lam: Partition, beta, m: int) -> Dict[Partition, Fraction]:
    """Coefficient of each C_mu in (x_1 + ... + x_m) C_lam, in m variables.

    mu is lam plus one box (i, j) in at most m rows.  The coefficient is
    h^*_mu / (alpha (|lam|+1) h^*_lam) times prod_{r<i} b_mu(r,j)/b_lam(r,j),
    b(s) = (alpha a + l + 1)/(alpha (a+1) + l) in the arm a and leg l of s
    (Stanley 1989).  Only the hooks in row i and column j change, and over
    column j the hook ratio cancels against the b's, leaving

        1/(|lam|+1) * prod_{c<j} (l + alpha(a+2)) / (l + alpha(a+1))
                    * prod_{r<i} (alpha a + i-r+1) / (alpha a + i-r)

    with the arms and legs taken in lam, over integers after scaling by
    alpha's denominator.  Along row i the leg is constant, L, on the cells
    lam_{i+L+1} < c <= lam_{i+L}, and there the product over c telescopes
    to (L + alpha(j - lam_{i+L+1})) / (L + alpha(j - lam_{i+L})).
    """
    lam = normalize(lam)
    alpha = _alpha(beta)
    if len(lam) > m:
        raise ValueError(f"C_{lam} vanishes in {m} variables")
    a, b = alpha.numerator, alpha.denominator
    size = sum(lam) + 1
    out: Dict[Partition, Fraction] = {}
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
        mu = lam[:i - 1] + (j,) + lam[i:]
        out[mu] = Fraction(num, den)
    return out
