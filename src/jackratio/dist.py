"""Distribution of x = 1 - l_min/l_max for a singular beta-Wishart matrix.

An m x n data matrix (m > n) with standard real (beta = 1), complex
(beta = 2) or quaternion (beta = 4) Gaussian entries has a rank-n Gram
spectrum l_1 >= ... >= l_n > 0.  The cumulative distribution of
x = 1 - l_n/l_1 admits a series whose terms are indexed by partition
triples (kappa, tau, delta) in at most n-1 parts, with coefficients built
from Jack polynomial linearization numbers, generalized Pochhammer symbols,
and values of Jack polynomials at the identity.  The kappa sum only ever
enters as p_1^k C_tau with p_1 = x_1 + ... + x_{n-1}, so the linearization
numbers are never formed one by one.  The build runs forward instead (see
`_ForwardBuild`): u_{0,t} = sum_{|tau|=t} [a_tau]_tau C_tau, each step
multiplies every u_{k,t} by p_1 with the closed-form Pieri rule, and c[k,t]
is scalar_k/t! times the delta functional L_0 applied to u_{k,t}.  With one
inner variable (n = 2) C_(w)(y) = y^w and p_1 C_(w) = C_(w+1), so every step
is the identity and the build makes none: c[k,t] = s_k a_t l_(k+t) is a
product of three sequences.  The build's inner loops run over ints:
u_{k,t}, L_0 and the Pieri moves are indexed by each partition's rank in
`partitions_of`, over one denominator per vector or weight, and each c[k,t]
is a reduced (numerator, denominator).  No c[k,t] depends on K, so one
build per (m, n, beta, t_max) is extended in place and the table at K is
its k <= K prefix: a convergence search pays for one build to its final K.
That build is the only per-shape cache: it holds the series' ingredients,
its exact leading constant and its tables by K.

Everything inside the double series is an exact rational, and so is
almost all of the one leading constant: for beta in {1, 2, 4} its gamma
arguments are integers and half-integers, every power of pi cancels, and
what is left is an exact Fraction q times a float c, 1.0 where m n beta is
even and 1/sqrt(n), correctly rounded, where it is odd (see
`LeadingConstant`).  The series coefficients are therefore accumulated
exactly and scaled by the constant at the very end.  This matters: for
large m the tau sum is an alternating binomial-type sum whose terms exceed
the result by 20+ orders of magnitude, far beyond what double precision
accumulation could survive.

Evaluations run in floats under a derived error bound and fall back to
exact arithmetic only where no float evaluation can be certified.  Centre 0
is Horner in the monomial basis with Higham's running error bound, which
also counts the rounding of each coefficient, of x^rho and of the exact
reference itself (see `_horner`); a value is accepted when its bound is at
most 1e-9 of it.  The running error sum never decreases in x, so its value
on a grid of 65 points, each computed once, stands in for it at the points
below; the second Horner pass runs only where that bound fails.  Where the
coefficients cancel (near x = 1 at large m), Taylor centres about x = r/8,
r = 1..8, take over.  Each is built on the first point that needs it, by
one exact integer Taylor shift (`_taylor_shift`), its coefficients rounded
once and cut where the dropped terms fall below one unit of its a-priori
bound; y = x - r/8 is exact.  A point whose nearest centre exists goes
straight to it (see `SeriesTable._bounded`), so a value can differ in its
last bits, within its bound, with the centres earlier calls built;
`cdf_many` gives bitwise the values `cdf` gives after it.

The exact passes run over Python ints.  Each table keeps one common
denominator D, the least that makes its collapse (below) integral, and
works on the integer numerators over D.  Every exact value leaves the
package the same way (see `_scaled_float`): the ratio of integers times q
is correctly rounded by Python's int true division, and only the product
with c rounds again, which is exact where c = 1.0.  The exact fallback
writes the float x as p/2^e and runs Horner in fixed point, s = (s p >> e)
+ N_j 2^G, with G guard bits: s stays within len(N) + 1 of 2^G times the
sum, and G grows until both ends of that interval round to the same
float, or until no step truncates (see `_exact_value`).

Every exact pass reads one integer collapse of the table
(`_ForwardBuild.collapse`): D, the numerators N_j = D * sum_{k+t=j} c[k,t]
of the powers x^(rho+j), j = 0..K+t_max, and the numerators of row K.  At
n = 2 it is one convolution of integer sequences, l_j sum_{k+t=j} s_k a_t,
and no cell is formed: the cells are made on the first read of `coeffs`,
or for the last-column monitor of a table whose inner sum does not end by
t_max.  Otherwise it extends the collapse of the largest smaller table of
its build.  The moment E[X^h] weighs c[k,t] by e/(e+h) with e =
rho+k+t, which depends on k+t only, so its total is sum_j N_j e/(e+h) over
the K+t_max+1 powers (in ints over the lcm of the reduced denominators of
e/(e+h)) and the last K increment, which the monitor compares with it, is
the same sum over row K.  The total leaves
through `_scaled_float`, and the monitor is |increment / total|, one
correctly rounded int division.  `summary_stats` forms the central moments
from the same integer totals, exactly (see there).

The truncation orders: the outer series is cut at K, the inner one at
t_max.  When p = beta*(m - n + 1)/2 - 1 is a nonnegative integer the inner
sum is finite by itself (Pochhammer factors vanish for tau_1 > p) and
t_max defaults to p*(n-1); otherwise t_max must be supplied.  Where the
inner sum does not end by t_max, a second monitor watches t as the first
watches K: the share of the mass in the last column t = t_max
(`diagnostics["last_column_rel"]`).  Both are estimates of what the cut
drops, not bounds: at (10,2,1,K=400,t_max=200) the column reads 1.9e-9
while the mass is 8.2e-8 short of 1.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate
from operator import index, mul
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .partitions import Partition, partitions_of
from .special import (
    gamma_exact,
    gen_pochhammer_exact,
    multivariate_gamma,
    pi_exponent,
    pieri_ratios,
)

if TYPE_CHECKING:
    import numpy as np

MONITOR_TOLERANCE = 1e-10
_QUANTILE_TOLERANCE = 1e-8  # `quantile` stops at |cdf - alpha| <= this
_K_BUDGET = 6400  # `auto_converged_params` gives up at this K


class TruncationWarning(UserWarning):
    """The truncated series shows no numerical sign of having converged."""


class TruncationError(RuntimeError):
    """The requested quantity needs a larger truncation order."""


class _DistParamsFields(NamedTuple):
    m: int
    n: int
    beta: int = 1
    K: Optional[int] = None
    t_max: Optional[int] = None


class DistParams(_DistParamsFields):
    """Parameters of the singular-case distribution evaluator.

    m, n   : data matrix shape, m > n >= 2 (so the Wishart matrix is singular)
    beta   : 1, 2 or 4
    K      : outer truncation order; defaults to 25 for beta=1, 40 otherwise
    t_max  : inner truncation order; defaults to the natural finite bound

    An immutable tuple of its fields, checked in `__new__`, which unpickling
    and `_replace` go through too.
    """
    __slots__ = ()

    def __new__(cls, m: int, n: int, beta: int = 1, K: Optional[int] = None,
                t_max: Optional[int] = None) -> DistParams:
        m, n, beta = _check_integers(m=m, n=n, beta=beta)
        K, t_max = _check_orders(K, t_max)
        if beta not in (1, 2, 4):
            raise ValueError("beta must be 1, 2 or 4")
        if not (m > n >= 2):
            raise ValueError("need m > n >= 2")
        return super().__new__(cls, m, n, beta, K, t_max)

    @classmethod
    def _make(cls, iterable) -> DistParams:
        return cls(*iterable)

    @property
    def resolved_K(self) -> int:
        if self.K is not None:
            return self.K
        return 25 if self.beta == 1 else 40

    @property
    def resolved_t_max(self) -> int:
        return _resolve_t_max(self.m, self.n, self.beta, self.t_max)


def _check_integers(**values) -> List[Optional[int]]:
    """The values as Python ints, None kept; ValueError unless every value
    that is not None is an integer (bools are not: True would pass for 1).
    `operator.index` turns numpy integers into ints, so they never reach
    the exact arithmetic, where they would overflow."""
    out = []
    for name, value in values.items():
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            value = index(value)
        out.append(value)
    return out


def _check_orders(K: Optional[int], t_max: Optional[int]) -> List[Optional[int]]:
    """K and t_max as Python ints, None kept; ValueError unless the orders
    given are nonnegative integers."""
    K, t_max = _check_integers(K=K, t_max=t_max)
    for name, value in (("K", K), ("t_max", t_max)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative")
    return [K, t_max]


def _natural_t_max(m: int, n: int, beta: int) -> Optional[int]:
    """The order p*(n-1) at which the inner sum terminates by itself, or None
    where p = beta*(m - n + 1)/2 - 1 is not a nonnegative integer and it
    never does."""
    p = Fraction(beta * (m - n + 1), 2) - 1
    return int(p) * (n - 1) if p.denominator == 1 and p >= 0 else None


def _resolve_t_max(m: int, n: int, beta: int, t_max: Optional[int]) -> int:
    """t_max itself, or the order at which the inner sum terminates by itself."""
    if t_max is not None:
        return t_max
    natural = _natural_t_max(m, n, beta)
    if natural is not None:
        return natural
    raise ValueError(
        "t_max has no finite default here (the inner series does not terminate); "
        "pass t_max explicitly")


class _SeriesSpec(NamedTuple):
    """Raw ingredients of one series, its inner sum cut at t_max."""
    nvars: int
    beta: Fraction
    a_tau: Fraction
    a_num: Fraction
    a_den: Fraction
    rho: int
    gamma_arg: Fraction
    base: int
    t_max: int


def _spec(m: int, n: int, beta: int, t_max: int) -> _SeriesSpec:
    """The series of an m x n matrix; m = n is allowed here (real case only)."""
    b = Fraction(beta)
    return _SeriesSpec(
        nvars=n - 1,
        beta=b,
        a_tau=Fraction(n - m - 1) * b / 2 + 1,
        a_num=Fraction(n) * b / 2 + 1,
        a_den=Fraction(n - 1) * b + 2,
        rho=int(Fraction((n - 1) * (n * beta + 2), 2)),
        gamma_arg=Fraction(m * n) * b / 2,
        base=n,
        t_max=t_max,
    )


class LeadingConstant(NamedTuple):
    """A constant q * c: q an exact Fraction and c one float, the part of
    n^-f that is not rational (see `_leading`).  For a series table c is
    1.0 where m n beta is even and 1/sqrt(n), rounded once, where it is
    odd.  `sign` and `log_abs` give the constant in signed-log form."""
    q: Fraction
    c: float

    @property
    def sign(self) -> int:
        return ((self.q > 0) - (self.q < 0)) * ((self.c > 0) - (self.c < 0))

    @property
    def log_abs(self) -> float:
        # math.log takes integers beyond float range
        q = self.q
        return math.log(abs(q.numerator)) - math.log(q.denominator) + math.log(abs(self.c))


def _constant(m: int, n: int, beta: int) -> Tuple[Fraction, int, Fraction]:
    """The paper's leading constant exactly, as (q, h, f) for q pi^(h/2) n^-f:

        Gamma_{n-1}(n b/2 + 1) Gamma_{n-1}((n-2) b/2 + 1) pi^r
        / (Gamma_{n-1}((n-1) b + 2) Gamma(n b/2) Gamma_n(m b/2))  n^(-m n b/2)

    with the multivariate gammas at parameter b = beta and r from
    `special.pi_exponent`.
    """
    b = Fraction(beta)
    q, h = Fraction(1), 2 * pi_exponent(b, n)
    for (gq, gh), sign in ((multivariate_gamma(b, n - 1, Fraction(n) * b / 2 + 1), 1),
                           (multivariate_gamma(b, n - 1, Fraction(n - 2) * b / 2 + 1), 1),
                           (multivariate_gamma(b, n - 1, Fraction(n - 1) * b + 2), -1),
                           (gamma_exact(Fraction(n) * b / 2), -1),
                           (multivariate_gamma(b, n, Fraction(m) * b / 2), -1)):
        q *= gq ** sign
        h += sign * gh
    return q, int(h), Fraction(m * n) * b / 2


def _series_constant(m: int, n: int, beta: int) -> Tuple[Fraction, Fraction]:
    """(q, f) of the constant q n^-f of a series table: `_constant` times
    Gamma(m n beta/2), which cancels its power of pi.  Each `_ForwardBuild`
    computes it once for all its tables."""
    q, h, f = _constant(m, n, beta)
    gq, gh = gamma_exact(f)
    assert h + gh == 0, "Gamma(m n beta/2) cancels the power of pi"
    return q * gq, f


def _leading(q: Fraction, f: Fraction, n: int) -> LeadingConstant:
    """q n^-f as a `LeadingConstant`: n^-floor(f) goes into q, and c is 1.0,
    or 1/sqrt(n) where f is a half-integer.  Then m n beta is odd, so n is
    odd and 1/sqrt(n) is irrational: r = floor(2^P / sqrt(n)) leaves it
    strictly inside (r, r + 1) / 2^P, which for P = 64 + bits(n) holds no
    point halfway between two floats, so (r + 1/2) / 2^P rounds as
    1/sqrt(n) does.
    """
    whole = math.floor(f)
    c = 1.0
    if f != whole:
        P = 64 + n.bit_length()
        r = math.isqrt((1 << 2 * P) // n)
        c = (2 * r + 1) / (1 << P + 1)
    return LeadingConstant(q / Fraction(n) ** whole, c)


# -- float evaluation under a derived bound ---------------------------------------

_CENTRES = 8  # Taylor centres r/_CENTRES, r = 1.._CENTRES; a power of two
_CENTRE_BITS = _CENTRES.bit_length() - 1
_GRID = 64  # centre 0's envelope cells i/_GRID, i = 0.._GRID; a power of two
_BLOCK = 2 ** 15  # points per block of centre 0 over an array: its work arrays stay in L2
_ACCEPT = 1e-9  # a float value is accepted when its bound is <= _ACCEPT * |value|
_U = 2.0 ** -53  # unit roundoff of a double
_ETA = 2.0 ** -1074  # the most an underflowing product can lose, absolutely


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u) (Higham 2002, section 3.1): a product of k
    factors 1 + delta, |delta| <= u, is within gamma_k of 1."""
    return k * _U / (1 - k * _U)


class _Poly(NamedTuple):
    """The cdf or pdf of a table about 0, as `SeriesTable._polynomial` keeps
    it: x^power * sum_j c_j x^j.  `coeffs` holds the float c_j from the
    highest power down (None beyond float range) and `sizes` the |c_j|;
    `gamma` and `floor` are `_horner`'s bound factors, `shifted` the integer
    numerators that `_exact_value` takes.  `envelope` holds the float Horner
    sum of the sizes at i/_GRID, i = 0.._GRID, each cell computed on the
    first point that falls in it, or for an array on the first array whose
    cells span it (None until then)."""
    power: int
    coeffs: Optional[List[float]]
    sizes: List[float]
    shifted: Sequence[int]
    gamma: float
    floor: float
    envelope: List[Optional[float]]

    @classmethod
    def of(cls, power: int, coeffs: Optional[List[float]], shifted: Sequence[int] = ()) -> "_Poly":
        """The polynomial with these float coefficients, its bound factors
        for d + 1 = len(coeffs) terms and an empty envelope."""
        if coeffs is None:
            return cls(power, None, [], shifted, 0.0, 0.0, [])
        return cls(power, coeffs, [abs(c) for c in coeffs], shifted,
                   _gamma(2 * len(coeffs) + power + 3), (len(coeffs) + power) * _ETA,
                   [None] * (_GRID + 1))

    def cell(self, i: int) -> float:
        """Envelope cell i, computed on first use."""
        e = self.envelope[i]
        if e is None:
            e = self.envelope[i] = _horner_value(self.sizes, i / _GRID)
        return e

    def filled(self, index):
        """The envelope as a float array, after computing the cells still
        missing from the lowest to the highest cell of the integer array
        index, in one numpy Horner: the same arithmetic as `cell`."""
        import numpy as np
        env = self.envelope
        if None in env:
            # a span, not the cells named: two reductions find it, where marking
            # each named cell cost 6 times as much
            missing = [i for i in range(int(index.min()), int(index.max()) + 1) if env[i] is None]
            grid = np.array(missing, dtype=float) / _GRID
            for i, e in zip(missing, _horner_value(self.sizes, grid).tolist()):
                env[i] = e
        return np.array(env, dtype=float)  # a cell still missing reads nan, and no point takes it


def _power(x, power: int, out=None):
    """x^power by power - 1 products (a copy of x for power 1), for a float
    or an array, into out when given."""
    if out is None:
        xp = x * x if power > 1 else x * 1.0
    else:
        import numpy as np
        xp = np.multiply(x, x if power > 1 else 1.0, out=out)
    for _ in range(power - 2):
        xp *= x
    return xp


def _horner(poly: _Poly, x):
    """(value, bound, accepted): x^power * sum_j c_j x^j in floats, a bound
    on its distance from the exact value that `_eval_exact` rounds, and
    whether bound <= _ACCEPT |value|, for 0 <= x <= 1 and power >= 1.

    Each c_j is the exact a_j rounded at most twice (`_scaled_float`).
    Horner over d+1 terms makes 2d roundings, so with A = sum_j |a_j| x^j
    the sum is off by at most gamma_(2d+2) A (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, eq. 5.3); x^power, by power -
    1 products, and the product with it round power times more, and
    `_eval_exact` itself is the exact value rounded twice.  So the value is
    within gamma_(2d+power+4) A x^power of `_eval_exact`.  The running sum a
    of the |c_j| (Horner over `sizes`) and its products undershoot A x^power
    by at most a factor (1 - u)^(2d+power+3), which one more unit, `gamma` =
    gamma_(2d+power+5), covers while d is below about 10^7.  floor adds the
    most the Horner steps and the last product can lose to underflow.  The
    x^power chain can lose up to (power - 1) 2^-1075 to underflow, which the
    sum then multiplies, so a gets power 2^-1074 a more: the bound is
    a (gamma x^power + power 2^-1074) + floor.

    The running sum needs a second Horner pass, so centre 0 first tries the
    envelope in its place.  Every step of a, a x + |c_j|, rounds a function
    of a >= 0 and x >= 0 that never decreases in either, and rounding to
    nearest is monotone, so the computed a never decreases as x grows.  With
    i = ceil(_GRID x) (exact: _GRID is a power of two), x <= i/_GRID, so
    the envelope cell E_i, the same computed sum at i/_GRID, is >= a; by the
    same monotonicity E_i (gamma x^power + power 2^-1074) + floor is >= the
    running-sum bound.  It is therefore a derived bound as well, and where
    it passes the 1e-9 rule the running sum passes too.  The running sum is
    taken only where the envelope bound fails, so every value and every
    accept decision is the running sum's, and the bound returned is the
    envelope's where it accepts and the running sum's elsewhere.

    x is a float or a 1-D numpy array; the arithmetic is the same for both,
    so an array gives bitwise the values, bounds and flags a loop of floats
    gives.  An array runs in blocks of _BLOCK points, writing into its
    output arrays in place with one work array (`_horner_many`).  numpy is
    imported in the array branch only, so scalar callers (every `dist`
    command) never load it.
    """
    if not isinstance(x, float):
        return _horner_many(poly, x)
    s = _horner_value(poly.coeffs, x)
    xp = _power(x, poly.power)
    s *= xp
    tol = _ACCEPT * abs(s)
    bound = poly.cell(math.ceil(x * _GRID)) * (xp * poly.gamma + poly.power * _ETA) + poly.floor
    if not bound <= tol:
        bound = _running_bound(poly, x)
    return s, bound, bound <= tol


def _running_bound(poly: _Poly, x):
    """`_horner`'s bound from the running sum a at a float or an array x:
    the second Horner pass, which the envelope saves where it accepts."""
    xp = _power(x, poly.power)
    xp *= poly.gamma
    xp += poly.power * _ETA
    a = _horner_value(poly.sizes, x)
    a *= xp
    a += poly.floor
    return a


def _horner_many(poly: _Poly, x):
    """`_horner` over a 1-D array, _BLOCK points at a time: the value in
    place in its output block, the envelope bound in the bound block, and
    one work array that holds the envelope cells (as integers), then
    x^power and gamma x^power + power 2^-1074, then _ACCEPT |value|.  The
    running sum runs on the points the envelope rejects only."""
    import numpy as np
    value, bound = np.empty_like(x), np.empty_like(x)
    accepted = np.empty(x.shape, dtype=bool)
    work = np.empty(min(x.size, _BLOCK))
    for start in range(0, x.size, _BLOCK):
        t, s, b, ok = (a[start:start + _BLOCK] for a in (x, value, bound, accepted))
        w = work[:t.size]
        cells = w.view(np.int64)
        np.ceil(np.multiply(t, _GRID, out=b), out=b)
        np.copyto(cells, b, casting="unsafe")  # unbuffered, where a ufunc's cast buffers
        np.take(poly.filled(cells), cells, out=b, mode="clip")  # "raise" copies
        _horner_value(poly.coeffs, t, out=s)
        _power(t, poly.power, out=w)
        s *= w
        w *= poly.gamma
        w += poly.power * _ETA
        b *= w
        b += poly.floor
        tol = np.abs(s, out=w)
        tol *= _ACCEPT
        np.less_equal(b, tol, out=ok)
        rejected = np.flatnonzero(~ok)
        if rejected.size:
            b[rejected] = a = _running_bound(poly, t[rejected])
            ok[rejected] = a <= tol[rejected]
    return value, bound, accepted


def _horner_value(coeffs: Sequence[float], y, out=None):
    """sum_k b_k y^k by Horner, the b_k from the highest power down; the same
    arithmetic for a float and a numpy array, in place into out when given."""
    if isinstance(y, float):
        s = 0.0
    elif out is None:
        import numpy as np
        s = np.zeros_like(y)
    else:
        s = out
        s.fill(0.0)
    for c in coeffs:
        s *= y
        s += c
    return s


def _taylor_shift(coeffs: Sequence[int], r: int) -> List[int]:
    """T with P(r + z) = sum_k T_k z^k for P(z) = sum_i coeffs[i] z^i, over
    the integers, by additions: Q(w) = P(r w) = sum_i coeffs[i] r^i w^i,
    Q(1 + y) = sum_k S_k y^k by len(coeffs) - 1 synthetic divisions by w - 1
    (running sums from the top), and T_k = S_k / r^k exactly."""
    b = [c * r ** i for i, c in enumerate(coeffs)][::-1]
    for n in range(len(b), 1, -1):
        b[:n] = accumulate(b[:n])
    return [t // r ** k for k, t in enumerate(reversed(b))]


class _Centre(NamedTuple):
    """The cdf or pdf re-expanded about x = at = r/_CENTRES, as sum_k b_k y^k
    with y = x - at, for the points whose nearest centre this is: |y| <= h
    = 1/(2 _CENTRES), so x lies in [at/2, 2 at] and y is exact (Sterbenz's
    lemma).

    `head` holds b_0..b_k0, highest first.  The a-priori bound `bound`
    holds at every such point, E = gamma_(2 k0 + 5) sum_k |b_k| h^k +
    2 sum_(k > k0) |b_k| h^k (Horner, two roundings per coefficient and two
    of `_eval_exact`, as in `_horner`, plus the dropped terms; the one unit
    above 2 k0 + 4 also covers the roundings of these sums), plus (k0 + 1)
    2^-1074 for underflow.  k0 is the least order whose dropped terms sum to
    below one unit roundoff of the first part.
    """
    at: float
    head: List[float]
    bound: float


def _build_centre(shift: Sequence[int], den: int, r: int, derivative: bool,
                  const: LeadingConstant) -> Optional[_Centre]:
    """The `_Centre` at r/_CENTRES from `shift`, the Taylor shift by r of the
    integer polynomial M_i = Q_i 8^(D-i), where the cdf is const Q(x) / den
    and Q has degree D (8 standing for _CENTRES): Q(r/8 + y) = sum_k T_k
    8^(k-D) y^k.  The pdf's coefficients are (k+1) b_(k+1).  Each b_k is
    rounded as `_scaled_float` rounds, once by int true division and once
    more where c != 1.  None where a coefficient, or the sum of their
    sizes, is beyond float range."""
    D = len(shift) - 1
    if derivative:
        pairs = [((k + 1) * shift[k + 1], den << _CENTRE_BITS * (D - k - 1)) for k in range(D)]
    else:
        pairs = [(t, den << _CENTRE_BITS * (D - k)) for k, t in enumerate(shift)]
    try:
        b = [_scaled_float(n, d, const) for n, d in pairs]
    except OverflowError:
        return None
    if not math.isfinite(sum(map(abs, b))):
        return None
    # |b_k| h^k with h = 1/(2 _CENTRES), a power of two: exact unless it underflows
    sizes = [math.ldexp(abs(c), -(_CENTRE_BITS + 1) * k) for k, c in enumerate(b)]
    total = sum(sizes)
    k0, tail = len(b) - 1, 0.0
    while k0 > 0 and tail + sizes[k0] <= _U * _gamma(2 * k0 + 5) * total:
        tail += sizes[k0]
        k0 -= 1
    return _Centre(at=r / _CENTRES, head=b[k0::-1],
                   bound=_gamma(2 * k0 + 5) * total + 2 * tail + (k0 + 1) * _ETA)


# -- exact values, correctly rounded --------------------------------------------

_GUARD = 64  # the guard bits `_exact_value` tries first


def _scaled_float(num: int, den: int, const: LeadingConstant) -> float:
    """num/den (den > 0) times const = q c: num q / den correctly rounded by
    Python's int true division, then times c.  Every exact value leaves the
    package this way, so c is its only other rounding, and none where
    c = 1.0.  OverflowError when num q / den is beyond float range."""
    q = const.q
    return (num * q.numerator) / (den * q.denominator) * const.c


def _fixed_horner(shifted: Sequence[int], p: int, e: int, power: int) -> int:
    """x^power * sum_j shifted[j] x^j in fixed point, for x = p/2^e in [0, 1].

    With shifted[j] = N_j 2^G and S = x^power sum_j N_j x^j, each Horner
    step s = (s p >> e) + shifted[j] and the final s p^power >> e power
    floor once, losing less than one unit, and x <= 1 damps what the earlier
    floors lost, so |s - 2^G S| <= len(shifted) + 1.  When
    G >= e (len(shifted) - 1 + power) no floor drops a bit and s = 2^G S.
    """
    s = 0
    for c in reversed(shifted):
        s = (s * p >> e) + c
    return s * p ** power >> e * power


def _exact_value(shifted: Sequence[int], den: int, x: Fraction, power: int,
                 const: LeadingConstant) -> float:
    """x^power * sum_j N_j x^j / den times the constant q c, for
    a dyadic x = p/2^e in [0, 1] (every float is one) and shifted[j] =
    N_j 2^_GUARD: the rational part correctly rounded, then times c (see
    `_scaled_float`).

    `_fixed_horner` with G guard bits gives s within b = len(shifted) + 1
    of 2^G S.  Rounding and the product with c are monotone, so when s - b
    and s + b over den 2^G give the same `_scaled_float`, 2^G S does too.
    Otherwise G grows, to 64 bits of S above b when s already shows its
    size, else to twice as many, and at most to e (deg + power), where s is
    exact; that also decides an exact zero and a value beyond float range
    (OverflowError).
    """
    p, q = x.numerator, x.denominator
    if q & (q - 1):
        raise ValueError("x must be a dyadic rational, as every float is")
    e = q.bit_length() - 1
    b = len(shifted) + 1
    top = e * (len(shifted) - 1 + power)
    G = min(_GUARD, top)
    while True:
        terms = shifted if G == _GUARD else [n << G >> _GUARD for n in shifted]
        s = _fixed_horner(terms, p, e, power)
        scaled_den = den << G
        if G == top:
            return _scaled_float(s, scaled_den, const)
        try:
            lo = _scaled_float(s - b, scaled_den, const)
            if lo == _scaled_float(s + b, scaled_den, const):
                return lo
        except OverflowError:  # an end is beyond float range: not decided yet
            pass
        if abs(s) > 2 * b:
            G += max(64, 64 + b.bit_length() - abs(s).bit_length())
        else:
            G *= 2
        G = min(G, top)


# -- the forward Pieri build ----------------------------------------------------

def _pieri_moves(weight: int, beta: Fraction, nvars: int):
    """pieri(lam -> mu) for every partition lam of `weight` in at most nvars
    parts: three parallel tuples with one entry per move, the rank of lam,
    the rank of mu and the numerator over one common denominator, then that
    denominator and the number of partitions of weight + 1.  A tuple per
    move would take most of the memory of an n = 5 build."""
    alpha = 2 / beta
    a, b = alpha.numerator, alpha.denominator
    ratios = [pieri_ratios(lam, a, b, nvars) for lam in partitions_of(weight, nvars)]
    den = math.lcm(*(d for out in ratios for _, _, d in out))
    rank = {mu: i for i, mu in enumerate(partitions_of(weight + 1, nvars))}
    return (tuple([i for i, out in enumerate(ratios) for _ in out]),
            tuple([rank[mu] for out in ratios for mu, _, _ in out]),
            tuple([n * (den // d) for out in ratios for _, n, d in out]),
            den, len(rank))


def _pieri_step(vec: List[int], den: int, sources, targets, nums, move_den: int,
                size: int) -> Tuple[List[int], int]:
    """p_1 * sum_lam vec[lam]/den C_lam, lam by rank, given the `_pieri_moves`
    out of the vector's weight, as integer numerators over one denominator
    in lowest terms."""
    out = [0] * size
    for lam, mu, c in zip(sources, targets, nums):
        out[mu] += vec[lam] * c
    den *= move_den
    g = math.gcd(den, *out)
    if g > 1:
        out = [v // g for v in out]
        den //= g
    return out, den


class _DeltaFunctional:
    """L_0(delta) = [a_num]_delta C_delta(I) / [a_den]_delta, weight by weight,
    as integer numerators by rank over their least common denominator.

    With alpha = 2/beta, C_delta(I) = alpha^(2w) w! [nvars beta/2]_delta /
    (h^*_delta h_*^delta) (see `special.jack_at_identity`), so L_0 is built
    one box at a time from the weight below.  The box (l, j) that ends the
    last row l of delta multiplies L_0 by

        alpha w x(a_num) x(nvars beta/2) / (j (1 + alpha (j-1)) x(a_den))
        / prod_{r<l} q(l-r, delta_r - j)

    where x(a) = a - (l-1) beta/2 + j - 1 is its Pochhammer factor,
    alpha j (1 + alpha (j-1)) is what it does to the hooks of row l (they
    telescope) and of itself, and q(d, a) = (d + alpha(a+1)) (d+1 + alpha a)
    / ((d-1 + alpha(a+1)) (d + alpha a)) is the change of the two hooks of
    the cell (r, j), whose leg grows from d-1 to d.  With alpha = A/B each
    factor is a ratio of integers, with a positive denominator, times
    powers of A and B that cancel; each level is reduced once.
    """

    def __init__(self, spec: _SeriesSpec):
        self.spec = spec
        self.levels: List[Tuple[List[int], int]] = [([1], 1)]

    def at(self, weight: int) -> Tuple[List[int], int]:
        s = self.spec
        while len(self.levels) <= weight:
            A, B = 2 * s.beta.denominator, s.beta.numerator
            an, ad, bn, bd = (*s.a_num.as_integer_ratio(), *s.a_den.as_integer_ratio())
            w = len(self.levels)
            prev, prev_den = self.levels[-1]
            parents = {p: i for i, p in enumerate(partitions_of(w - 1, s.nvars))}
            factors = []
            for delta in partitions_of(w, s.nvars):
                l, j = len(delta), delta[-1]
                x = A * (j - 1) - (l - 1) * B  # x(a) = a + x/A
                num = w * (A * an + x * ad) * (s.nvars * B + x) * bd
                den = ad * j * (B + A * (j - 1)) * (A * bn + x * bd)
                for r in range(l - 1):
                    d, a = l - 1 - r, delta[r] - j
                    num *= (B * (d - 1) + A * (a + 1)) * (B * d + A * a)
                    den *= (B * d + A * (a + 1)) * (B * (d + 1) + A * a)
                parent = delta[:-1] + (j - 1,) if j > 1 else delta[:-1]
                factors.append((prev[parents[parent]] * num, den))
            # L_0(delta) = its factor / prev_den; put the factors over one
            # denominator and take out what every numerator shares with it
            common = math.lcm(*(d for _, d in factors))
            nums = [n * (common // d) for n, d in factors]
            common *= prev_den
            g = math.gcd(common, *nums)
            self.levels.append(([n // g for n in nums], common // g))
        return self.levels[weight]


def _over_lcm(pairs: Sequence[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Rationals given as (numerator, denominator) pairs, as integer
    numerators over their least common denominator, and that denominator:
    the lcm of the given ones, less what it shares with every numerator."""
    den = math.lcm(*(d for _, d in pairs))
    nums = [n * (den // d) for n, d in pairs]
    g = math.gcd(den, *nums)
    return ([n // g for n in nums], den // g) if g > 1 else (nums, den)


# per-weight integer data of the build, shared by every table that needs it:
# Pieri moves by weight per (beta, nvars), L_0 per (beta, nvars, a_num, a_den)
_PIERI_MOVES: Dict[Tuple[Fraction, int], Dict[int, tuple]] = {}
_DELTA_FUNCTIONAL: Dict[tuple, _DeltaFunctional] = {}


class _ForwardBuild:
    """The c[k,t] of the series of one (m, n, beta, t_max) for k = 0, 1, ...,
    extended on demand.

        u_{0,t}   = sum_{|tau|=t} [a_tau]_tau C_tau
        u_{k+1,t} = p_1 u_{k,t}                      (one Pieri step)
        c[k,t]    = scalar_k / t! * <L_0, u_{k,t}>

    with scalar_k = (gamma_arg)_k / (base^k k!), a reduced int pair, and L_0
    from `_DeltaFunctional`.  With one inner variable the Pieri step is the
    identity, so u_{k,t} = u_{0,t} and no step is made.  Each u_{k,t} is a
    list of integer numerators, by the rank of tau in `partitions_of`, over
    one denominator; `rows[k]` holds each nonzero c[k,t] as a reduced
    (numerator, denominator), and the table at K is the k <= K prefix of
    `rows`.  With one inner variable the collapse needs no row, so `rows`
    grows only on the first read of a table's `coeffs`, or for the
    last-column monitor where the inner sum does not end by t_max
    (`terminates` is False).  The build also owns the
    leading constant of its tables and, in `tables`, the tables that
    `get_table` has handed out, by K, with their collapses.  `terminates`
    says whether every u_{0,t} with t > t_max vanishes.
    """

    def __init__(self, m: int, n: int, beta: int, t_max: int):
        self.spec = spec = _spec(m, n, beta, t_max)
        self.const = _leading(*_series_constant(m, n, beta), n)
        self.tables: Dict[int, SeriesTable] = {}
        natural = _natural_t_max(m, n, beta)
        self.terminates = natural is not None and natural <= t_max
        self.rows: List[Dict[int, Tuple[int, int]]] = []  # rows[k]: {t: c[k,t]}, c != 0
        self._scalars = [(1, 1)]  # scalar_k as reduced (numerator, denominator)
        self._factorials = list(accumulate(range(1, spec.t_max + 1), mul, initial=1))
        self._moves = _PIERI_MOVES.setdefault((spec.beta, spec.nvars), {})
        self._ell = _DELTA_FUNCTIONAL.setdefault(
            (spec.beta, spec.nvars, spec.a_num, spec.a_den), _DeltaFunctional(spec))
        # (t, numerators, denominator) of u_{k,t} for the latest k; a t whose
        # [a_tau]_tau all vanish contributes nothing and has no vector
        self._vectors: List[Tuple[int, List[int], int]] = []
        for t in range(spec.t_max + 1):
            u = [gen_pochhammer_exact(spec.a_tau, tau, spec.beta)
                 for tau in partitions_of(t, spec.nvars)]
            if any(u):
                den = math.lcm(*(v.denominator for v in u))
                self._vectors.append((t, [v.numerator * (den // v.denominator) for v in u], den))

    def extend(self, K: int) -> None:
        scalars = self._scalars_to(K)
        while len(self.rows) <= K:
            k = len(self.rows)
            # one inner variable: p_1 C_(w) = C_(w+1), so every step is the identity
            if k and self.spec.nvars > 1:
                self._vectors = [(t, *_pieri_step(u, den, *self._moves_out_of(k - 1 + t)))
                                 for t, u, den in self._vectors]
            sn, sd = scalars[k]
            # L_0 up to the heaviest vector's weight, once per row
            self._ell.at(k + self._vectors[-1][0] if self._vectors else 0)
            levels, row = self._ell.levels, {}
            for t, u, den in self._vectors:
                ell, ell_den = levels[k + t]
                inner = sum(map(mul, ell, u)) * sn
                if inner:
                    d = den * ell_den * sd * self._factorials[t]
                    g = math.gcd(inner, d)
                    row[t] = inner // g, d // g
            self.rows.append(row)

    def _scalars_to(self, K: int) -> List[Tuple[int, int]]:
        """scalar_0..scalar_K (at least) as reduced (numerator, denominator)."""
        s = self.spec
        gn, gd = s.gamma_arg.as_integer_ratio()
        scalars = self._scalars
        while len(scalars) <= K:
            k = len(scalars)
            sn, sd = scalars[-1]
            sn, sd = sn * (gn + (k - 1) * gd), sd * gd * s.base * k
            g = math.gcd(sn, sd)
            scalars.append((sn // g, sd // g))
        return scalars

    def _moves_out_of(self, weight: int):
        if weight not in self._moves:
            self._moves[weight] = _pieri_moves(weight, self.spec.beta, self.spec.nvars)
        return self._moves[weight]

    def collapse(self, K: int) -> Tuple[int, List[int], List[Tuple[int, int]]]:
        """(D, N, last) of the table at K: N_j = D sum_{k+t=j} c[k,t] and the
        (t, D c[K,t]) of row K's nonzero cells, over the least D that makes
        them all integers (one gcd takes out what the D at hand shares with
        every N_j and row K).

        With one inner variable c[k,t] = s_k a_t l_(k+t), so with s_k =
        S_k/sigma, a_t = A_t/alpha and l_w = L_w/lambda (`_sequences`), D =
        sigma alpha lambda, N_j = L_j sum_{k+t=j} S_k A_t, one convolution of
        integer sequences, and row K is (t, S_K A_t L_(K+t)): no cell is
        formed and no gcd, lcm or Fraction is taken per cell.  Otherwise the
        largest table below K gives its own collapse, rescaled once to the
        new D, and the rows above it are added cell by cell.
        """
        if self.spec.nvars == 1:
            S, A, L, D = self._sequences(K)
            nums = [0] * len(L)
            for t, a in enumerate(A):
                if a:
                    for j, v in enumerate(S, t):
                        nums[j] += v * a
            nums = [ell * v for ell, v in zip(L, nums)]
            nums += [0] * (K + self.spec.t_max + 1 - len(nums))
            last = [(t, S[K] * a * L[K + t]) for t, a in enumerate(A) if a]
        else:
            self.extend(K)
            below = [k for k in self.tables if k < K]
            start, d, nums = 0, 1, []
            if below:
                prev = self.tables[max(below)]
                start, d, nums = prev.K + 1, prev._denominator, prev._nums
            rows = self.rows[start:K + 1]
            D = math.lcm(d, *(den for row in rows for _, den in row.values()))
            nums = [v * (D // d) for v in nums]
            nums += [0] * (K + self.spec.t_max + 1 - len(nums))
            for k, row in enumerate(rows, start):
                for t, (v, den) in row.items():
                    nums[k + t] += v * (D // den)
            last = [(t, v * (D // den)) for t, (v, den) in self.rows[K].items()]
        g = math.gcd(D, *nums, *(v for _, v in last))
        if g > 1:
            D, nums, last = D // g, [v // g for v in nums], [(t, v // g) for t, v in last]
        return D, nums, last

    def last_column(self, K: int) -> Tuple[int, int]:
        """sum_{k<=K} c[k,t_max] as (numerator, denominator), from the rows."""
        t = self.spec.t_max
        self.extend(K)
        nums, den = _over_lcm([row[t] for row in self.rows[:K + 1] if t in row])
        return sum(nums), den

    def _sequences(self, K: int) -> Tuple[List[int], List[int], List[int], int]:
        """(S, A, L, sigma alpha lambda) for one inner variable: s_k =
        scalar_k = S_k/sigma for k <= K, a_t = u_{0,t}/t! = A_t/alpha for t up
        to the last vector (0 where a t has none) and l_w = L_0 at weight w
        = L_w/lambda for w up to K plus that t, each over its least common
        denominator."""
        S, sigma = _over_lcm(self._scalars_to(K)[:K + 1])
        terms = [(0, 1)] * (self._vectors[-1][0] + 1)
        for t, (u,), den in self._vectors:
            terms[t] = (u, den * self._factorials[t])
        A, alpha = _over_lcm(terms)
        top = K + len(A) - 1
        self._ell.at(top)
        L, lam = _over_lcm([(ell, den) for (ell,), den in self._ell.levels[:top + 1]])
        return S, A, L, sigma * alpha * lam


class _Cells(Mapping):
    """{(k, t): c[k,t]} over the rows k <= K of a build, zeros left out: a
    read-only view that makes each Fraction when it is read, so a table
    keeps no copy of its cells.  The rows are the build's own; where none
    is made yet (n = 2, see `_ForwardBuild`), the first read makes them
    with `_ForwardBuild.extend`."""

    def __init__(self, build: _ForwardBuild, K: int):
        self._build, self._K = build, K
        self._view: Optional[List[Dict[int, Tuple[int, int]]]] = None

    @property
    def _rows(self) -> List[Dict[int, Tuple[int, int]]]:
        if self._view is None:
            self._build.extend(self._K)
            self._view = self._build.rows[:self._K + 1]
        return self._view

    def __getitem__(self, key):
        k, t = key
        if 0 <= k < len(self._rows) and t in self._rows[k]:
            return Fraction(*self._rows[k][t])
        raise KeyError(key)

    def __iter__(self):
        return ((k, t) for k, row in enumerate(self._rows) for t in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows))


class SeriesTable:
    """Exact coefficients of one truncated series plus its scaling constant.

    The cumulative distribution is   const * sum_{k,t} c[k,t] * x^(rho+k+t),
    the density is the term-by-term derivative, and the h-th moment is
    const * sum c[k,t] * (rho+k+t)/(rho+k+t+h).  The c[k,t] are the rows k
    <= K of `build`, which `coeffs` shows as {(k, t): Fraction}; at n = 2
    they are made on its first read, or for the last-column monitor below
    where it runs.  Past c[k,t], every term depends on k+t only,
    so `collapsed`, the polynomials and the moments read only the build's
    integer collapse of the cells by power j = k+t, over the least common
    denominator D (see `_ForwardBuild.collapse`).  `diagnostics` holds K,
    t_max, the mass and the relative last K increment, and, where the inner
    series does not end by t_max, the last column's share of the mass; both
    monitors enter `converged`, and both are estimates, not bounds.
    """

    def __init__(self, build: _ForwardBuild, K: int):
        self.build = build
        self.K = K
        self.const = build.const
        self.rho = build.spec.rho
        self._denominator, self._nums, self._last_row = build.collapse(K)
        self.coeffs = _Cells(build, K)
        self._collapsed: Optional[List[Fraction]] = None
        self._polys: Dict[bool, _Poly] = {}
        # the lazy Taylor centres: integer shifts by r, float centres by
        # (derivative, r)
        self._shifts: Dict[int, List[int]] = {}
        self._centres: Dict[Tuple[bool, int], Optional[_Centre]] = {}
        self._warned = False
        self._moments: Dict[int, Tuple[int, int, float]] = {}
        mass, rel_last = self._moment_with_monitor(0)
        self.diagnostics = {
            "K": K,
            "t_max": build.spec.t_max,
            "last_increment_rel": rel_last if K else float("inf"),
            "mass": mass,
        }
        if not build.terminates:
            num, den = build.last_column(K)
            total, total_den, _ = self._moment_sums(0)
            self.diagnostics["last_column_rel"] = (
                abs(num * total_den / (den * total)) if total else float("inf"))

    # -- diagnostics ---------------------------------------------------------

    @property
    def converged(self) -> bool:
        d = self.diagnostics
        return (d["last_increment_rel"] < MONITOR_TOLERANCE
                and d.get("last_column_rel", 0.0) < MONITOR_TOLERANCE)

    def _warn_if_unconverged(self) -> None:
        """Warns once per table, naming each monitor that fails; every public
        method that reads values calls this itself, so that stacklevel=3
        names its caller's line."""
        if not self.converged and not self._warned:
            self._warned = True
            d, signs = self.diagnostics, []
            if not d["last_increment_rel"] < MONITOR_TOLERANCE:
                signs.append(f"relative last increment {d['last_increment_rel']:.2e}")
            if not d.get("last_column_rel", 0.0) < MONITOR_TOLERANCE:
                signs.append(f"last column t={d['t_max']} at {d['last_column_rel']:.2e} "
                             "of the mass")
            warnings.warn(
                f"series truncation K={self.K} shows {' and '.join(signs)}; "
                "results may be off", TruncationWarning, stacklevel=3)

    # -- evaluation ----------------------------------------------------------

    def collapsed(self) -> List[Fraction]:
        """Coefficient of x^(rho+j) for j = 0..K+t_max, exactly."""
        if self._collapsed is None:
            self._collapsed = [Fraction(n, self._denominator) for n in self._nums]
        return self._collapsed

    def _polynomial(self, derivative: bool) -> _Poly:
        """The cdf, or with derivative the pdf, as x^power * sum_j a_j x^j, once
        per table, as a `_Poly`: the float coefficients of `_horner` with
        const folded into the a_j (None when they overflow), and the a_j /
        const as integer numerators over the common denominator times
        2^_GUARD, as `_exact_value` takes them."""
        if derivative not in self._polys:
            nums, power = self._nums, self.rho
            if derivative:
                nums = [n * (self.rho + j) for j, n in enumerate(nums)]
                power -= 1
            # every running sum of `_horner` at 0 <= x <= 1 is at most sum_j |a_j|,
            # so none overflows while that sum is finite
            try:
                coeffs = [_scaled_float(n, self._denominator, self.const) for n in reversed(nums)]
                if not math.isfinite(sum(map(abs, coeffs))):
                    coeffs = None
            except OverflowError:  # a coefficient beyond float range
                coeffs = None
            self._polys[derivative] = _Poly.of(power, coeffs, [n << _GUARD for n in nums])
        return self._polys[derivative]

    def _eval_exact(self, x: Fraction, derivative: bool) -> float:
        """The cdf, or with derivative the pdf, at a float x given as a
        Fraction, by `_exact_value`: x^power * sum_j N_j x^j / D correctly
        rounded, times the constant q c.  Its fixed-point Horner
        keeps s within len(N) + 1 of 2^G times that sum and grows the guard
        bits G until the rounding is decided."""
        poly = self._polynomial(derivative)
        return _exact_value(poly.shifted, self._denominator, x, poly.power, self.const)

    def _centre(self, derivative: bool, r: int) -> Optional[_Centre]:
        """The `_Centre` at r/_CENTRES, built on first use: one integer Taylor
        shift per r serves the cdf and the pdf."""
        key = (derivative, r)
        if key not in self._centres:
            if r not in self._shifts:
                # Q(x) = x^rho sum_j N_j x^j of degree D, as M_i = Q_i 8^(D-i)
                D = self.rho + len(self._nums) - 1
                scaled = [0] * self.rho + [n << _CENTRE_BITS * (D - self.rho - j)
                                           for j, n in enumerate(self._nums)]
                self._shifts[r] = _taylor_shift(scaled, r)
            self._centres[key] = _build_centre(self._shifts[r], self._denominator,
                                               r, derivative, self.const)
        return self._centres[key]

    def _has_centre(self, derivative: bool, r: int) -> bool:
        return self._centres.get((derivative, r)) is not None

    def _head(self, derivative: bool, r: int, x):
        """(value, bound, accepted) of centre r's head at a float or an array
        x whose nearest centre is r, building the centre on first use, or None
        where it is beyond float range."""
        centre = self._centre(derivative, r)
        if centre is None:
            return None
        value = _horner_value(centre.head, x - centre.at)
        return value, centre.bound, centre.bound <= _ACCEPT * abs(value)

    def _bounded(self, x: float, derivative: bool) -> Tuple[float, float]:
        """(value, bound): the cdf or pdf at a float x and a bound on its
        distance from `_eval_exact`.  A point whose nearest centre r exists
        goes straight to its head; then come centre 0, the head of r if it
        was not tried (building it; none for r = 0, x <= 1/16) and
        `_eval_exact` (bound 0.0), the first step whose bound is <= _ACCEPT
        |value| giving the value."""
        if x == 0:
            return 0.0, 0.0
        # the dict first, and the centres only once one exists: calling
        # `_polynomial` and looking up a centre on every point added 0.4 us
        # to a 4.5 us cdf at (10,3,1,K=50), a table that builds no centre
        poly = self._polys.get(derivative) or self._polynomial(derivative)
        if poly.coeffs is not None:
            if self._centres:
                r = round(x * _CENTRES)
                if self._has_centre(derivative, r):
                    value, bound, ok = self._head(derivative, r, x)
                    if ok:
                        return value, bound
            value, bound, ok = _horner(poly, x)
            if ok:
                return value, bound
            r = round(x * _CENTRES)
            if r and not self._has_centre(derivative, r):
                got = self._head(derivative, r, x)
                if got is not None and got[2]:
                    return got[:2]
        return self._eval_exact(Fraction(x), derivative), 0.0

    def _evaluate(self, x: float, derivative: bool) -> float:
        return self._bounded(x, derivative)[0]

    def _bounded_many(self, flat: np.ndarray, derivative: bool):
        """`_bounded` over a 1-D array: centre 0 runs on every point, in
        blocks (`_horner`), the points it rejects build their nearest
        centres, and then every point whose nearest centre exists tries its
        head, one numpy Horner per centre, as `_bounded` does once those
        centres exist.  So the
        (value, bound) pairs are bitwise those `_bounded` gives after the
        call."""
        import numpy as np
        poly = self._polynomial(derivative)
        if poly.coeffs is None:
            value, bound = np.zeros_like(flat), np.zeros_like(flat)
            todo = range(flat.size)
        else:
            value, bound, ok = _horner(poly, flat)
            todo = np.flatnonzero(~ok)
            if todo.size or self._centres:
                todo = self._centres_many(flat, todo, derivative, value, bound)
        for i in todo:
            value[i] = self._eval_exact(Fraction(float(flat[i])), derivative)
            bound[i] = 0.0
        return value, bound

    def _centres_many(self, flat, todo, derivative: bool, value, bound):
        """The centres' part of `_bounded_many`, given centre 0's (value,
        bound) in place and the points todo it rejected; returns the points
        left for `_eval_exact`."""
        import numpy as np
        zero = flat[todo] == 0
        value[todo[zero]] = bound[todo[zero]] = 0.0
        todo = todo[~zero]
        near = np.rint(flat[todo] * _CENTRES).astype(np.intp)
        # sets, not np.unique: its first call in a process costs about 18 ms
        for r in set(near[near > 0].tolist()):
            self._centre(derivative, r)
        rejected = np.zeros(flat.size, dtype=bool)
        rejected[todo] = True
        centres = [r for r in range(1, _CENTRES + 1) if self._has_centre(derivative, r)]
        if centres:
            late = np.flatnonzero(flat >= (2 * centres[0] - 1) / (2 * _CENTRES))
            near = np.rint(flat[late] * _CENTRES).astype(np.intp)
            for r in centres:
                at = late[near == r]
                v, b, accept = self._head(derivative, r, flat[at])
                value[at[accept]] = v[accept]
                bound[at[accept]] = b
                rejected[at[accept]] = False
        return np.flatnonzero(rejected)

    def cdf(self, x: float) -> float:
        if not (0 <= x <= 1):
            raise ValueError("x must lie in [0, 1]")
        self._warn_if_unconverged()
        return self._bounded(float(x), False)[0]

    def pdf(self, x: float) -> float:
        if not (0 < x < 1):
            raise ValueError("x must lie in (0, 1)")
        self._warn_if_unconverged()
        return self._bounded(float(x), True)[0]

    def cdf_many(self, xs) -> np.ndarray:
        """Vectorized cdf over an array: bitwise the values of `cdf`."""
        import numpy as np
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return xs.copy()
        if not np.all((xs >= 0) & (xs <= 1)):
            raise ValueError("x must lie in [0, 1]")
        self._warn_if_unconverged()
        return self._bounded_many(xs.ravel(), False)[0].reshape(xs.shape)

    def mass(self) -> float:
        """Total mass of the truncated series: the cdf at 1."""
        value = self._moment_with_monitor(0)[0]
        self._warn_if_unconverged()
        return value

    def moment(self, h: int) -> float:
        value = self._moment_with_monitor(h)[0]
        self._warn_if_unconverged()
        return value

    def moment_monitor(self, h: int) -> float:
        """The last K increment of E[X^h] relative to the total."""
        return self._moment_sums(h)[2]

    def _moment_with_monitor(self, h: int) -> Tuple[float, float]:
        """E[X^h] and its last K increment relative to the total."""
        total, den, rel_last = self._moment_sums(h)
        return (_scaled_float(total, den, self.const) if total else 0.0), rel_last

    def _moment_sums(self, h: int) -> Tuple[int, int, float]:
        """(T, B, r), once per h: E[X^h] = const * T / B exactly, and r is its
        last K increment relative to the total."""
        h, = _check_integers(h=h)
        if h < 0:
            raise ValueError("moment order must be a nonnegative integer")
        if h not in self._moments:
            # e/(e+h) with e = rho+k+t depends on j = k+t only, so the total is
            # sum_j N_j w_j / (D L) over the powers, with L the lcm of the reduced
            # denominators of e/(e+h) and w_j = L e/(e+h); the last K increment
            # is the same sum over row K
            es = range(self.rho, self.rho + len(self._nums))
            lcm = math.lcm(*((e + h) // math.gcd(e, h) for e in es))
            weights = [e * lcm // (e + h) for e in es]
            total = sum(n * w for n, w in zip(self._nums, weights))
            increment = sum(v * weights[self.K + t] for t, v in self._last_row)
            self._moments[h] = (total, self._denominator * lcm,
                                abs(increment / total) if total else float("inf"))
        return self._moments[h]

    def quantile(self, alpha: float) -> float:
        if not (0 < alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        self._warn_if_unconverged()
        top = self._moment_with_monitor(0)[0]
        if alpha >= top:
            raise TruncationError(
                f"cannot invert at alpha={alpha}: truncated mass is only {top:.6f}; "
                "increase K")
        seen: List[Tuple[float, float]] = [(0.0, 0.0), (1.0, top)]
        lo, hi = 0.0, 1.0
        value = None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f = self._evaluate(mid, derivative=False)
            seen.append((mid, f))
            if abs(f - alpha) <= _QUANTILE_TOLERANCE:
                value = mid
                break
            if f < alpha:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                value = mid
                break
        seen.sort()
        for (x0, f0), (x1, f1) in zip(seen, seen[1:]):
            if f1 < f0 - 1e-9:
                raise TruncationError(
                    f"truncated cdf decreases between x={x0:.6f} and x={x1:.6f}; "
                    "increase K")
        if value is None or abs(f - alpha) > _QUANTILE_TOLERANCE:
            raise TruncationError(
                f"quantile search did not reach |cdf - alpha| <= {_QUANTILE_TOLERANCE}")
        return value

    def summary_stats(self) -> Dict[str, float]:
        """Mean, variance, skewness and (non-excess) kurtosis of the statistic.

        The raw moments are const T_h / B_h exactly (see `_moment_sums`),
        with const = q c at the exact value of the float c.  Over one
        denominator b they are a_h / b, so the central moments are integers
        over powers of b: variance v/b^2, mu3 m3/b^3, mu4 m4/b^4.  Mean,
        variance and kurtosis m4/v^2 are each one correctly rounded int
        division; skewness is the square root of the correctly rounded
        m3^2/v^3, with the sign of m3.
        """
        sums = []
        for h in (1, 2, 3, 4):
            total, den, rel_last = self._moment_sums(h)
            if rel_last >= MONITOR_TOLERANCE:
                raise TruncationError(
                    f"moment {h} unconverged at K={self.K}: last increment "
                    f"{rel_last:.2e} of the total; increase K")
            sums.append((total, den))
        c_num, c_den = self.const.c.as_integer_ratio()
        scale = self.const.q.numerator * c_num
        common = math.lcm(*(den for _, den in sums))
        a1, a2, a3, a4 = (scale * total * (common // den) for total, den in sums)
        b = self.const.q.denominator * c_den * common
        v = a2 * b - a1 * a1
        if v <= 0:
            raise TruncationError("nonpositive variance from truncated moments")
        m3 = (a3 * b - 3 * a1 * a2) * b + 2 * a1 ** 3
        m4 = ((a4 * b - 4 * a1 * a3) * b + 6 * a1 * a1 * a2) * b - 3 * a1 ** 4
        skewness = math.sqrt(m3 * m3 / v ** 3)
        return {
            "mean": a1 / b,
            "variance": v / (b * b),
            "skewness": skewness if m3 >= 0 else -skewness,
            "kurtosis": m4 / (v * v),
        }


# the one forward build of each (m, n, beta, t_max), which owns its tables
_BUILDS: Dict[Tuple[int, int, int, int], _ForwardBuild] = {}


def _table(m: int, n: int, beta: int, K: int, t_max: Optional[int]) -> SeriesTable:
    key = (m, n, beta, _resolve_t_max(m, n, beta, t_max))
    build = _BUILDS.get(key)
    if build is None:
        build = _BUILDS[key] = _ForwardBuild(*key)
    table = build.tables.get(K)
    if table is None:
        table = build.tables[K] = SeriesTable(build, K)
    return table


def get_table(params: DistParams) -> SeriesTable:
    """The cached series table for one parameter set (built on first use)."""
    return _table(params.m, params.n, params.beta, params.resolved_K, params.t_max)


def get_general_table(n1: int, n2: int, K: int, t_max: Optional[int] = None) -> SeriesTable:
    """Series table for the real-case formulation valid for any n1 <= n2."""
    n1, n2 = _check_integers(n1=n1, n2=n2)
    if K is None:
        raise ValueError("K must be an integer, got None")
    K, t_max = _check_orders(K, t_max)
    if not (2 <= n1 <= n2):
        raise ValueError("need 2 <= n1 <= n2")
    return _table(n2, n1, 1, K, t_max)


def auto_converged_params(m: int, n: int, beta: int = 1, moments: int = 0) -> DistParams:
    """Smallest K, doubling from the default up to `_K_BUDGET`, whose series
    passes the convergence monitor; TruncationError if none up to it does.

    With moments > 0 the monitor must also pass for each moment order up to
    that bound (the h-weighted tails decay slightly slower than the mass).
    """
    moments, = _check_integers(moments=moments)
    if moments < 0:
        raise ValueError("moments must be nonnegative")
    K = DistParams(m=m, n=n, beta=beta).resolved_K
    while True:
        params = DistParams(m=m, n=n, beta=beta, K=K)
        table = get_table(params)
        ok = table.converged
        for h in range(1, moments + 1):
            if not ok:
                break
            ok = table.moment_monitor(h) < MONITOR_TOLERANCE
        if ok:
            return params
        if K >= _K_BUDGET:
            raise TruncationError(f"no convergence by K={K} for m={m}, n={n}, beta={beta}")
        K = min(2 * K, _K_BUDGET)
