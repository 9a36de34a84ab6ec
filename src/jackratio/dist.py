"""Distribution of x = 1 - l_min/l_max for a singular beta-Wishart matrix.

An m x n data matrix (m > n) with standard real (beta = 1), complex
(beta = 2) or quaternion (beta = 4) Gaussian entries has a rank-n Gram
spectrum l_1 >= ... >= l_n > 0.  The cumulative distribution of
x = 1 - l_n/l_1 admits a series whose terms are indexed by partition
triples (kappa, tau, delta) in at most n-1 parts, with coefficients built
from Jack polynomial linearization numbers, generalized Pochhammer symbols,
and values of Jack polynomials at the identity.  The kappa sum only ever
enters as (x_1 + ... + x_{n-1})^k C_tau, so the linearization numbers are
never formed one by one: the tables apply the closed-form Pieri rule k
times to the delta functional instead (see SeriesTable._build).

Everything inside the double series is an exact rational; the only
transcendental content is one leading constant (gamma functions and a
power of pi).  The series coefficients are therefore accumulated exactly
and scaled by a single signed-log constant at the very end.  This matters:
for large m the tau sum is an alternating binomial-type sum whose terms
exceed the result by 20+ orders of magnitude, far beyond what double
precision accumulation could survive.  Evaluations use a fast float path
and fall back to exact arithmetic at every point it cannot accept.  The
float path's error estimate is 1e-13 * sum_j |c_j| x^(rho+j), and a value
is accepted when that estimate is <= max(1e-12, 1e-9 |value|).  That
estimate is a rule of thumb, not a derived rounding bound (see `_horner`).

The exact passes run over Python ints.  Each table keeps one common
denominator D, the lcm of the denominators of its c[k,t], and works on the
integer numerators c * D.  The exact fallback writes the float x as p/2^e,
sums the numerators by Horner with shifts for the powers of 2^e, and puts
the result in lowest terms with one gcd against D and a count of trailing
zero bits before the final log (see `_exact_ratio`); only that log rounds.
Its cost grows with the number of powers and the bit size of the
numerators: about 0.15 ms a point at (105,2,1,K=100) with 152 powers on a
2-core Xeon with Python 3.11, where a Fraction per Horner step took about
3 ms.  The moment monitor sums the numerators times e/(e+h), e = rho+k+t,
per k in ints over the lcm of the reduced denominators of e/(e+h), and
makes Fractions only of the last increment and of the total.

The truncation orders: the outer series is cut at K, the inner one at
t_max.  When p = beta*(m - n + 1)/2 - 1 is a nonnegative integer the inner
sum is finite by itself (Pochhammer factors vanish for tau_1 > p) and
t_max defaults to p*(n-1); otherwise t_max must be supplied.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .partitions import partitions_of
from .special import (
    SignedLogValue,
    gen_pochhammer_exact,
    jack_at_identity,
    log_fraction,
    log_multivariate_gamma,
    pi_exponent,
    pieri_coefficients,
    rising_factorial,
)

MONITOR_TOLERANCE = 1e-10


class TruncationWarning(UserWarning):
    """The truncated series shows no numerical sign of having converged."""


class TruncationError(RuntimeError):
    """The requested quantity needs a larger truncation order."""


@dataclass(frozen=True)
class DistParams:
    """Parameters of the singular-case distribution evaluator.

    m, n   : data matrix shape, m > n >= 2 (so the Wishart matrix is singular)
    beta   : 1, 2 or 4
    K      : outer truncation order; defaults to 25 for beta=1, 40 otherwise
    t_max  : inner truncation order; defaults to the natural finite bound
    """
    m: int
    n: int
    beta: int = 1
    K: Optional[int] = None
    t_max: Optional[int] = None

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise ValueError("beta must be 1, 2 or 4")
        if not (self.m > self.n >= 2):
            raise ValueError("need m > n >= 2")
        if self.K is not None and self.K < 0:
            raise ValueError("K must be nonnegative")
        if self.t_max is not None and self.t_max < 0:
            raise ValueError("t_max must be nonnegative")

    @property
    def p(self) -> Fraction:
        """Vanishing threshold of the tau Pochhammer factor."""
        return _threshold(self.m, self.n, self.beta)

    @property
    def resolved_K(self) -> int:
        if self.K is not None:
            return self.K
        return 25 if self.beta == 1 else 40

    @property
    def resolved_t_max(self) -> int:
        return _resolve_t_max(self.m, self.n, self.beta, self.t_max)


def _threshold(m: int, n: int, beta: int) -> Fraction:
    return Fraction(beta * (m - n + 1), 2) - 1


def _resolve_t_max(m: int, n: int, beta: int, t_max: Optional[int]) -> int:
    """t_max itself, or the order at which the inner sum terminates by itself."""
    if t_max is not None:
        return t_max
    p = _threshold(m, n, beta)
    if p.denominator == 1 and p >= 0:
        return int(p) * (n - 1)
    raise ValueError(
        "t_max has no finite default here (the inner series does not terminate); "
        "pass t_max explicitly")


@dataclass(frozen=True)
class _SeriesSpec:
    """Raw ingredients of one truncated series."""
    nvars: int
    beta: Fraction
    a_tau: Fraction
    a_num: Fraction
    a_den: Fraction
    rho: int
    gamma_arg: Fraction
    base: int
    K: int
    t_max: int


def _spec(m: int, n: int, beta: int, K: int, t_max: Optional[int]) -> _SeriesSpec:
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
        K=K,
        t_max=_resolve_t_max(m, n, beta, t_max),
    )


def _spec_for(params: DistParams) -> _SeriesSpec:
    return _spec(params.m, params.n, params.beta, params.resolved_K, params.t_max)


def _constant(m: int, n: int, beta: int) -> SignedLogValue:
    b = Fraction(beta)
    out = log_multivariate_gamma(b, n - 1, Fraction(n) * b / 2 + 1)
    out = out * log_multivariate_gamma(b, n - 1, Fraction(n - 2) * b / 2 + 1)
    out = out.scale_log(float(pi_exponent("r", b, n)) * math.log(math.pi))
    out = out / log_multivariate_gamma(b, n - 1, Fraction(n - 1) * b + 2)
    out = out.scale_log(-float(Fraction(m * n) * b / 2) * math.log(n))
    out = out / SignedLogValue(1, math.lgamma(float(Fraction(n) * b / 2)))
    out = out / log_multivariate_gamma(b, n, Fraction(m) * b / 2)
    return out


def leading_constant(params: DistParams) -> SignedLogValue:
    """The closed-form constant multiplying the whole series (positive)."""
    return _constant(params.m, params.n, params.beta)


def _horner(terms: Sequence[Tuple[float, float]], x, power: int):
    """x^power * sum_j c_j x^j in floats, and whether that value is accepted.

    terms holds the pairs (c_j, |c_j|) from the highest power down.  x is a
    float or a numpy array; the arithmetic is the same for both.  The error
    estimate is 1e-13 * sum_j |c_j| x^(power+j), and the value is accepted
    when the estimate is <= max(1e-12, 1e-9 |value|).  The factor 1e-13 is
    not derived from a rounding analysis: it ignores the length of the sum
    and the rounding of the coefficients themselves.  For an array the steps
    update s and a in place, so the loop allocates no temporaries.
    """
    s = 0.0
    a = 0.0
    for c, abs_c in terms:
        s *= x
        s += c
        a *= x
        a += abs_c
    xp = x ** power
    value = s * xp
    err = a * 1e-13 * xp
    return value, (err <= 1e-12) | (err <= 1e-9 * abs(value))


def _exact_ratio(nums: Sequence[int], denominator: int, x: Fraction,
                 power: int) -> Tuple[int, int]:
    """x^power * sum_j nums[j] x^j / denominator exactly, as (num, den) in
    lowest terms with den > 0.

    With x = p/q and deg = len(nums) - 1 the value is
    p^power * S / (denominator * q^(deg+power)), where
    S = sum_j nums[j] p^j q^(deg-j) is summed by Horner over Python ints.
    For a float x, q is a power of two, so the powers of q are shifts and
    the final reduction costs one gcd with the (small) denominator plus a
    count of trailing zero bits; no big-by-big gcd is taken.
    """
    p, q = x.numerator, x.denominator
    k = len(nums) - 1 + power
    dyadic = not q & (q - 1)
    s = 0
    if dyadic:
        e = q.bit_length() - 1
        for i, c in enumerate(reversed(nums)):
            s = s * p + (c << e * i)
    else:
        qi = 1
        for c in reversed(nums):
            s = s * p + c * qi
            qi *= q
    num = s * p ** power
    if num == 0:
        return 0, 1
    g = math.gcd(num, denominator)
    num //= g
    den = denominator // g
    # num is now prime to den, so only q^k can share a factor with it
    if dyadic:
        shift = min((num & -num).bit_length() - 1, e * k)
        return num >> shift, den << (e * k - shift)
    g = math.gcd(num, q ** k)
    return num // g, den * (q ** k // g)


class SeriesTable:
    """Exact coefficients of one truncated series plus its scaling constant.

    The cumulative distribution is   const * sum_{k,t} c[k,t] * x^(rho+k+t),
    the density is the term-by-term derivative, and the h-th moment is
    const * sum c[k,t] * (rho+k+t)/(rho+k+t+h).  All c[k,t] are Fractions.
    """

    def __init__(self, spec: _SeriesSpec, const: SignedLogValue):
        self.spec = spec
        self.const = const
        self.rho = spec.rho
        self.coeffs: Dict[Tuple[int, int], Fraction] = {}
        self._build()
        # one common denominator D of every c[k,t]: the exact passes run over
        # the integer numerators c[k,t] * D
        self._denominator = math.lcm(*(c.denominator for c in self.coeffs.values()))
        self._collapsed: Optional[List[Fraction]] = None
        self._polys: Dict[bool, tuple] = {}
        self._warned = False
        self._moments: Dict[int, Tuple[float, float]] = {}
        mass, rel_last = self._moment_with_monitor(0)
        self.diagnostics = {
            "K": float(spec.K),
            "t_max": float(spec.t_max),
            "last_increment_rel": rel_last if spec.K else float("inf"),
            "mass": mass,
        }

    # -- assembly -----------------------------------------------------------

    def _build(self) -> None:
        """c[k,t] = scalar_k / t! * sum_{|tau|=t} [a_tau]_tau L_k(tau), where

            L_0(delta) = [a_num]_delta C_delta(I) / [a_den]_delta
            L_{k+1}(lam) = sum_mu pieri(lam -> mu) L_k(mu)

        so L_k(tau) is L_0 applied to the expansion of p_1^k C_tau.  L_k is
        needed up to weight K + t_max - k only.
        """
        s = self.spec
        top = s.K + s.t_max
        by_weight = [partitions_of(w, s.nvars) for w in range(top + 1)]
        level = {delta: gen_pochhammer_exact(s.a_num, delta, s.beta) *
                 jack_at_identity(delta, s.beta, s.nvars) /
                 gen_pochhammer_exact(s.a_den, delta, s.beta)
                 for parts in by_weight for delta in parts}
        moves = {lam: pieri_coefficients(lam, s.beta, s.nvars)
                 for parts in by_weight[:top] for lam in parts}
        tau_terms = [[(tau, v) for tau in by_weight[t]
                      if (v := gen_pochhammer_exact(s.a_tau, tau, s.beta))]
                     for t in range(s.t_max + 1)]
        for k in range(s.K + 1):
            if k:
                level = {lam: sum((c * level[mu] for mu, c in moves[lam].items()), Fraction(0))
                         for parts in by_weight[:top - k + 1] for lam in parts}
            scalar_k = rising_factorial(s.gamma_arg, k) / (Fraction(s.base) ** k * factorial(k))
            for t, terms in enumerate(tau_terms):
                cell = sum((v * level[tau] for tau, v in terms), Fraction(0))
                if cell:
                    self.coeffs[(k, t)] = cell * (scalar_k / factorial(t))

    # -- diagnostics ---------------------------------------------------------

    @property
    def converged(self) -> bool:
        return self.diagnostics["last_increment_rel"] < MONITOR_TOLERANCE

    def _warn_if_unconverged(self) -> None:
        if not self.converged and not self._warned:
            self._warned = True
            warnings.warn(
                f"series truncation K={self.spec.K} shows relative last increment "
                f"{self.diagnostics['last_increment_rel']:.2e}; results may be off",
                TruncationWarning, stacklevel=3)

    # -- evaluation ----------------------------------------------------------

    def collapsed(self) -> List[Fraction]:
        """Coefficient of x^(rho+j) for j = 0..K+t_max, exactly."""
        if self._collapsed is None:
            out = [Fraction(0)] * (self.spec.K + self.spec.t_max + 1)
            for (k, t), c in self.coeffs.items():
                out[k + t] += c
            self._collapsed = out
        return self._collapsed

    def _polynomial(self, derivative: bool):
        """The cdf, or with derivative the pdf, as x^power * sum_j a_j x^j, once
        per table: (power, the Horner terms of `_horner` with const folded into
        the a_j, or None when one overflows, and the a_j / const as integer
        numerators over the common denominator)."""
        if derivative not in self._polys:
            coeffs = self.collapsed()
            nums = [c.numerator * (self._denominator // c.denominator) for c in coeffs]
            floats = []
            for c in coeffs:
                slv = log_fraction(c) * self.const
                if slv.sign and slv.log_abs > 700:
                    floats = None
                    break
                floats.append(slv.to_float())
            power = self.rho
            if derivative:
                nums = [n * (self.rho + j) for j, n in enumerate(nums)]
                if floats is not None:
                    floats = [c * (self.rho + j) for j, c in enumerate(floats)]
                power -= 1
            terms = None if floats is None else [(c, abs(c)) for c in reversed(floats)]
            self._polys[derivative] = power, terms, nums
        return self._polys[derivative]

    def _eval_exact(self, x: Fraction, derivative: bool) -> float:
        power, _, nums = self._polynomial(derivative)
        num, den = _exact_ratio(nums, self._denominator, x, power)
        return (SignedLogValue.from_ratio(num, den) * self.const).to_float()

    def _evaluate(self, x: float, derivative: bool) -> float:
        if x == 0:
            return 0.0
        power, terms, _ = self._polynomial(derivative)
        if terms is not None:
            value, ok = _horner(terms, x, power)
            if ok:
                return value
        return self._eval_exact(Fraction(x), derivative)

    def cdf(self, x: float) -> float:
        if not (0 <= x <= 1):
            raise ValueError("x must lie in [0, 1]")
        self._warn_if_unconverged()
        return self._evaluate(float(x), derivative=False)

    def pdf(self, x: float) -> float:
        if not (0 < x < 1):
            raise ValueError("x must lie in (0, 1)")
        self._warn_if_unconverged()
        return self._evaluate(float(x), derivative=True)

    def cdf_many(self, xs) -> "np.ndarray":
        """Vectorized cdf over an array, exact-rational fallback pointwise."""
        import numpy as np
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return xs.copy()
        if not np.all((xs >= 0) & (xs <= 1)):
            raise ValueError("x must lie in [0, 1]")
        self._warn_if_unconverged()
        flat = xs.ravel()
        _, terms, _ = self._polynomial(False)
        if terms is None:
            value, ok = np.zeros_like(flat), np.zeros(flat.shape, dtype=bool)
        else:
            value, ok = _horner(terms, flat, self.rho)
        for i in np.flatnonzero(~ok):
            value[i] = self._eval_exact(Fraction(float(flat[i])), False)
        return value.reshape(xs.shape)

    def mass(self) -> float:
        """Total mass of the truncated series: the cdf at 1."""
        return self.moment(0)

    def moment(self, h: int) -> float:
        value = self._moment_with_monitor(h)[0]
        self._warn_if_unconverged()
        return value

    def _moment_with_monitor(self, h: int) -> Tuple[float, float]:
        """E[X^h] and its last K increment relative to the total, once per h."""
        if not isinstance(h, numbers.Integral) or h < 0:
            raise ValueError("moment order must be a nonnegative integer")
        if h not in self._moments:
            # c[k,t] e/(e+h) = (c[k,t] D) w[k+t] / (D L), with e = rho+k+t and
            # L the lcm of the reduced denominators of e/(e+h): the sums are ints
            d = self._denominator
            ratios = [Fraction(self.rho + j, self.rho + j + h)
                      for j in range(self.spec.K + self.spec.t_max + 1)]
            lcm = math.lcm(*(r.denominator for r in ratios))
            weights = [r.numerator * (lcm // r.denominator) for r in ratios]
            increments = [0] * (self.spec.K + 1)
            for (k, t), c in self.coeffs.items():
                increments[k] += c.numerator * (d // c.denominator) * weights[k + t]
            total = sum(increments)
            if total == 0:
                self._moments[h] = 0.0, float("inf")
            else:
                den = d * lcm
                last = log_fraction(Fraction(increments[self.spec.K], den))
                total_log = log_fraction(Fraction(total, den))
                rel_last = (0.0 if last.is_zero()
                            else math.exp(last.log_abs - total_log.log_abs))
                self._moments[h] = (total_log * self.const).to_float(), rel_last
        return self._moments[h]

    def quantile(self, alpha: float, tol: float = 1e-8) -> float:
        if not (0 < alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        top = self.mass()
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
            if abs(f - alpha) <= tol:
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
        if value is None or abs(f - alpha) > tol:
            raise TruncationError(f"quantile search did not reach |cdf - alpha| <= {tol}")
        return value

    def summary_stats(self) -> Dict[str, float]:
        """Mean, variance, skewness and (non-excess) kurtosis of the statistic."""
        raw = []
        for h in (1, 2, 3, 4):
            value, rel_last = self._moment_with_monitor(h)
            if rel_last >= MONITOR_TOLERANCE:
                raise TruncationError(
                    f"moment {h} unconverged at K={self.spec.K}: last increment "
                    f"{rel_last:.2e} of the total; increase K")
            raw.append(value)
        m1, m2, m3, m4 = raw
        var = m2 - m1 * m1
        if var <= 0:
            raise TruncationError("nonpositive variance from truncated moments")
        mu3 = m3 - 3 * m1 * m2 + 2 * m1 ** 3
        mu4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1 ** 4
        return {
            "mean": m1,
            "variance": var,
            "skewness": mu3 / var ** 1.5,
            "kurtosis": mu4 / var ** 2,
        }


_TABLE_CACHE: Dict[_SeriesSpec, SeriesTable] = {}


def _table(m: int, n: int, beta: int, K: int, t_max: Optional[int]) -> SeriesTable:
    spec = _spec(m, n, beta, K, t_max)
    table = _TABLE_CACHE.get(spec)
    if table is None:
        const = _constant(m, n, beta) * SignedLogValue(1, math.lgamma(float(spec.gamma_arg)))
        table = _TABLE_CACHE[spec] = SeriesTable(spec, const)
    return table


def get_table(params: DistParams) -> SeriesTable:
    """The cached series table for one parameter set (built on first use)."""
    return _table(params.m, params.n, params.beta, params.resolved_K, params.t_max)


def get_general_table(n1: int, n2: int, K: int, t_max: Optional[int] = None) -> SeriesTable:
    """Series table for the real-case formulation valid for any n1 <= n2."""
    if not (2 <= n1 <= n2):
        raise ValueError("need 2 <= n1 <= n2")
    return _table(n2, n1, 1, K, t_max)


# -- convenience wrappers ----------------------------------------------------

def cdf_truncated(params: DistParams, x: float) -> float:
    """P(X <= x) under the truncated series."""
    return get_table(params).cdf(x)


def pdf(params: DistParams, x: float) -> float:
    """Density of the statistic at x."""
    return get_table(params).pdf(x)


def moment(params: DistParams, h: int) -> float:
    """E[X^h] under the truncated series (h = 0 gives the total mass)."""
    return get_table(params).moment(h)


def quantile(params: DistParams, alpha: float) -> float:
    """Inverse cdf by bisection, verified monotone along the bracketing path."""
    return get_table(params).quantile(alpha)


def summary_stats(params: DistParams) -> Dict[str, float]:
    """Mean/variance/skewness/kurtosis; raises TruncationError when K is too small."""
    return get_table(params).summary_stats()


def pdf_general_beta1(n1: int, n2: int, K: int, x: float,
                      t_max: Optional[int] = None) -> float:
    """Density in the real case for any shape, including the square one."""
    return get_general_table(n1, n2, K, t_max).pdf(x)


def auto_converged_params(m: int, n: int, beta: int = 1, start_K: Optional[int] = None,
                          max_K: int = 6400, moments: int = 0) -> DistParams:
    """Smallest (doubling) K whose series passes the convergence monitor.

    With moments > 0 the monitor must also pass for each moment order up to
    that bound (the h-weighted tails decay slightly slower than the mass).
    """
    if start_K is not None and start_K < 1:
        raise ValueError("start_K must be at least 1")
    K = start_K if start_K is not None else DistParams(m=m, n=n, beta=beta).resolved_K
    while True:
        params = DistParams(m=m, n=n, beta=beta, K=K)
        table = get_table(params)
        ok = table.converged
        for h in range(1, moments + 1):
            if not ok:
                break
            ok = table._moment_with_monitor(h)[1] < MONITOR_TOLERANCE
        if ok:
            return params
        if K >= max_K:
            raise TruncationError(f"no convergence by K={K} for m={m}, n={n}, beta={beta}")
        K *= 2
