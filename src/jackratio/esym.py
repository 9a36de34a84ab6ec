"""Polynomials in the elementary symmetric basis, and a degree-preserving
second-order differential operator acting on that basis.

E_kappa denotes e_1^(k1-k2) * e_2^(k2-k3) * ... * e_m^(km) for a partition
kappa with at most m parts; these are a basis of the symmetric polynomials
in m variables.  The operator

    sum_i x_i^2 d^2/dx_i^2  +  beta * sum_{i != j} x_i^2/(x_i - x_j) d/dx_i

maps symmetric polynomials to symmetric polynomials of the same degree and
is triangular on the E basis with respect to descending lex order.  Rows of
its matrix are computed symbolically here, via an intermediate expansion in
the monomial basis; the pairwise divided-difference form of the second sum
keeps every intermediate a polynomial.

Caches are plain dicts; CPython's GIL makes the insertions atomic, and a
duplicated concurrent computation just rewrites the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .partitions import Partition, normalize, pad, partitions_of, weight

Monomial = Tuple[int, ...]
MonoPoly = Dict[Monomial, Fraction]


class NotSymmetricError(RuntimeError):
    """Internal consistency failure: an intermediate polynomial was not symmetric."""


# ---------------------------------------------------------------------------
# monomial-basis helpers (private)
# ---------------------------------------------------------------------------

def _mono_mul(p: MonoPoly, q: MonoPoly) -> MonoPoly:
    out: MonoPoly = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _elementary_monomials(m: int) -> Tuple[MonoPoly, ...]:
    """e_0 .. e_m of x_1..x_m as monomial dicts."""
    polys = [dict() for _ in range(m + 1)]
    polys[0][(0,) * m] = 1
    for v in range(m):
        unit = (0,) * v + (1,) + (0,) * (m - v - 1)
        for i in range(min(v + 1, m), 0, -1):
            for mono, c in list(polys[i - 1].items()):
                key = tuple(x + y for x, y in zip(mono, unit))
                polys[i][key] = polys[i].get(key, 0) + c
    return tuple(polys)


@lru_cache(maxsize=None)
def expand_e_term(lam: Partition, m: int) -> Tuple[Tuple[Monomial, Fraction], ...]:
    """E_lam in the monomial basis of x_1..x_m (cached, immutable)."""
    lam = normalize(lam)
    if len(lam) > m:
        raise ValueError(f"E_{lam} vanishes identically in {m} variables")
    if not lam:
        return (((0,) * m, Fraction(1)),)
    r = len(lam)
    column_removed = normalize(tuple(p - 1 for p in lam))
    base = dict(expand_e_term(column_removed, m))
    out = _mono_mul(base, _elementary_monomials(m)[r])
    return tuple(sorted(out.items()))


def _divide_by_linear_difference(g: MonoPoly, i: int, j: int, m: int) -> MonoPoly:
    """Exact quotient g / (x_i - x_j); raises if the division is not exact."""
    unit_j = (0,) * j + (1,) + (0,) * (m - j - 1)
    buckets: Dict[int, MonoPoly] = {}
    for mono, c in g.items():
        d = mono[i]
        stripped = mono[:i] + (0,) + mono[i + 1:]
        buckets.setdefault(d, {})[stripped] = c
    if not buckets:
        return {}
    top = max(buckets)
    quotient: MonoPoly = {}
    carry: MonoPoly = {}  # q_d while descending
    for d in range(top - 1, -1, -1):
        layer = dict(buckets.get(d + 1, {}))
        for mono, c in carry.items():
            key = tuple(x + y for x, y in zip(mono, unit_j))
            val = layer.get(key, 0) + c
            if val:
                layer[key] = val
            elif key in layer:
                del layer[key]
        carry = layer
        for mono, c in layer.items():
            quotient[mono[:i] + (d,) + mono[i + 1:]] = c
    # remainder: g_0 + x_j * q_0 must vanish
    rem = dict(buckets.get(0, {}))
    for mono, c in carry.items():
        key = tuple(x + y for x, y in zip(mono, unit_j))
        val = rem.get(key, 0) + c
        if val:
            rem[key] = val
        elif key in rem:
            del rem[key]
    if rem:
        raise NotSymmetricError("divided difference left a remainder")
    return quotient


def _apply_operator_monomials(poly: MonoPoly, beta: Fraction, m: int) -> MonoPoly:
    out: MonoPoly = {}
    for mono, c in poly.items():
        s = sum(a * (a - 1) for a in mono)
        if s:
            out[mono] = out.get(mono, 0) + c * s
    for i in range(m):
        for j in range(i + 1, m):
            numer: MonoPoly = {}
            for mono, c in poly.items():
                if mono[i]:
                    key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    numer[key] = numer.get(key, 0) + c * mono[i]
                if mono[j]:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    numer[key] = numer.get(key, 0) - c * mono[j]
            numer = {k: v for k, v in numer.items() if v}
            for mono, c in _divide_by_linear_difference(numer, i, j, m).items():
                val = out.get(mono, 0) + beta * c
                if val:
                    out[mono] = val
                elif mono in out:
                    del out[mono]
    return out


def _to_e_basis(poly: MonoPoly, m: int) -> Dict[Partition, Fraction]:
    """Rewrite a symmetric monomial-basis polynomial in the E basis.

    Repeatedly eliminates the lex-leading monomial x^lam, which for a
    symmetric polynomial always has a weakly decreasing exponent vector,
    using the fact that x^lam is the leading monomial of E_lam with
    coefficient 1.
    """
    work = {k: Fraction(v) for k, v in poly.items() if v}
    out: Dict[Partition, Fraction] = {}
    while work:
        lead = max(work)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise NotSymmetricError(f"leading exponent {lead} is not dominant")
        lam = normalize(lead)
        c = work[lead]
        out[lam] = c
        for mono, ec in expand_e_term(lam, m):
            val = work.get(mono, 0) - c * ec
            if val:
                work[mono] = val
            elif mono in work:
                del work[mono]
    return out


# ---------------------------------------------------------------------------
# the E-basis polynomial type
# ---------------------------------------------------------------------------

class EPolynomial:
    """A finite linear combination of E_kappa terms in m variables."""

    __slots__ = ("m", "terms")

    def __init__(self, terms: Dict[Partition, Fraction], m: int):
        self.m = int(m)
        clean: Dict[Partition, Fraction] = {}
        for key, c in terms.items():
            key = normalize(key)
            if len(key) > self.m:
                raise ValueError(f"term E_{key} needs more than {self.m} variables")
            c = Fraction(c)
            if c:
                clean[key] = clean.get(key, Fraction(0)) + c
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def zero(cls, m: int) -> "EPolynomial":
        return cls({}, m)

    @classmethod
    def term(cls, kappa: Partition, m: int, coeff=Fraction(1)) -> "EPolynomial":
        return cls({normalize(kappa): Fraction(coeff)}, m)

    def __eq__(self, other) -> bool:
        return isinstance(other, EPolynomial) and self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "EPolynomial") -> "EPolynomial":
        assert self.m == other.m
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return EPolynomial(out, self.m)

    def __sub__(self, other: "EPolynomial") -> "EPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "EPolynomial":
        c = Fraction(c)
        return EPolynomial({k: v * c for k, v in self.terms.items()}, self.m)

    def __mul__(self, other: "EPolynomial") -> "EPolynomial":
        """Product, using E_mu * E_tau = E_(mu + tau) componentwise."""
        assert self.m == other.m
        out: Dict[Partition, Fraction] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = e_monomial_product(a, b, self.m)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return EPolynomial(out, self.m)

    def is_homogeneous(self) -> bool:
        weights = {weight(k) for k in self.terms}
        return len(weights) <= 1

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(weight(k) for k in self.terms)

    def leading(self) -> Partition:
        """Lex-greatest index among the stored terms (within the top weight)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        top = self.degree()
        return max(k for k in self.terms if weight(k) == top)

    def evaluate(self, xs):
        """Evaluation at a point; exact when the coordinates are exact."""
        es = elementary_values(xs, self.m)
        total = 0
        for key, c in self.terms.items():
            padded = pad(key, self.m)
            v = c
            for i in range(self.m):
                expo = padded[i] - (padded[i + 1] if i + 1 < self.m else 0)
                if expo:
                    v *= es[i + 1] ** expo
            total += v
        return total

    def __repr__(self):
        inner = ", ".join(f"{k}: {c}" for k, c in sorted(self.terms.items(), reverse=True))
        return f"EPolynomial({{{inner}}}, m={self.m})"


def e_monomial_product(mu: Partition, tau: Partition, m: int) -> Partition:
    """Index of the product E_mu * E_tau: parts add componentwise."""
    mu = normalize(mu)
    tau = normalize(tau)
    if len(mu) > m or len(tau) > m:
        raise ValueError("partition longer than the variable count")
    return normalize(tuple(a + b for a, b in zip(pad(mu, m), pad(tau, m))))


def elementary_values(xs, m: int):
    """e_0..e_m at a numeric point, by expanding prod(1 + t*x_i) stepwise.

    Keeps the arithmetic of the inputs: exact for Fractions, float for floats.
    """
    xs = list(xs)
    if len(xs) != m:
        raise ValueError(f"expected {m} coordinates, got {len(xs)}")
    es = [0] * (m + 1)
    es[0] = 1
    for v, x in enumerate(xs):
        for i in range(min(v + 1, m), 0, -1):
            es[i] = es[i] + es[i - 1] * x
    return es


# ---------------------------------------------------------------------------
# operator rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LBRow:
    """One row of the operator matrix on the E basis: the expansion of D(E_source)."""
    source: Partition
    beta: Fraction
    m: int
    entries: Tuple[Tuple[Partition, Fraction], ...]

    def as_dict(self) -> Dict[Partition, Fraction]:
        return dict(self.entries)


_ROW_CACHE: Dict[Tuple[Partition, Fraction, int], LBRow] = {}


def laplace_beltrami_row(nu: Partition, beta, m: int) -> LBRow:
    """Expansion of the operator applied to E_nu, as a map over partitions <= nu.

    The result is triangular: every index has the same weight as nu and is
    lexicographically <= nu.
    """
    nu = normalize(nu)
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    if weight(nu) < 1:
        raise ValueError("the zero-degree term has an empty row")
    if len(nu) > m:
        raise ValueError(f"E_{nu} vanishes in {m} variables")
    key = (nu, beta, m)
    row = _ROW_CACHE.get(key)
    if row is None:
        poly = dict(expand_e_term(nu, m))
        image = _apply_operator_monomials(poly, beta, m)
        entries = _to_e_basis(image, m)
        row = LBRow(nu, beta, m, tuple(sorted(entries.items(), reverse=True)))
        _ROW_CACHE[key] = row
    return row


def apply_operator(f: EPolynomial, beta) -> EPolynomial:
    """The operator applied to an arbitrary E-basis polynomial, by linearity."""
    out: Dict[Partition, Fraction] = {}
    for kappa, c in f.terms.items():
        if weight(kappa) == 0:
            continue  # constants are annihilated
        for target, b in laplace_beltrami_row(kappa, beta, f.m).entries:
            out[target] = out.get(target, Fraction(0)) + c * b
    return EPolynomial(out, f.m)


def laplace_beltrami_eigenvalue(kappa: Partition, beta, m: int) -> Fraction:
    """Diagonal entry of the operator row for kappa (an exact rational)."""
    kappa = normalize(kappa)
    if weight(kappa) == 0:
        return Fraction(0)
    return laplace_beltrami_row(kappa, beta, m).as_dict().get(kappa, Fraction(0))


def eigenvalue_closed_form(kappa: Partition, beta, m: int) -> Fraction:
    """Fast closed form of the diagonal: sum_i k_i*(k_i - 1 + beta*(m - i)).

    Asserted equal to the operator-derived diagonal in the test suite.
    """
    beta = Fraction(beta)
    return sum((Fraction(p) * (p - 1 + beta * (m - i)) for i, p in enumerate(normalize(kappa), start=1)),
               Fraction(0))
