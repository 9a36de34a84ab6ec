"""Polynomials in the elementary symmetric basis, and a degree-preserving
second-order differential operator acting on that basis.

E_kappa denotes e_1^(k1-k2) * e_2^(k2-k3) * ... * e_m^(km) for a partition
kappa with at most m parts; these are a basis of the symmetric polynomials
in m variables.  The operator

    sum_i x_i^2 d^2/dx_i^2  +  beta * sum_{i != j} x_i^2/(x_i - x_j) d/dx_i

maps symmetric polynomials to symmetric polynomials of the same degree and
is triangular on the E basis with respect to descending lex order.  Its rows
are computed on the E basis directly, from two facts about the e_r:

* the first-order part is a derivation that maps e_r to
  beta * (r*(m - r) + r*(r - 1)/2) * e_r;
* the second-order part annihilates every e_r and acts on a product as
  D2(f g) = f D2(g) + g D2(f) + 2 Gamma(f, g), where for r <= s

      Gamma(e_r, e_s) = sum_i x_i^2 de_r/dx_i de_s/dx_i
                      = r e_r e_s - sum_{k>=1} (s - r + 2k) e_(r-k) e_(s+k)

  with e_0 = 1 and e_j = 0 for j > m.

On E_nu = prod_r e_r^(v_r) the terms proportional to E_nu add up to
`eigenvalue_closed_form`; every other term is an integer multiple of
E_nu * e_(r-k) e_(s+k) / (e_r e_s), independent of beta.

Caches are plain dicts; CPython's GIL makes the insertions atomic, and a
duplicated concurrent computation just rewrites the same value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Dict, NamedTuple, Tuple

from .partitions import Partition, normalize, pad, weight

Monomial = Tuple[int, ...]
MonoPoly = Dict[Monomial, Fraction]


# ---------------------------------------------------------------------------
# the monomial basis (the operator rows do not use it; the tests check the
# rows against an operator applied in this basis; perfbench counts its cache)
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
    def _of_normalized(cls, terms: Dict[Partition, Fraction], m: int) -> "EPolynomial":
        """The polynomial of terms whose keys are already normalized with at
        most m parts and whose values are Fractions, without a second pass."""
        poly = cls.__new__(cls)
        poly.m, poly.terms = m, {k: v for k, v in terms.items() if v}
        return poly

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
        """Product, using E_mu * E_tau = E_(mu + tau): the parts of the keys add."""
        assert self.m == other.m
        out: Dict[Partition, Fraction] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(map(sum, zip_longest(a, b, fillvalue=0)))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return EPolynomial(out, self.m)

    def is_homogeneous(self) -> bool:
        weights = {weight(k) for k in self.terms}
        return len(weights) <= 1

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

class LBRow(NamedTuple):
    """One row of the operator matrix on the E basis: the expansion of D(E_source)."""
    source: Partition
    beta: Fraction
    m: int
    entries: Tuple[Tuple[Partition, Fraction], ...]


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
        entries = {mu: Fraction(c) for mu, c in _off_diagonal(nu, m).items() if c}
        diagonal = eigenvalue_closed_form(nu, beta, m)
        if diagonal:
            entries[nu] = diagonal
        row = LBRow(nu, beta, m, tuple(sorted(entries.items(), reverse=True)))
        _ROW_CACHE[key] = row
    return row


def _off_diagonal(nu: Partition, m: int) -> Dict[Partition, int]:
    """Off-diagonal entries of the row of E_nu, from the Gamma identity.

    With v_r = nu_r - nu_(r+1), each pair r <= s carries the weight
    v_r*(v_r - 1) when r = s and 2*v_r*v_s when r < s.  For
    1 <= k <= min(r, m - s) it adds -weight*(s - r + 2k) at
    E_nu * e_(r-k) e_(s+k) / (e_r e_s): parts r-k+1..r of nu lose a box and
    parts s+1..s+k gain one.
    """
    parts = pad(nu, m)
    v = (None,) + tuple(a - b for a, b in zip(parts, parts[1:] + (0,)))
    out: Dict[Partition, int] = {}
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            w = v[r] * (v[r] - 1) if r == s else 2 * v[r] * v[s]
            if not w:
                continue
            for k in range(1, min(r, m - s) + 1):
                target = list(parts)
                for i in range(r - k, r):
                    target[i] -= 1
                for i in range(s, s + k):
                    target[i] += 1
                key = normalize(target)
                out[key] = out.get(key, 0) - w * (s - r + 2 * k)
    return out


def eigenvalue_closed_form(kappa: Partition, beta, m: int) -> Fraction:
    """Diagonal entry of the operator row for kappa: sum_i k_i*(k_i - 1 + beta*(m - i))."""
    kappa = normalize(kappa)
    return (sum(p * (p - 1) for p in kappa)
            + Fraction(beta) * sum(p * (m - i) for i, p in enumerate(kappa, start=1)))
