"""Jack polynomials in the elementary symmetric basis, and their products.

C_kappa denotes the Jack polynomial normalized so that the C_kappa of a
fixed weight k sum to (x_1 + ... + x_m)^k.  Each C_kappa is computed as an
exact rational combination of E_mu over the partitions mu <= kappa (lex,
equal weight): the leading coefficient comes from a hook product, and the
remaining ones follow from C_kappa being an eigenvector of the operator in
`esym`, which is triangular on the E basis, in one pass down the lex order
that pushes each finished coefficient along its operator row.  Expansions
are cached per (kappa, beta, m).

A product C_kappa C_tau is linearized by expanding only the factor of
smaller weight in the E basis, E_nu = prod_j e_(nu'_j), and multiplying
P_kappa by each chain of e_r through the vertical-strip Pieri rule.
`e_to_jack` of the E-basis product of both expansions gives the same terms;
it is kept as the independent check.  On `jack product --left 6,4,3,2,1
--right 5,3,2,1 --m 6` the strips take 0.12-0.25 s in process, the E-basis
product and its peel 1.3-2.6 s (2-core Xeon).

The series tables in `dist` use none of this: they need only the closed
forms in `special` (values at the identity, re-exported here, and Pieri
coefficients).  The expansions serve the symbolic command line and the
tests, where they are an independent check on those closed forms.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Dict, NamedTuple, Tuple

from .esym import EPolynomial, eigenvalue_closed_form, laplace_beltrami_row
from .partitions import (
    Partition,
    conjugate,
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


def _check_rows(kappa: Partition, m: int) -> None:
    if len(kappa) > m:
        raise ValueError(f"C_{kappa} vanishes in {m} variables")


def jack_expansion(kappa: Partition, beta, m: int) -> EPolynomial:
    """C_kappa as an exact E-basis polynomial in m variables."""
    kappa = normalize(kappa)
    beta = _as_beta(beta)
    _check_rows(kappa, m)
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
    """Expansion of C_kappa * C_tau as a combination of C_delta, exactly.

    Only the factor of smaller weight is expanded, say C_tau = sum_nu a_nu
    E_nu with E_nu = prod_j e_(nu'_j).  P_kappa is multiplied by each chain
    of e_r by the vertical-strip rule, chains that share a prefix sharing
    the work, and C_lam = `leading_elementary_coeff`(lam) P_lam turns the
    sum back into C's.  The terms come in descending lex order, as from
    `e_to_jack(jack_expansion(kappa) * jack_expansion(tau))`.

    A factor with more than m parts raises ValueError, kappa checked first.
    The strip ratios have positive denominators for every beta > 0, so this
    raises DegenerateBetaError exactly when `jack_expansion` of the expanded
    factor does.
    """
    kappa = normalize(kappa)
    beta = _as_beta(beta)
    _check_rows(kappa, m)
    tau = normalize(tau)
    _check_rows(tau, m)
    if weight(tau) > weight(kappa):
        kappa, tau = tau, kappa
    alpha = 2 / beta
    moves: Dict[Tuple[Partition, int], list] = {}
    chains = {(): {kappa: Fraction(1)}}
    total: Dict[Partition, Fraction] = {}
    for nu, a in jack_expansion(tau, beta, m).terms.items():
        cols = conjugate(nu)
        for i, r in enumerate(cols):
            prefix = cols[:i + 1]
            if prefix not in chains:
                step: Dict[Partition, Fraction] = {}
                for mu, c in chains[cols[:i]].items():
                    if (mu, r) not in moves:
                        moves[mu, r] = _vertical_strips(mu, r, m, alpha)
                    for lam, psi in moves[mu, r]:
                        step[lam] = step.get(lam, 0) + c * psi
                chains[prefix] = step
        for lam, g in chains[cols].items():
            total[lam] = total.get(lam, 0) + a * g
    lead = leading_elementary_coeff(kappa, beta)
    terms = tuple((lam, total[lam] * lead / leading_elementary_coeff(lam, beta))
                  for lam in sorted(total, reverse=True) if total[lam])
    return JackExpansion(terms, beta, m)


def _vertical_strips(mu: Partition, r: int, m: int, alpha: Fraction):
    """[(lam, psi'_(lam/mu))] over the lam in at most m rows with lam/mu a
    vertical r-strip, so that P_mu e_r = sum psi'_(lam/mu) P_lam.

    psi'_(lam/mu) = prod b_lam(s)/b_mu(s) over the cells s of mu in a column
    that meets lam/mu and a row that does not, with b(s) = (alpha a + l +
    1)/(alpha (a+1) + l) in the arm a and leg l of s (Macdonald, Symmetric
    Functions and Hall Polynomials, VI (6.24), in the Jack limit).  On such
    a cell the arm is the same in lam and mu and the leg grows by the d
    boxes its column gains, so each ratio is formed over integers after
    scaling by alpha's denominator, and made a Fraction once.
    """
    a, b = alpha.numerator, alpha.denominator
    height = min(m, len(mu) + r)
    parts = mu + (0,) * (height - len(mu))
    conj = conjugate(mu)
    out = []
    for rows in combinations(range(height), r):
        if any(i and i - 1 not in rows and parts[i - 1] == parts[i] for i in rows):
            continue  # lam would not be a partition
        num = den = 1
        for j, d in Counter(parts[i] for i in rows).items():  # column j gains d boxes
            for i in range(conj[j] if j < len(conj) else 0):
                if i not in rows:
                    arm, leg = parts[i] - j - 1, conj[j] - i - 1
                    num *= (a * arm + b * (leg + d + 1)) * (a * (arm + 1) + b * leg)
                    den *= (a * (arm + 1) + b * (leg + d)) * (a * arm + b * (leg + 1))
        lam = tuple(q for q in (p + (i in rows) for i, p in enumerate(parts)) if q)
        out.append((lam, Fraction(num, den)))
    return out


# ---------------------------------------------------------------------------
# persistent cache snapshots
# ---------------------------------------------------------------------------

def save_expansion_cache(path: str) -> int:
    """Write the in-memory expansion cache to a JSON snapshot; returns the entry count.

    No command writes a snapshot any more; this stays as the writer of what
    `load_expansion_cache` reads.  The snapshot goes to a fresh temporary
    file beside `path` first and replaces `path` in one step, so concurrent
    writers never interleave.
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

    No command reads a snapshot any more: the strip product made the cold
    large product cheaper than a warm load.  This stays because the
    benchmark's cli-cache workload (`perfbench/worker.py`) calls it on
    every iteration.  It leaves with that phase, together with
    `save_expansion_cache`, `EPolynomial.evaluate`,
    `esym.elementary_values` and `EPolynomial._of_normalized`, which only
    it uses in the package.  A missing file loads nothing.
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
