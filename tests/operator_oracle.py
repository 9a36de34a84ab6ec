"""The operator rows the long way, through the monomial basis.

`oracle_row` expands E_nu into monomials in m variables, applies the
operator there (the second sum through pairwise divided differences, which
keep every intermediate a polynomial) and rewrites the image in the E basis.
It shares no step with `jackratio.esym.laplace_beltrami_row`, which works on
the E basis directly, so the tests compare the two entry for entry.

`apply_operator` goes the other way: it applies the rows of
`laplace_beltrami_row` to an E-basis polynomial by linearity, for the
eigenfunction checks on Jack expansions.
"""

from fractions import Fraction
from typing import Dict

from jackratio.esym import EPolynomial, MonoPoly, expand_e_term, laplace_beltrami_row
from jackratio.partitions import Partition, normalize, weight


def apply_operator(f: EPolynomial, beta) -> EPolynomial:
    """The operator applied to an E-basis polynomial, row by row."""
    out: Dict[Partition, Fraction] = {}
    for kappa, c in f.terms.items():
        if weight(kappa) == 0:
            continue  # constants are annihilated
        for target, b in laplace_beltrami_row(kappa, beta, f.m).entries:
            out[target] = out.get(target, Fraction(0)) + c * b
    return EPolynomial(out, f.m)


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
        raise AssertionError("divided difference left a remainder")
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
            raise AssertionError(f"leading exponent {lead} is not dominant")
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


def oracle_row(nu: Partition, beta, m: int) -> Dict[Partition, Fraction]:
    """The operator applied to E_nu, in the E basis, zero entries dropped."""
    image = _apply_operator_monomials(dict(expand_e_term(normalize(nu), m)), Fraction(beta), m)
    return {mu: c for mu, c in _to_e_basis(image, m).items() if c}
