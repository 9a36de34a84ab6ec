"""Hand-derived low-variable recurrences for the operator rows.

For 2, 3 and 4 variables the off-diagonal action of the operator in
`jackratio.esym` has short closed forms.  They are kept here as an
independent cross-check on the symbolic rows, which the tests compare
against them entry for entry.
"""

from fractions import Fraction
from typing import Dict

from jackratio.partitions import Partition, normalize, pad

# moves are offsets applied to the padded source; coefficients are polynomials
# in the consecutive differences v_i = mu_i - mu_{i+1} of the source
_APPENDIX_MOVES = {
    2: (
        ((1, -1), lambda v: (v[0] + 2) * (v[0] + 1)),
    ),
    3: (
        ((1, -1, 0), lambda v: (v[0] + 2) * (v[0] + 1)),
        ((0, 1, -1), lambda v: (v[1] + 2) * (v[1] + 1)),
        ((1, 0, -1), lambda v: 3 * (v[0] + 1) * (v[1] + 1)),
    ),
    4: (
        ((1, -1, 0, 0), lambda v: (v[0] + 2) * (v[0] + 1)),
        ((0, 1, -1, 0), lambda v: (v[1] + 2) * (v[1] + 1)),
        ((0, 0, 1, -1), lambda v: (v[2] + 2) * (v[2] + 1)),
        ((1, 1, -1, -1), lambda v: 2 * (v[1] + 2) * (v[1] + 1)),
        ((1, 0, -1, 0), lambda v: 3 * (v[0] + 1) * (v[1] + 1)),
        ((0, 1, 0, -1), lambda v: 3 * (v[1] + 1) * (v[2] + 1)),
        ((1, 0, 0, -1), lambda v: 4 * (v[0] + 1) * (v[2] + 1)),
    ),
}


def appendix_moves(mu: Partition, m: int) -> Dict[Partition, int]:
    """Hand-derived transfer coefficients for the 2-, 3- and 4-variable cases.

    Returns the map target -> integer coefficient appearing on the
    right-hand side of the low-variable recurrences; moves that leave the
    partition lattice (a negative or increasing tuple) are dropped.
    """
    if m not in _APPENDIX_MOVES:
        raise ValueError("the explicit recurrences cover m in {2, 3, 4} only")
    mu = normalize(mu)
    if len(mu) > m:
        raise ValueError(f"partition {mu} longer than {m}")
    padded = pad(mu, m)
    diffs = tuple(padded[i] - padded[i + 1] for i in range(m - 1))
    out: Dict[Partition, int] = {}
    for offset, coeff in _APPENDIX_MOVES[m]:
        target = tuple(a + b for a, b in zip(padded, offset))
        if any(t < 0 for t in target):
            continue
        if any(target[i] < target[i + 1] for i in range(m - 1)):
            continue
        key = normalize(target)
        out[key] = out.get(key, 0) + coeff(diffs)
    return out


def appendix_row(mu: Partition, beta, m: int) -> Dict[Partition, Fraction]:
    """Off-diagonal operator entries b[target, mu] implied by appendix_moves.

    The signature mirrors `laplace_beltrami_row`, but the off-diagonal
    entries do not depend on beta: each is -2 times the appendix coefficient.
    """
    return {target: Fraction(-2 * c) for target, c in appendix_moves(mu, m).items()}
