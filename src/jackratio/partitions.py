"""Integer partitions: canonical form, enumeration, conjugation, hooks.

A partition is a weakly decreasing tuple of positive integers.  The empty
tuple is the unique partition of 0.  Trailing zeros are never stored; they
are accepted on input and normalized away.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Tuple

Partition = Tuple[int, ...]


def normalize(parts: Iterable[int]) -> Partition:
    """Canonical form of a partition: trailing zeros dropped, order checked."""
    out = tuple(int(p) for p in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    if any(p < 0 for p in out):
        raise ValueError(f"negative part in {out!r}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"parts not weakly decreasing: {out!r}")
    return out


def weight(kappa: Partition) -> int:
    """Sum of the parts."""
    return sum(kappa)


def pad(kappa: Partition, m: int) -> Tuple[int, ...]:
    """The partition as a length-m exponent vector (zeros appended)."""
    if len(kappa) > m:
        raise ValueError(f"partition {kappa!r} longer than {m}")
    return tuple(kappa) + (0,) * (m - len(kappa))


def conjugate(kappa: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become parts."""
    out = []
    for i in range(len(kappa), 0, -1):  # columns of length exactly i
        out.extend([i] * (kappa[i - 1] - (kappa[i] if i < len(kappa) else 0)))
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(k: int, m: int) -> Tuple[Partition, ...]:
    """All partitions of k with at most m parts, in descending lex order.

    The first element is (k,) whenever k >= 1 and m >= 1.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    if k == 0:
        return ((),)

    def gen(rem: int, maxpart: int, slots: int):
        if rem == 0:
            yield ()
            return
        if slots == 0:
            return
        top = min(rem, maxpart)
        for p in range(top, 0, -1):
            if rem - p > p * (slots - 1):
                continue  # cannot finish with parts <= p in the remaining slots
            for rest in gen(rem - p, p, slots - 1):
                yield (p,) + rest

    return tuple(gen(k, k, m))


def _hook_product(kappa: Partition, alpha, arm_shift: int, leg_shift: int) -> Fraction:
    """Product over the cells of leg + leg_shift + alpha*(arm + arm_shift).

    alpha = A/B; each factor is B*(leg + leg_shift) + A*(arm + arm_shift) over
    B, so the product is formed over integers and normalized once.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a, b = alpha.numerator, alpha.denominator
    conj = conjugate(kappa)
    num = 1
    for i, part in enumerate(kappa, start=1):
        for j in range(1, part + 1):
            num *= b * (conj[j - 1] - i + leg_shift) + a * (part - j + arm_shift)
    return Fraction(num, b ** sum(kappa))


def upper_hook_product(kappa: Partition, alpha: Fraction) -> Fraction:
    """Product over the diagram cells (i, j) of kappa'_j - i + alpha*(kappa_i - j + 1)."""
    return _hook_product(kappa, alpha, 1, 0)


def lower_hook_product(kappa: Partition, alpha: Fraction) -> Fraction:
    """Product over the diagram cells (i, j) of kappa'_j - i + 1 + alpha*(kappa_i - j)."""
    return _hook_product(kappa, alpha, 0, 1)
