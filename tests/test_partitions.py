from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jackratio.partitions import (conjugate, lower_hook_product, normalize, pad,
                                  partitions_of, upper_hook_product, weight)


def count_partitions(k: int, m: int) -> int:
    # independent DP: number of partitions of k into at most m parts
    table = [[0] * (m + 1) for _ in range(k + 1)]
    for j in range(m + 1):
        table[0][j] = 1
    for i in range(1, k + 1):
        for j in range(1, m + 1):
            table[i][j] = table[i][j - 1] + (table[i - j][j] if i >= j else 0)
    return table[k][m]


def test_normalize_strips_and_validates():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize([]) == ()
    assert normalize((5,)) == (5,)
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))


def test_weight_length_pad():
    assert weight((3, 1)) == 4
    assert weight(()) == 0
    assert pad((3, 1), 4) == (3, 1, 0, 0)


def test_conjugate_hand_values():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()


def test_enumeration_of_weight_four():
    assert partitions_of(4, 4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(4, 2) == ((4,), (3, 1), (2, 2))
    assert partitions_of(0, 3) == ((),)


@given(st.integers(0, 12), st.integers(1, 6))
def test_enumeration_count_matches_dp(k, m):
    assert len(partitions_of(k, m)) == count_partitions(k, m)


@given(st.integers(0, 10), st.integers(1, 5))
def test_enumeration_sorted_valid_unique(k, m):
    parts = partitions_of(k, m)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert weight(p) == k
        assert len(p) <= m
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert all(a > 0 for a in p)
    for a, b in zip(parts, parts[1:]):
        assert a > b  # descending lex


@st.composite
def partitions(draw, max_weight=10, max_parts=5):
    k = draw(st.integers(0, max_weight))
    m = draw(st.integers(1, max_parts))
    options = partitions_of(k, m)
    return options[draw(st.integers(0, len(options) - 1))]


@given(partitions())
def test_conjugate_is_involution(p):
    assert conjugate(conjugate(p)) == p
    assert weight(conjugate(p)) == weight(p)


def test_upper_hook_product_frozen():
    # (2,1) at alpha=2: product over cells of conj_j - i + alpha*(kappa_i - j + 1)
    assert upper_hook_product((2, 1), Fraction(2)) == 20
    assert upper_hook_product((1,), Fraction(7, 3)) == Fraction(7, 3)
    assert upper_hook_product((), Fraction(2)) == 1


@given(partitions(max_weight=8, max_parts=4), st.integers(1, 5))
def test_upper_hook_positive_at_positive_alpha(p, a):
    val = upper_hook_product(p, Fraction(a))
    assert val > 0


def test_lower_hook_product_frozen():
    # (2,1) at alpha=2: product over cells of conj_j - i + 1 + alpha*(kappa_i - j)
    assert lower_hook_product((2, 1), Fraction(2)) == 4
    # at alpha=1 both hook products are the classical one
    assert lower_hook_product((2, 1), Fraction(1)) == upper_hook_product((2, 1), 1) == 3
    assert lower_hook_product((), Fraction(2)) == 1
    with pytest.raises(ValueError):
        lower_hook_product((1,), Fraction(0))


@given(partitions(max_weight=8, max_parts=4),
       st.builds(Fraction, st.integers(1, 7), st.integers(1, 7)))
def test_lower_hook_is_upper_hook_of_conjugate(p, a):
    # transposing swaps arms and legs: h_*^p(a) = a^|p| h^*_p'(1/a)
    assert lower_hook_product(p, a) == a ** weight(p) * upper_hook_product(conjugate(p), 1 / a)
