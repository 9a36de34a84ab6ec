import math
from fractions import Fraction

import pytest

from backward_build import cellwise_pieri_coefficients, pieri_coefficients, rising_factorial
from jackratio.jack import jack_product
from jackratio.partitions import partitions_of
from jackratio.special import (gamma_exact, gen_pochhammer_exact,
                               jack_at_identity, multivariate_gamma, pi_exponent)


def value(q, h):
    """q pi^(h/2) as a float."""
    return float(q) * math.pi ** (h / 2)


def test_gamma_exact_matches_math_gamma():
    for k in range(1, 60):
        for z in (Fraction(k), Fraction(2 * k - 1, 2)):
            q, h = gamma_exact(z)
            assert h == (0 if z.denominator == 1 else 1)
            assert value(q, h) == pytest.approx(math.gamma(z), rel=1e-13), z
    assert gamma_exact(Fraction(1, 2)) == (1, 1)  # sqrt(pi)
    assert gamma_exact(Fraction(7, 2)) == (Fraction(15, 8), 1)
    assert gamma_exact(6) == (120, 0)


def test_gamma_exact_poles_and_other_arguments():
    for pole in (0, -1, Fraction(-3)):
        with pytest.raises(ValueError, match="pole"):
            gamma_exact(pole)
    for z in (Fraction(1, 3), Fraction(-1, 2), Fraction(5, 4)):
        with pytest.raises(ValueError, match="half-integer"):
            gamma_exact(z)


def test_multivariate_gamma_reduces_to_gamma():
    for c in (Fraction(1), Fraction(5, 2), Fraction(7)):
        assert multivariate_gamma(1, 1, c) == gamma_exact(c)


def test_multivariate_gamma_frozen_pi_values():
    # two-variable values that collapse to exactly pi
    assert multivariate_gamma(1, 2, Fraction(1)) == (1, 2)
    assert multivariate_gamma(2, 2, Fraction(2)) == (1, 2)


def test_multivariate_gamma_matches_math_gamma():
    for beta in (1, 2, 4):
        for m in range(1, 6):
            for c in (Fraction(m * beta, 2) + 1, Fraction(m * beta, 2) + Fraction(3, 2),
                      Fraction((m + 7) * beta, 2)):
                want = math.pi ** (m * (m - 1) * beta / 4) * math.prod(
                    math.gamma(c - Fraction((i - 1) * beta, 2)) for i in range(1, m + 1))
                assert value(*multivariate_gamma(beta, m, c)) == pytest.approx(want, rel=1e-12)


def test_multivariate_gamma_pole_detection():
    with pytest.raises(ValueError, match="pole"):
        multivariate_gamma(1, 2, Fraction(1, 2))  # second factor hits Gamma(0)
    with pytest.raises(ValueError, match="pole"):
        multivariate_gamma(2, 3, Fraction(0))
    with pytest.raises(ValueError):
        multivariate_gamma(1, 0, Fraction(1))


def test_rising_factorial():
    assert rising_factorial(Fraction(2), 3) == 24
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(Fraction(-3), 5) == 0
    assert rising_factorial(Fraction(-3), 3) == -6
    assert rising_factorial(Fraction(7), 0) == 1


def test_gen_pochhammer_exact_hand_values():
    # (2)_(2,1) at beta=1: (2)_2 * (3/2)_1 = 6 * 3/2
    assert gen_pochhammer_exact(2, (2, 1), 1) == 9
    assert gen_pochhammer_exact(Fraction(1, 2), (1,), 1) == Fraction(1, 2)
    assert gen_pochhammer_exact(3, (), 2) == 1


def test_gen_pochhammer_exact_zero_iff_tau1_large():
    # a = -p with integer p >= 0 and beta=1 vanishes exactly when tau_1 > p
    p = 3
    for t in range(9):
        for tau in partitions_of(t, 2):
            v = gen_pochhammer_exact(-p, tau, 1)
            assert (v == 0) == bool(tau and tau[0] > p)


def test_gen_pochhammer_exact_matches_factor_by_factor_product():
    for a in (Fraction(5, 2), Fraction(-3, 4), Fraction(7)):
        for beta in (1, 2, 4, Fraction(2, 3)):
            for tau in partitions_of(5, 3) + partitions_of(3, 3):
                naive = Fraction(1)
                for i, part in enumerate(tau):
                    for j in range(part):
                        naive *= a - Fraction(i) * Fraction(beta) / 2 + j
                assert gen_pochhammer_exact(a, tau, beta) == naive


def test_pi_exponent_values():
    assert pi_exponent(1, 3) == Fraction(3, 2)
    assert pi_exponent(2, 3) == 2
    assert pi_exponent(4, 3) == 4
    with pytest.raises(ValueError):
        pi_exponent(3, 3)


# -- Jack closed forms ---------------------------------------------------------

def test_pieri_coefficients_frozen():
    # p_1 C_(1) = p_1^2 = C_(2) + C_(1,1), and C_(1,1) vanishes in one variable
    assert pieri_coefficients((1,), 1, 2) == {(2,): 1, (1, 1): 1}
    assert pieri_coefficients((1,), 1, 1) == {(2,): 1}
    assert pieri_coefficients((), 2, 3) == {(1,): 1}
    with pytest.raises(ValueError):
        pieri_coefficients((1, 1, 1), 1, 2)


def test_pieri_coefficients_match_linearization():
    for beta in (Fraction(1), Fraction(2), Fraction(4), Fraction(2, 3)):
        for m in (1, 2, 3, 4):
            for k in range(6):
                for lam in partitions_of(k, m):
                    assert pieri_coefficients(lam, beta, m) == \
                        jack_product((1,), lam, beta, m).as_dict(), (beta, m, lam)


def test_pieri_coefficients_match_cellwise_product():
    # the row product telescopes over each run of cells with the same leg
    for beta in (Fraction(1), Fraction(2), Fraction(4), Fraction(2, 3), Fraction(7, 3)):
        for m in (1, 2, 3, 4, 5):
            for k in range(14):
                for lam in partitions_of(k, m):
                    assert pieri_coefficients(lam, beta, m) == \
                        cellwise_pieri_coefficients(lam, beta, m), (beta, m, lam)


def test_pieri_coefficients_sum_to_trace_power_identity():
    # p_1 C_lam at the identity is m C_lam(I), so the targets' values add up
    for beta in (Fraction(1), Fraction(4), Fraction(3, 7)):
        for lam in partitions_of(6, 3):
            total = sum(c * jack_at_identity(mu, beta, 3)
                        for mu, c in pieri_coefficients(lam, beta, 3).items())
            assert total == 3 * jack_at_identity(lam, beta, 3)


def test_jack_at_identity_rejects_long_partitions():
    with pytest.raises(ValueError):
        jack_at_identity((1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        jack_at_identity((1,), 0, 2)
