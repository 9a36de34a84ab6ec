import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from backward_build import cellwise_pieri_coefficients
from jackratio.jack import jack_product
from jackratio.partitions import partitions_of
from jackratio.special import (SignedLogValue, gen_pochhammer,
                               gen_pochhammer_exact, jack_at_identity,
                               log_fraction, log_multivariate_gamma,
                               pi_exponent, pieri_coefficients,
                               rising_factorial)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_slv_multiplication_matches_floats(a, b):
    got = (SignedLogValue.from_float(a) * SignedLogValue.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12, abs=1e-300)


@given(finite, finite)
def test_slv_addition_matches_floats(a, b):
    got = (SignedLogValue.from_float(a) + SignedLogValue.from_float(b)).to_float()
    # addition in log space loses relative accuracy only under cancellation
    assert got == pytest.approx(a + b, rel=1e-9, abs=1e-9 * (abs(a) + abs(b)) + 1e-300)


def test_slv_exact_cancellation():
    x = SignedLogValue.from_float(3.25)
    assert (x + (-x)).is_zero()
    assert (x + (-x)).to_float() == 0.0


def test_slv_division_and_zero():
    x = SignedLogValue.from_float(-12.0)
    y = SignedLogValue.from_float(3.0)
    assert (x / y).to_float() == pytest.approx(-4.0, rel=1e-14)
    assert (SignedLogValue.zero() * x).is_zero()
    assert (SignedLogValue.zero() + x).to_float() == pytest.approx(-12.0)
    with pytest.raises(ZeroDivisionError):
        x / SignedLogValue.zero()


def test_log_fraction_huge_values():
    fr = Fraction(10 ** 400, 3)
    slv = log_fraction(fr)
    assert slv.sign == 1
    assert slv.log_abs == pytest.approx(400 * math.log(10) - math.log(3), rel=1e-13)
    assert log_fraction(Fraction(0)).is_zero()
    assert log_fraction(Fraction(-7, 2)).sign == -1


def test_multivariate_gamma_reduces_to_gamma():
    for c in (Fraction(1), Fraction(5, 2), Fraction(7)):
        got = log_multivariate_gamma(1, 1, c)
        assert got.log_abs == pytest.approx(math.lgamma(float(c)), abs=1e-12)


def test_multivariate_gamma_frozen_pi_values():
    # two-variable values that collapse to exactly pi
    assert log_multivariate_gamma(1, 2, Fraction(1)).to_float() == pytest.approx(math.pi, rel=1e-12)
    assert log_multivariate_gamma(2, 2, Fraction(2)).to_float() == pytest.approx(math.pi, rel=1e-12)


def test_multivariate_gamma_pole_detection():
    with pytest.raises(ValueError):
        log_multivariate_gamma(1, 2, Fraction(1, 2))  # second factor hits Gamma(0)
    with pytest.raises(ValueError):
        log_multivariate_gamma(2, 3, Fraction(0))


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


def test_gen_pochhammer_log_matches_exact():
    for a in (Fraction(5, 2), Fraction(-3), Fraction(4)):
        for tau in ((2, 1), (3,), (1, 1, 1)):
            for beta in (1, 2, Fraction(1, 2)):
                exact = gen_pochhammer_exact(a, tau, beta)
                slv = gen_pochhammer(a, tau, beta)
                assert slv.to_float() == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


def test_pi_exponent_values():
    assert pi_exponent("r", 1, 3) == Fraction(3, 2)
    assert pi_exponent("r", 2, 3) == 2
    assert pi_exponent("r", 4, 3) == 4
    assert pi_exponent("r1", 1, 3) == 0
    assert pi_exponent("r1", 2, 3) == -3
    with pytest.raises(ValueError):
        pi_exponent("r", 3, 3)
    with pytest.raises(ValueError):
        pi_exponent("bogus", 1, 3)


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
