import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from appendix_recurrences import appendix_moves, appendix_row
from jackratio.esym import (EPolynomial, eigenvalue_closed_form,
                            elementary_values, expand_e_term, laplace_beltrami_row)
from operator_oracle import apply_operator, oracle_row
from jackratio.partitions import partitions_of, weight


def eval_e_term(lam, m, xs):
    # independent evaluation: product of elementary symmetric polynomials
    total = Fraction(1)
    es = elementary_values(xs, m)
    from jackratio.partitions import conjugate
    for col in conjugate(lam):
        total *= es[col]
    return total


def test_expand_e_term_small():
    # E_(1) in 2 vars is x1 + x2
    assert dict(expand_e_term((1,), 2)) == {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    # E_(1,1) = e2 = x1 x2
    assert dict(expand_e_term((1, 1), 2)) == {(1, 1): Fraction(1)}


@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_expand_e_term_matches_product_evaluation(k, m, seed):
    rnd = random.Random(seed)
    xs = [Fraction(rnd.randint(-6, 6), rnd.randint(1, 5)) for _ in range(m)]
    for lam in partitions_of(k, m):
        direct = sum(c * prod_pow(xs, mono) for mono, c in expand_e_term(lam, m))
        assert direct == eval_e_term(lam, m, xs)


def prod_pow(xs, mono):
    out = Fraction(1)
    for x, a in zip(xs, mono):
        out *= x ** a
    return out


def test_epolynomial_arithmetic():
    a = EPolynomial.term((2,), 2)
    b = EPolynomial.term((1, 1), 2, Fraction(3, 2))
    s = a + b
    assert s.terms == {(2,): Fraction(1), (1, 1): Fraction(3, 2)}
    assert (s - s).terms == {}
    assert s.scale(2).terms[(1, 1)] == 3
    # product maps to componentwise-sum of the defining column patterns
    p = a * b
    assert p.terms == {(3, 1): Fraction(3, 2)}


@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_multiplication_commutes_with_evaluation(k1, k2, m):
    xs = [Fraction(i + 2, 3) for i in range(m)]
    for lam in partitions_of(k1, m):
        for mu in partitions_of(k2, m):
            a, b = EPolynomial.term(lam, m), EPolynomial.term(mu, m)
            assert (a * b).evaluate(xs) == a.evaluate(xs) * b.evaluate(xs)
            assert (a * b).terms == (b * a).terms


def test_operator_rows_frozen():
    assert laplace_beltrami_row((2,), 1, 2).as_dict() == {
        (2,): Fraction(4), (1, 1): Fraction(-4)}
    assert laplace_beltrami_row((1, 1), 2, 2).as_dict() == {(1, 1): Fraction(2)}
    assert laplace_beltrami_row((2, 1), 1, 3).as_dict() == {
        (2, 1): Fraction(7), (1, 1, 1): Fraction(-6)}
    # weight-one row is diagonal with entry beta*(m-1)
    for m in (2, 3, 5):
        for beta in (Fraction(1), Fraction(2), Fraction(3, 7)):
            assert laplace_beltrami_row((1,), beta, m).as_dict() == {(1,): beta * (m - 1)}


def test_rows_reject_bad_input():
    with pytest.raises(ValueError):
        laplace_beltrami_row((2, 1, 1), 1, 2)  # more parts than variables
    with pytest.raises(ValueError):
        laplace_beltrami_row((1,), 0, 2)
    with pytest.raises(ValueError):
        laplace_beltrami_row((), 1, 2)


def test_operator_is_triangular_in_dominance():
    # entries appear only at partitions dominated by the source
    from jackratio.partitions import dominates
    for k in range(1, 7):
        for m in (2, 3):
            for nu in partitions_of(k, m):
                row = laplace_beltrami_row(nu, Fraction(3, 7), m).as_dict()
                for mu in row:
                    assert dominates(nu, mu)


def test_closed_form_matches_diagonal():
    for k in range(1, 8):
        for m in (2, 3, 4):
            for beta in (Fraction(1), Fraction(2), Fraction(1, 2)):
                for nu in partitions_of(k, m):
                    assert oracle_row(nu, beta, m).get(nu, Fraction(0)) == \
                        eigenvalue_closed_form(nu, beta, m)


def test_rows_match_monomial_oracle():
    # the E-basis rows against the operator applied in the monomial basis
    grid = [(m, k) for m in (1, 2, 3, 4) for k in range(1, 9)] + [(5, k) for k in range(1, 7)]
    for beta in (Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2), Fraction(2, 3)):
        for m, k in grid:
            for nu in partitions_of(k, m):
                assert laplace_beltrami_row(nu, beta, m).as_dict() == oracle_row(nu, beta, m), \
                    (nu, beta, m)


def test_apply_operator_linear():
    f = EPolynomial.term((2,), 2) + EPolynomial.term((1, 1), 2, Fraction(5))
    beta = Fraction(1)
    out = apply_operator(f, beta)
    expected = {}
    for lam, c in f.terms.items():
        for mu, v in laplace_beltrami_row(lam, beta, 2).as_dict().items():
            expected[mu] = expected.get(mu, Fraction(0)) + c * v
    assert out.terms == {k: v for k, v in expected.items() if v}


def test_eigenvalue_separation_along_dominance():
    # strictly larger in dominance order means strictly larger eigenvalue;
    # lex order alone is NOT enough, see the collision test below
    from jackratio.partitions import dominates
    for k in range(1, 9):
        for m in (2, 3, 4):
            parts = partitions_of(k, m)
            for beta in (Fraction(1), Fraction(2), Fraction(3, 7)):
                for i, kappa in enumerate(parts):
                    for mu in parts[i + 1:]:
                        if dominates(kappa, mu):
                            assert eigenvalue_closed_form(kappa, beta, m) > \
                                eigenvalue_closed_form(mu, beta, m)


def test_dominance_incomparable_pairs_may_collide():
    # lex-ordered but dominance-incomparable pair with equal eigenvalues
    assert eigenvalue_closed_form((4, 1, 1), 1, 3) == \
        eigenvalue_closed_form((3, 3), 1, 3) == 21


def test_appendix_moves_frozen():
    assert appendix_moves((1, 1), 2) == {(2,): 2}
    assert appendix_moves((2, 1), 3) == {(3,): 6}
    # all moves of a regular interior partition at m=4 are valid targets
    moves = appendix_moves((4, 2, 1), 4)
    assert all(weight(t) == 7 for t in moves)
    assert all(c > 0 for c in moves.values())


def test_appendix_row_scaling():
    # appendix coefficients relate to operator couplings by a factor -2 at every beta
    assert appendix_row((1, 1), 1, 2) == {(2,): Fraction(-4)}
    assert appendix_row((1, 1), 2, 2) == {(2,): Fraction(-4)}


def test_elementary_values_match_direct_product():
    xs = [Fraction(1), Fraction(2), Fraction(3)]
    es = elementary_values(xs, 3)
    assert es[0] == 1
    assert es[1] == 6
    assert es[2] == 11
    assert es[3] == 6
