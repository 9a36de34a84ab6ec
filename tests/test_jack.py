import os
from fractions import Fraction

import pytest

from backward_build import trace_power_product
from jackratio.esym import EPolynomial, eigenvalue_closed_form
from jackratio.jack import (clear_caches, e_to_jack, jack_at_identity,
                            jack_expansion, jack_product,
                            leading_elementary_coeff, load_expansion_cache,
                            save_expansion_cache)
from jackratio.partitions import partitions_of
from operator_oracle import apply_operator

BETAS = (Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2), Fraction(3, 7))


def test_leading_coefficient_frozen():
    assert leading_elementary_coeff((1,), Fraction(1)) == 1
    assert leading_elementary_coeff((2,), Fraction(1)) == 1
    assert leading_elementary_coeff((2, 1), Fraction(1)) == Fraction(12, 5)
    # the weight-one polynomial is the elementary generator for every beta
    for beta in BETAS:
        assert leading_elementary_coeff((1,), beta) == 1


def test_expansions_frozen():
    assert jack_expansion((2,), 1, 2).terms == {
        (2,): Fraction(1), (1, 1): Fraction(-4, 3)}
    assert jack_expansion((1, 1), 1, 2).terms == {(1, 1): Fraction(4, 3)}
    assert jack_expansion((2, 1), 1, 2).terms == {(2, 1): Fraction(12, 5)}
    assert jack_expansion((2,), 2, 3).terms == {
        (2,): Fraction(1), (1, 1): Fraction(-1)}
    assert jack_expansion((1, 1), 2, 3).terms == {(1, 1): Fraction(1)}
    assert jack_expansion((3,), Fraction(1, 2), 2).terms == {
        (3,): Fraction(1), (2, 1): Fraction(-8, 3)}


def test_partition_of_unity_small():
    # the weight-k polynomials sum to the k-th power of the trace
    for m in (1, 2, 3):
        for k in range(0, 6):
            for beta in (Fraction(1), Fraction(2)):
                total = EPolynomial.zero(m)
                for kappa in partitions_of(k, m):
                    total = total + jack_expansion(kappa, beta, m)
                assert total.terms == EPolynomial.term((k,) if k else (), m).terms


def test_eigenfunction_identity_small():
    for m in (2, 3):
        for k in range(1, 6):
            for beta in (Fraction(1), Fraction(3, 7)):
                for kappa in partitions_of(k, m):
                    f = jack_expansion(kappa, beta, m)
                    assert apply_operator(f, beta).terms == \
                        f.scale(eigenvalue_closed_form(kappa, beta, m)).terms


def test_degenerate_diagonal_collision_is_exact_zero():
    # (4,1,1) and (3,3) share an operator eigenvalue at beta=1 but are
    # dominance-incomparable, so the coupling vanishes and the coefficient
    # is an exact zero rather than a 0/0 failure
    poly = jack_expansion((4, 1, 1), 1, 3)
    assert (3, 3) not in poly.terms
    assert eigenvalue_closed_form((4, 1, 1), 1, 3) == \
        eigenvalue_closed_form((3, 3), 1, 3)
    # the expansion still reproduces its unity share: checked by the grid test


def test_e_to_jack_round_trip():
    for m in (2, 3):
        for k in (2, 3, 4):
            for kappa in partitions_of(k, m):
                f = jack_expansion(kappa, Fraction(2), m)
                back = e_to_jack(f, Fraction(2)).as_dict()
                assert back == {kappa: Fraction(1)}
    # linear combination round trip
    f = (jack_expansion((3, 1), 1, 3).scale(Fraction(5, 7)) +
         jack_expansion((2, 2), 1, 3).scale(Fraction(-2, 3)))
    back = e_to_jack(f, 1).as_dict()
    assert back == {(3, 1): Fraction(5, 7), (2, 2): Fraction(-2, 3)}


def test_e_to_jack_ignores_term_insertion_order():
    product = jack_expansion((3, 1), 1, 4) * jack_expansion((2, 1), 1, 4)
    ascending, descending = (EPolynomial(dict(sorted(product.terms.items(), reverse=r)), 4)
                             for r in (False, True))
    assert e_to_jack(ascending, 1).terms == e_to_jack(descending, 1).terms


def test_e_to_jack_rejects_inhomogeneous():
    f = EPolynomial.term((2,), 2) + EPolynomial.term((1,), 2)
    with pytest.raises(ValueError):
        e_to_jack(f, 1)


def test_product_exact_evaluation():
    # linearization must reproduce the pointwise product exactly
    xs2 = [Fraction(3, 2), Fraction(-1, 3)]
    xs3 = [Fraction(2), Fraction(1, 5), Fraction(-1)]
    cases = [((2,), (1,), Fraction(1), 2, xs2),
             ((2, 1), (2,), Fraction(1), 2, xs2),
             ((1, 1), (2, 1), Fraction(2), 3, xs3),
             ((2,), (2,), Fraction(3, 7), 3, xs3)]
    for kappa, tau, beta, m, xs in cases:
        left = jack_expansion(kappa, beta, m).evaluate(xs)
        right = jack_expansion(tau, beta, m).evaluate(xs)
        total = Fraction(0)
        for delta, g in jack_product(kappa, tau, beta, m).terms:
            total += g * jack_expansion(delta, beta, m).evaluate(xs)
        assert total == left * right


def test_product_mass_identity():
    # evaluating the linearization at the identity point ties the g-sums to
    # identity values of the factors
    for kappa, tau, beta, m in [((2,), (1,), Fraction(1), 2),
                                ((2, 1), (1, 1), Fraction(2), 3),
                                ((3,), (2,), Fraction(1, 2), 2)]:
        lhs = Fraction(0)
        for delta, g in jack_product(kappa, tau, beta, m).terms:
            lhs += g * jack_at_identity(delta, beta, m)
        assert lhs == jack_at_identity(kappa, beta, m) * jack_at_identity(tau, beta, m)


def test_trace_power_product_matches_per_partition_sum():
    for k, tau, beta, m in [(3, (2, 1), Fraction(1), 2), (4, (2,), Fraction(2), 2),
                            (2, (1, 1), Fraction(1), 3), (0, (2, 1), Fraction(4), 2)]:
        fast = trace_power_product(k, tau, beta, m)
        slow = {}
        for kappa in partitions_of(k, m):
            for delta, g in jack_product(kappa, tau, beta, m).terms:
                slow[delta] = slow.get(delta, Fraction(0)) + g
        slow = {d: v for d, v in slow.items() if v}
        assert fast == slow


def test_identity_values_frozen():
    assert jack_at_identity((2,), 1, 2) == Fraction(8, 3)
    assert jack_at_identity((2, 1), 1, 3) == 18
    assert jack_at_identity((1,), 1, 5) == 5
    assert jack_at_identity((2, 2), Fraction(3, 7), 3) == Fraction(162288, 8959)


def test_identity_matches_expansion_evaluation():
    for m in (2, 3):
        for k in range(1, 5):
            for beta in (Fraction(1), Fraction(1, 2)):
                for kappa in partitions_of(k, m):
                    ones = [Fraction(1)] * m
                    assert jack_at_identity(kappa, beta, m) == \
                        jack_expansion(kappa, beta, m).evaluate(ones)


def test_cache_save_load_round_trip(tmp_path):
    path = os.path.join(tmp_path, "cache.json")
    jack_expansion((3, 1), Fraction(1, 2), 3)
    before = {k: dict(v.terms) for k, v in _snapshot().items()}
    n = save_expansion_cache(path)
    assert n == len(before) > 0
    clear_caches()
    assert _snapshot() == {}
    load_expansion_cache(path)
    after = {k: dict(v.terms) for k, v in _snapshot().items()}
    assert after == before


def test_cache_rejects_unknown_version(tmp_path):
    import json
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        json.dump({"version": 999, "entries": []}, fh)
    with pytest.raises(ValueError):
        load_expansion_cache(path)


@pytest.mark.parametrize("payload", [
    [1, 2],
    "text",
    {"version": 1},
    {"version": 1, "entries": 5},
    {"version": 1, "entries": [{"kappa": [1]}]},
    {"version": 1, "entries": [{"kappa": [1], "beta": "x", "m": 1, "terms": {}}]},
    {"version": 1, "entries": [{"kappa": [1, 2], "beta": "1", "m": 2, "terms": {}}]},
    {"version": 1, "entries": [{"kappa": [1], "beta": "1", "m": 2, "terms": {"1": "5"}}]},
    {"version": 1, "entries": [{"kappa": [1], "beta": "1", "m": 2, "terms": {}}]},
    {"version": 1, "entries": [{"kappa": [1], "beta": "1", "m": 1,
                                "terms": {"1": "1", "1,1": "0"}}]},
], ids=["list", "string", "no-entries", "entries-not-a-list", "missing-keys",
        "bad-beta", "bad-partition", "wrong-leading-coeff", "empty-terms", "too-many-parts"])
def test_cache_rejects_malformed_snapshot(tmp_path, payload):
    import json
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    before = _snapshot()
    with pytest.raises(ValueError):
        load_expansion_cache(path)
    assert _snapshot() == before


def test_cache_save_leaves_no_temporary_files(tmp_path):
    jack_expansion((2, 1), Fraction(1), 2)
    path = os.path.join(tmp_path, "cache.json")
    save_expansion_cache(path)
    save_expansion_cache(path)
    assert os.listdir(tmp_path) == ["cache.json"]


def _snapshot():
    from jackratio.jack import _EXPANSION_CACHE
    return dict(_EXPANSION_CACHE)
