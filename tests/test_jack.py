import os
from fractions import Fraction

import pytest

from backward_build import trace_power_product
from jackratio import jack
from jackratio.esym import EPolynomial, eigenvalue_closed_form
from jackratio.jack import (DegenerateBetaError, _vertical_strips, clear_caches,
                            e_to_jack, jack_at_identity, jack_expansion,
                            jack_product, leading_elementary_coeff,
                            load_expansion_cache, save_expansion_cache)
from jackratio.partitions import conjugate, partitions_of
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


def e_basis_product(kappa, tau, beta, m):
    """The oracle: both factors in the E basis, multiplied, peeled back."""
    return e_to_jack(jack_expansion(kappa, beta, m) * jack_expansion(tau, beta, m), beta)


@pytest.mark.parametrize("beta", [Fraction(1), Fraction(2), Fraction(4),
                                  Fraction(1, 2), Fraction(2, 3), Fraction(3)])
def test_product_matches_e_basis_product(beta):
    # every ordered pair of total weight <= 7 in 2..5 variables, weight-0
    # factors included; == on the records checks the term order as well
    for m in range(2, 6):
        for total in range(8):
            for k in range(total + 1):
                for kappa in partitions_of(k, m):
                    for tau in partitions_of(total - k, m):
                        assert jack_product(kappa, tau, beta, m) == \
                            e_basis_product(kappa, tau, beta, m), (kappa, tau, m)


def _in_c_basis(p_terms, lead, beta):
    """sum_lam g_lam P_lam, times the constant `lead`, in the C basis."""
    return {lam: g * lead / leading_elementary_coeff(lam, beta)
            for lam, g in p_terms.items() if g}


def test_vertical_strip_rule_matches_e_basis_product():
    # C_(1^r) = c_(1^r) e_r, so C_mu C_(1^r) = c_mu c_(1^r) P_mu e_r
    for beta in BETAS[:4]:
        for m in (3, 4):
            for k in range(5):
                for mu in partitions_of(k, m):
                    for r in range(1, m + 1):
                        col = (1,) * r
                        lead = (leading_elementary_coeff(mu, beta)
                                * leading_elementary_coeff(col, beta))
                        got = _in_c_basis(dict(_vertical_strips(mu, r, m, 2 / beta)),
                                          lead, beta)
                        assert got == e_basis_product(mu, col, beta, m).as_dict()


def _b(arm, leg, alpha):
    return (alpha * arm + leg + 1) / (alpha * (arm + 1) + leg)


def _horizontal_strips(mu, r, m):
    """The lam in at most m rows with lam/mu a horizontal r-strip:
    mu_i <= lam_i <= mu_(i-1)."""
    parts = mu + (0,) * (min(m, len(mu) + 1) - len(mu))

    def fill(i, left):
        if i == len(parts):
            if not left:
                yield ()
            return
        top = left if i == 0 else min(left, parts[i - 1] - parts[i])
        for d in range(top, -1, -1):
            for rest in fill(i + 1, left - d):
                yield (parts[i] + d,) + rest

    return [tuple(p for p in lam if p) for lam in fill(0, r)]


def _phi(lam, mu, alpha):
    """phi_(lam/mu) = prod b_lam(s)/b_mu(s) over the cells s of lam in the
    columns that meet lam/mu, with b_mu(s) = 1 outside mu."""
    lc, mc = conjugate(lam), conjugate(mu)
    out = Fraction(1)
    for j in range(len(lc)):
        height = mc[j] if j < len(mc) else 0
        if lc[j] == height:
            continue
        for i in range(lc[j]):
            out *= _b(lam[i] - j - 1, lc[j] - i - 1, alpha)
            if i < height:
                out /= _b(mu[i] - j - 1, height - i - 1, alpha)
    return out


def test_horizontal_strip_rule_matches_e_basis_product():
    # the second, independent strip rule: P_mu g_r = sum phi_(lam/mu) P_lam
    # with g_r = b_(r) P_(r), b_(r) = prod over the cells of (r) of b(s)
    for beta in BETAS[:4]:
        alpha = 2 / beta
        for m in (2, 3, 4):
            for k in range(5):
                for mu in partitions_of(k, m):
                    for r in range(1, 4):
                        b_r = Fraction(1)
                        for j in range(r):
                            b_r *= _b(r - j - 1, 0, alpha)
                        lead = (leading_elementary_coeff(mu, beta)
                                * leading_elementary_coeff((r,), beta) / b_r)
                        p_terms = {lam: _phi(lam, mu, alpha)
                                   for lam in _horizontal_strips(mu, r, m)}
                        assert _in_c_basis(p_terms, lead, beta) == \
                            e_basis_product(mu, (r,), beta, m).as_dict()


def test_product_rejects_a_factor_with_too_many_parts():
    # the long factor is not the one expanded, so it is checked on its own
    for kappa, tau, long in [((1, 1, 1, 1), (1,), (1, 1, 1, 1)),
                             ((1,), (2, 1, 1, 1), (2, 1, 1, 1)),
                             ((1, 1, 1, 1), (3, 1, 1, 1), (1, 1, 1, 1))]:
        with pytest.raises(ValueError) as exc:
            jack_product(kappa, tau, 1, 3)
        assert str(exc.value) == f"C_{long} vanishes in 3 variables"


def test_product_with_a_weight_zero_factor():
    for beta in (Fraction(1), Fraction(2, 3)):
        assert jack_product((), (2, 1), beta, 3).terms == (((2, 1), Fraction(1)),)
        assert jack_product((3, 1), (), beta, 3).terms == (((3, 1), Fraction(1)),)
        assert jack_product((), (), beta, 2).terms == (((), Fraction(1)),)


def test_product_raises_degenerate_beta_exactly_when_the_lighter_expansion_does(
        monkeypatch):
    expanded = []

    def expansion(kappa, beta, m):
        expanded.append(kappa)
        if kappa in collide:
            raise DegenerateBetaError(f"collision in {kappa}")
        return jack_expansion(kappa, beta, m)

    monkeypatch.setattr(jack, "jack_expansion", expansion)
    collide = {(2, 1)}
    for kappa, tau in [((3, 1), (2, 1)), ((2, 1), (3, 1))]:
        with pytest.raises(DegenerateBetaError):
            jack_product(kappa, tau, 1, 3)
    assert expanded == [(2, 1), (2, 1)]
    # a collision in the heavier factor is never met: it is not expanded
    expanded.clear()
    collide = {(3, 1)}
    got = jack_product((3, 1), (2, 1), 1, 3)
    assert expanded == [(2, 1)]
    monkeypatch.undo()
    assert got == e_basis_product((3, 1), (2, 1), 1, 3)


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
