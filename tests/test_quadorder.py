import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpcurves import quadorder
from modpcurves.arith import factor, legendre_symbol, primes_below
from modpcurves.quadorder import (GOOD_POSSIBLE, IMPOSSIBLE, MULT_POSSIBLE,
                                  QuadraticOrderElement, compute_obstruction,
                                  curve_eligibility, hasse_interval,
                                  order_discriminant, reciprocity_cover)

small = st.integers(min_value=-40, max_value=40)


@given(small, small, small, small, st.sampled_from([2, 3, 5, 10, 13, 17]))
@settings(max_examples=300, deadline=None)
def test_norm_multiplicative(a1, b1, a2, b2, d):
    x = QuadraticOrderElement(d, a1, b1)
    y = QuadraticOrderElement(d, a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_omega_relations():
    w5 = QuadraticOrderElement(5, 0, 1)   # (1 + sqrt 5)/2
    assert w5 * w5 == w5 + 1
    assert w5.norm() == -1
    w2 = QuadraticOrderElement(2, 0, 1)   # sqrt 2
    assert (w2 * w2) == QuadraticOrderElement(2, 2, 0)
    assert w2.norm() == -2


def test_order_discriminant_and_splitting():
    assert order_discriminant(5) == 5
    assert order_discriminant(2) == 8
    assert order_discriminant(10) == 40


def test_hasse_interval_exact():
    assert list(hasse_interval(2)) == [-2, -1, 0, 1, 2]
    for ell in primes_below(200):
        iv = hasse_interval(ell)
        assert iv[0] ** 2 < 4 * ell and (iv[0] - 1) ** 2 >= 4 * ell


def test_obstruction_level23():
    # eigenvalue a_2 = -1 + (1 + sqrt 5)/2 at ell = 2
    a2 = QuadraticOrderElement(5, -1, 1)
    rep = compute_obstruction(a2, 2)
    assert not rep.degenerate
    assert rep.A_value == QuadraticOrderElement(5, -20, 5)
    assert rep.norm == 275
    assert rep.obstructed_primes == frozenset({5, 11})


def test_obstruction_factors_d_at_most_once(monkeypatch):
    # every sum and product used to factor d again: 387 calls of factor(5)
    calls = []

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(quadorder, "factor", counted)
    rep = compute_obstruction(QuadraticOrderElement.checked(5, -1, 1), 1009)
    assert calls.count(5) <= 1
    assert not rep.degenerate and rep.obstructed_primes
    assert rep.obstructed_primes == frozenset(factor(abs(rep.norm)).support)


@pytest.mark.parametrize("d", (-5, 0, 1, 4, 12, 18))
def test_checked_rejects_a_d_that_is_not_squarefree_above_one(d):
    with pytest.raises(ValueError, match=f"d = {d} is not a squarefree integer > 1"):
        QuadraticOrderElement.checked(d, 1, 1)


def test_checked_keeps_the_element():
    assert QuadraticOrderElement.checked(10, 3, -2) == QuadraticOrderElement(10, 3, -2)


def test_obstruction_rational_degenerate():
    one = QuadraticOrderElement(5, 1, 0)  # inside the Hasse interval at 2
    rep = compute_obstruction(one, 2)
    assert rep.degenerate and rep.norm == 0
    assert rep.obstructed_primes == frozenset()


def test_obstruction_rational_nonzero():
    # a rational value outside the Hasse interval at 2 and != +-3: nonzero
    a = QuadraticOrderElement(5, 7, 0)
    rep = compute_obstruction(a, 2)
    assert not rep.degenerate and rep.norm != 0


def test_curve_eligibility():
    # residue 4 mod 7 at ell = 2: outside Hasse, equals -(1+2) mod 7
    assert curve_eligibility(4, 2, 7) == MULT_POSSIBLE
    assert curve_eligibility(1, 2, 7) == GOOD_POSSIBLE
    assert curve_eligibility(5, 2, 11) == IMPOSSIBLE
    assert curve_eligibility(3, 2, 7) == MULT_POSSIBLE  # +(1+2)
    # small p: everything hits the Hasse interval mod 3
    assert curve_eligibility(2, 2, 3) == GOOD_POSSIBLE


def test_reciprocity_cover_exhaustive():
    for p in primes_below(10000):
        if p in (2, 5) or p <= 11:
            continue
        d = reciprocity_cover(p, (2, 5, 10))
        assert d in (2, 5, 10) and legendre_symbol(d, p) == 1
    # multiplicativity identity behind the cover
    for p in primes_below(10000):
        if p in (2, 5):
            continue
        assert (legendre_symbol(2, p) * legendre_symbol(5, p)
                == legendre_symbol(10, p))
