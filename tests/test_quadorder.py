import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spy
from modpcurves import arith, quadorder
from modpcurves.arith import legendre_symbol, primes_below
from modpcurves.quadorder import (GOOD_POSSIBLE, IMPOSSIBLE, MULT_POSSIBLE,
                                  QuadraticOrderElement, checked_d,
                                  compute_obstruction, curve_eligibility,
                                  hasse_interval, order_discriminant,
                                  reciprocity_cover)

small = st.integers(min_value=-40, max_value=40)


# Reference ring arithmetic on pairs (a, b) = a + b*omega: the oracle that
# multiplies A(ell) out whole in Z[omega] and takes the norm of the product.
def ref_mul(d, x, y):
    (a1, b1), (a2, b2) = x, y
    if d % 4 == 1:
        # omega^2 = omega + (d - 1)/4
        m = (d - 1) // 4
        return a1 * a2 + b1 * b2 * m, a1 * b2 + b1 * a2 + b1 * b2
    # omega^2 = d
    return a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2


def ref_conjugate(d, x):
    a, b = x
    # omega-bar = 1 - omega when d = 1 mod 4, else -omega
    return (a + b, -b) if d % 4 == 1 else (a, -b)


def ref_norm(d, x):
    n = ref_mul(d, x, ref_conjugate(d, x))
    assert n[1] == 0
    return n[0]


def ref_obstruction(d, a, ell):
    """A(ell) multiplied out whole in Z[omega], and its norm."""
    A = ref_mul(d, a, a)
    A = (A[0] - (1 + ell) ** 2, A[1])
    for i in hasse_interval(ell):
        A = ref_mul(d, A, (a[0] - i, a[1]))
    return A, ref_norm(d, A)


@given(small, small, small, small, st.sampled_from([2, 3, 5, 10, 13, 17]))
@settings(max_examples=300, deadline=None)
def test_norm_multiplicative(a1, b1, a2, b2, d):
    x = QuadraticOrderElement(d, a1, b1)
    y = QuadraticOrderElement(d, a2, b2)
    xy = QuadraticOrderElement(d, *ref_mul(d, (a1, b1), (a2, b2)))
    assert xy.norm() == x.norm() * y.norm() == ref_norm(d, (xy.a, xy.b))
    assert x.norm() == ref_norm(d, (a1, b1))
    c = ref_conjugate(d, (a1, b1))
    assert (x.trace(), 0) == (a1 + c[0], b1 + c[1])


def test_omega_relations():
    w5 = QuadraticOrderElement(5, 0, 1)   # (1 + sqrt 5)/2
    assert ref_mul(5, (0, 1), (0, 1)) == (1, 1)   # omega^2 = omega + 1
    assert w5.norm() == ref_norm(5, (0, 1)) == -1
    assert w5.trace() == 1
    w2 = QuadraticOrderElement(2, 0, 1)   # sqrt 2
    assert ref_mul(2, (0, 1), (0, 1)) == (2, 0)
    assert w2.norm() == ref_norm(2, (0, 1)) == -2
    assert w2.trace() == 0


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
    norm = compute_obstruction(a2, 2)
    assert norm is not None
    assert ref_obstruction(5, (-1, 1), 2) == ((-20, 5), 275)
    assert norm.value() == 275 and str(norm) == "5^2 * 11"
    assert set(norm.support) == {5, 11}


def test_obstruction_factors_d_at_most_once(monkeypatch):
    # checked_d factors d; the obstruction factors each m(i), through
    # arith.factor_product, and never d again
    d_calls = spy(monkeypatch, quadorder, "factor")
    calls = spy(monkeypatch, arith, "factor")
    a = QuadraticOrderElement(checked_d(5), -1, 1)
    assert d_calls == [(5,)] and calls == []
    norm = compute_obstruction(a, 1009)
    assert d_calls == [(5,)]
    # one factor call per m(i) = i^2 + i - 1 and none on d; m(2) = m(-3) = 5
    values = [i * i + i - 1 for i in (1010, -1010, *hasse_interval(1009))]
    factored = [n for n, in calls]
    assert sorted(factored) == sorted(values)
    assert factored.count(5) == values.count(5) == 2
    assert norm is not None and 5 in norm.support


def _differential_cases(n=252, seed=20261019):
    rng = random.Random(seed)
    ds = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 21, 29, 33, 37, 41)
    ells = primes_below(2000)
    cases = []
    for k in range(n):
        ell = rng.choice(ells[:25] if k % 2 else ells)
        if k % 5:
            a = (rng.randint(-40, 40), rng.randint(-12, 12))
        else:
            # rational: degenerate inside the Hasse interval or at +-(1+ell)
            m = hasse_interval(ell)[-1]
            a = (rng.choice((rng.randint(-m - 2, m + 2), 1 + ell, -1 - ell)), 0)
        cases.append((rng.choice(ds), a, ell))
    return cases


def test_obstruction_matches_the_whole_product():
    cases = _differential_cases()
    degenerate = 0
    for d, a, ell in cases:
        got = compute_obstruction(QuadraticOrderElement(d, *a), ell)
        A, norm = ref_obstruction(d, a, ell)
        assert (got is None) == (A == (0, 0)), (d, a, ell)
        if got is None:
            assert norm == 0
            degenerate += 1
        else:
            assert got.value() == norm, (d, a, ell)
    assert 0 < degenerate < len(cases)


def test_obstruction_at_a_large_ell_is_fast():
    start = time.perf_counter()
    norm = compute_obstruction(QuadraticOrderElement(5, -1, 1), 100003)
    assert time.perf_counter() - start < 1.0
    assert norm is not None and {5, 11} <= set(norm.support)


@pytest.mark.parametrize("d", (-5, 0, 1, 4, 12, 18))
def test_checked_rejects_a_d_that_is_not_squarefree_above_one(d):
    with pytest.raises(ValueError, match=f"d = {d} is not a squarefree integer > 1"):
        checked_d(d)


def test_checked_keeps_the_element():
    assert QuadraticOrderElement(checked_d(10), 3, -2) == QuadraticOrderElement(10, 3, -2)


def test_obstruction_rational_degenerate():
    one = QuadraticOrderElement(5, 1, 0)  # inside the Hasse interval at 2
    assert compute_obstruction(one, 2) is None


@pytest.mark.parametrize("a", (8, -8))
def test_obstruction_degenerate_at_plus_minus_one_plus_ell(a):
    # a = +-(1 + 7) lies outside the Hasse interval at 7 but kills the first factor
    assert 8 not in hasse_interval(7)
    assert compute_obstruction(QuadraticOrderElement(2, a, 0), 7) is None


def test_obstruction_rational_nonzero():
    # a rational value outside the Hasse interval at 2 and != +-3: nonzero
    a = QuadraticOrderElement(5, 7, 0)
    norm = compute_obstruction(a, 2)
    assert norm is not None
    assert norm.value() == ref_obstruction(5, (7, 0), 2)[1] != 0


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
        if p in (2, 5):
            continue
        d = reciprocity_cover(p, (2, 5, 10))
        assert d in (2, 5, 10) and legendre_symbol(d, p) == 1
    # multiplicativity identity behind the cover
    for p in primes_below(10000):
        if p in (2, 5):
            continue
        assert (legendre_symbol(2, p) * legendre_symbol(5, p)
                == legendre_symbol(10, p))


def test_reciprocity_cover_first_residue_or_none():
    assert reciprocity_cover(3, (2, 5, 10)) == 10
    assert reciprocity_cover(11, (2, 5, 10)) == 5
    assert reciprocity_cover(7, (2, 5, 10)) == 2
    # (3|7) = (5|7) = -1
    assert reciprocity_cover(7, (3, 5)) is None
