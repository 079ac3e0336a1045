import itertools

import pytest

from conftest import ALL_CURVES, brute_force_count, quadratic_twist, seeded_models
from modpcurves.arith import factor, legendre_symbol, primes_below
from modpcurves import frobenius
from modpcurves.frobenius import TABLE_BELOW, PrimeTooLarge, ap, count_points
from modpcurves.modp import (BAD_CONVENTION, GOOD_Q, IRREDUCIBLE, RAMIFIED_SKIP,
                             UNDETERMINED, is_reducible_semistable, trace_vector)
from modpcurves.tate import (ADDITIVE, GOOD, NONSPLIT_MULT, SPLIT_MULT,
                             MinimalCurve, tate_local)
from modpcurves.weierstrass import (WeierstrassModel, c4_c6, c_invariants,
                                    minimal_model, parse_curve)


def count_by_legendre(E, ell):
    """O(ell) count for odd ell: complete the square and add 1 + (g(x)|ell)
    over x, one modular exponentiation per x."""
    a1, a2, a3, a4, a6 = E.coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    n = 1
    for x in range(ell):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % ell
        n += 1 + legendre_symbol(g, ell)
    return n


@pytest.mark.parametrize("ell", [2, 3])
def test_closed_form_count_at_2_and_3_against_brute_force(ell):
    """Every class of (a1, a2, a3, a4, a6) mod ell, singular models included,
    each as the residue and as a negative representative of it."""
    for coeffs in itertools.product(range(ell), repeat=5):
        for shift in (0, -ell * 10**6):
            E = WeierstrassModel(*(c + shift for c in coeffs))
            assert count_points(E, ell) == brute_force_count(E, ell), E


def test_count_points_against_legendre_oracle():
    # every odd ell <= 500, bad ell included (additive and multiplicative),
    # then two larger ell on two curves
    kinds = set()
    for E in map(parse_curve, ALL_CURVES):
        Emin, _, _ = minimal_model(E)
        disc = c_invariants(Emin)[2]
        for ell in primes_below(501)[1:]:
            for C in (E, Emin):
                assert count_points(C, ell) == count_by_legendre(C, ell), (C, ell)
            if disc % ell == 0:
                kinds.add(tate_local(Emin, ell).reduction)
    assert kinds == {ADDITIVE, SPLIT_MULT, NONSPLIT_MULT}
    for text in ("[1,1,0,-22,-812]", "[0,0,1,-791019,270787421]"):
        E = parse_curve(text)
        for ell in (1009, 10007):
            assert count_points(E, ell) == count_by_legendre(E, ell), (E, ell)


def short_model_counts(ell):
    """counts[A][B] = #{y^2 = x^3 + A x + B over F_ell}, by enumerating every
    (x, y, A): the affine point (x, y) lies on the curve with that A and
    B = y^2 - x^3 - A x, so each curve's points are counted one by one."""
    counts = [[1] * ell for _ in range(ell)]
    for x in range(ell):
        for y in range(ell):
            for A in range(ell):
                counts[A][(y * y - x**3 - A * x) % ell] += 1
    return counts


def test_short_model_counts_agree_with_brute_force():
    for ell in (5, 7, 11, 13):
        counts = short_model_counts(ell)
        for A in range(ell):
            for B in range(ell):
                E = WeierstrassModel(0, 0, 0, A, B)
                assert counts[A][B] == brute_force_count(E, ell), (A, B, ell)


def test_table_count_every_short_model_to_61():
    # every (A, B) in F_ell^2: both twist classes of A (square and nonsquare),
    # ell = 1 and 3 mod 4, A = 0 (j = 0, a table read like any other A, at
    # ell = 1 and 2 mod 3) and the singular models 4A^3 + 27B^2 = 0
    ells = primes_below(62)[2:]
    assert ells[0] == 5 and ells[-1] == 61
    assert {ell % 4 for ell in ells} == {1, 3} and {ell % 3 for ell in ells} == {1, 2}
    for ell in ells:
        counts = short_model_counts(ell)
        for A in range(ell):
            for B in range(ell):
                assert count_points(WeierstrassModel(0, 0, 0, A, B), ell) \
                    == counts[A][B], (A, B, ell)


def test_table_count_against_legendre_oracle(rng):
    # every odd ell < 2000, on both sides of TABLE_BELOW: seeded curves with
    # large coefficients, a cusp y^2 = x^3 and a node y^2 = x^3 + x^2 (singular
    # at every ell), and curves with bad ell = 5 (additive) and 353 (split)
    ells = primes_below(2000)[1:]
    assert ells[:3] == [3, 5, 7] and ells[0] < TABLE_BELOW < ells[-1]
    curves = [WeierstrassModel(*(rng.randrange(-10**9, 10**9) for _ in range(5)))
              for _ in range(3)]
    curves += [WeierstrassModel(0, 0, 0, 0, 0), WeierstrassModel(0, 1, 0, 0, 0),
               parse_curve("[0,0,1,-50,281]"), parse_curve("[1,1,0,-22,-812]")]
    for E in curves:
        for ell in ells:
            assert count_points(E, ell) == count_by_legendre(E, ell), (E, ell)


def test_count_at_or_above_cap_caches_nothing():
    E = parse_curve("[0,0,1,-1,0]")
    for ell in (1031, 2003):
        assert ell >= TABLE_BELOW
        assert count_points(E, ell) == count_by_legendre(E, ell)
        assert ell not in frobenius._TABLES


def test_cache_holds_only_primes_below_cap():
    E = parse_curve("[0,-1,1,-10,-20]")
    for ell in primes_below(1100):
        count_points(E, ell)
    primes = set(primes_below(TABLE_BELOW))
    assert set(frobenius._TABLES) == primes - {2, 3}
    # U (five segments of ell counts), off and mul, all in 16-bit slots:
    # 14 ell bytes
    for ell, (U, off, mul) in frobenius._TABLES.items():
        assert len(U) == 5 * ell and len(off) == len(mul) == ell
        assert U.nbytes + off.nbytes + mul.nbytes <= 14 * ell
        # segments 2 and 3 are the twists of 0 and 1; segment 4, n_0, is
        # ell + 1 throughout when ell = 2 mod 3
        for B in range(ell):
            assert U[B] + U[2 * ell + B] == U[ell + B] + U[3 * ell + B] == 2 * ell + 2
            assert ell % 3 == 1 or U[4 * ell + B] == ell + 1
        # j = 0 reads n_0 at B itself
        assert off[0] == 4 * ell and mul[0] == 1, ell
        # a = r d^2 with r = 1 for a square, else z, the least nonresidue;
        # mul[a] = d^-3 for some such d, and off[a] starts the segment of r
        # (0 for 1, ell for z), plus 2 ell when d is a nonsquare
        root = {d * d % ell: d for d in range(1, ell)}
        z = next(v for v in range(2, ell) if v not in root)
        for a in range(1, ell):
            r = 1 if a in root else z
            d = root[a * pow(r, -1, ell) % ell]
            ds = [e for e in (d, ell - d) if pow(e, -3, ell) == mul[a]]
            assert len(ds) == 1, (ell, a)
            twist = 0 if ds[0] in root else 2 * ell
            assert off[a] == (0 if r == 1 else ell) + twist, (ell, a)
    # 0.30 MB for the primes below 500, 1.12 MB for all of them
    assert 14 * sum(primes) <= 2**21


def test_j_zero_at_ell_2_mod_3_has_ell_plus_1_points():
    # x -> x^3 permutes F_ell when ell = 2 mod 3, so y^2 = x^3 + b has
    # ell + 1 points for every b, b = 0 (the cusp) included: the constant
    # segment below TABLE_BELOW, no count above it. ell = 1 mod 3 (1033,
    # 1039) is still counted above it
    ells = [5, 11, 503, 1013, 1031, 1033, 1039, 1997]
    assert [ell % 3 for ell in ells] == [2, 2, 2, 2, 2, 1, 1, 2]
    assert ells[3] < TABLE_BELOW < ells[4]
    models = [parse_curve("[0,0,1,0,0]"), parse_curve("[0,0,1,0,-7]")]
    for ell in ells:
        for E in models + [WeierstrassModel(0, 0, 0, k * ell, b)
                           for k in (0, 3) for b in (0, 1, -7, ell, 5 * ell)]:
            assert c4_c6(E)[0] % ell == 0
            n = count_points(E, ell)
            assert n == count_by_legendre(E, ell), (E, ell)
            assert ell % 3 == 1 or n == ell + 1, (E, ell)


@pytest.mark.parametrize("ell", [0, 1, 4, 9, 25, 1001, 1025, -5])
def test_non_prime_ell_raises_and_caches_nothing(ell):
    E = parse_curve("[0,-1,1,-10,-20]")
    with pytest.raises(ValueError, match="not prime"):
        count_points(E, ell)
    with pytest.raises(ValueError, match="not prime"):
        ap(E, ell)
    assert ell not in frobenius._TABLES


def test_ap_against_brute_force_oracle():
    ells = [ell for ell in primes_below(51)]
    curves = [parse_curve(t) for t in ALL_CURVES]
    curves += [quadratic_twist(E, d) for E, d in
               zip(curves, [-1, 2, -2, 5, -5, 7, -7, 10, -10, 13])]
    assert len(curves) >= 50
    # at a bad ell too: a split node has ell points on the minimal model, a
    # nonsplit node ell + 2 and a cusp ell + 1, so ell + 1 - #Emin(F_ell) is
    # the convention 1, -1 or 0
    bad = 0
    for E in curves:
        Emin, _, _ = minimal_model(E)
        disc = c_invariants(Emin)[2]
        for ell in ells:
            assert count_points(Emin, ell) == brute_force_count(Emin, ell)
            assert ap(E, ell) == ell + 1 - brute_force_count(Emin, ell), (E, ell)
            bad += disc % ell == 0
    assert bad >= 80


def test_hasse_bound_to_500():
    E = parse_curve("[1,1,0,-22,-812]")
    F = parse_curve("[0,0,1,-1,0]")
    for ell in primes_below(501):
        for C in (E, F):
            if c_invariants(C)[2] % ell:
                a = ap(C, ell)
                assert a * a < 4 * ell


def test_bad_prime_conventions():
    E = parse_curve("[1,1,0,-22,-812]")
    assert ap(E, 2) == -1  # nonsplit
    assert ap(E, 353) == 1  # split
    assert ap(parse_curve("[0,0,0,0,1]"), 2) == 0  # additive


def test_known_ap_values():
    X0_11 = parse_curve("[0,-1,1,-10,-20]")
    assert ap(X0_11, 2) == -2
    assert ap(X0_11, 3) == -1
    assert ap(X0_11, 5) == 1
    assert ap(X0_11, 7) == -2
    assert ap(X0_11, 13) == 4


def test_twist_equivariance(rng):
    # ap(E_d, ell) = (d|ell) * ap(E, ell) at good odd ell not dividing d
    pool = [parse_curve(t) for t in ALL_CURVES]
    pairs = 0
    while pairs < 20:
        E = rng.choice(pool)
        d = rng.choice([-1, 2, -2, 3, 5, -5, 7, 10, -11, 13])
        Ed = quadratic_twist(E, d)
        for ell in primes_below(50):
            if ell == 2 or d % ell == 0:
                continue
            if c_invariants(minimal_model(E)[0])[2] % ell == 0:
                continue
            if tate_local(minimal_model(Ed)[0], ell).reduction != GOOD:
                continue
            assert ap(Ed, ell) == legendre_symbol(d, ell) * ap(E, ell), (E, d, ell)
        pairs += 1


def test_prime_too_large():
    with pytest.raises(PrimeTooLarge):
        ap(parse_curve("[0,0,1,-1,0]"), 10**7 + 19)


def test_bad_prime_above_the_counting_bound():
    # y^2 + xy = x^3 + q: c4 = 1 and Delta = -q (1 + 432 q), so mod q it is
    # the node y^2 + xy = x^3, with rational tangents y = 0 and y = -x: split.
    # Nothing is counted at a bad prime, so the bound does not apply; a good
    # ell above it still raises
    q = 1000003
    assert q > frobenius.DEFAULT_COUNT_BOUND
    E = WeierstrassModel(1, 0, 0, 0, q)
    assert ap(E, q) == 1
    # the small bad primes, of 1 + 432 q, against a count on the model
    bad = [ell for ell in factor(c_invariants(E)[2]).support if ell < q]
    assert bad == [7, 13, 17, 41, 139]
    assert {ap(E, ell) for ell in bad} == {1, -1}
    for ell in bad:
        assert ap(E, ell) == ell + 1 - count_points(E, ell), ell
    with pytest.raises(PrimeTooLarge, match="ell = 1000033 "):
        ap(E, 1000033)


def test_one_pass_matches_ap_one_ell_at_a_time(rng):
    # the per-curve pass behind trace_vector and is_reducible_semistable
    # against ap at one ell at a time, and ap against the Legendre count, on
    # seeded models (additive ones among them), a model with c4 = 0 (j = 0 at
    # every ell), X0(11) (c4 = 2^4 * 31: j = 0 at 31), and a non-minimal short
    # model of X0(11), each as given and as its MinimalCurve, for every
    # ell <= 1100 (2 and 3 included, both sides of TABLE_BELOW)
    bound = 1100
    ells = primes_below(bound + 1)
    assert ells[:2] == [2, 3] and ells[-1] > TABLE_BELOW
    curves = [parse_curve("[0,0,1,0,-7]"), parse_curve("[0,-1,1,-10,-20]"),
              WeierstrassModel(0, 0, 0, -27 * 496, -54 * 20008)]
    curves += seeded_models(rng, 37, 30)
    additive = j_zero = 0
    for E in curves:
        Emin, _, disc = minimal_model(E)
        C = MinimalCurve(E)
        a = {}
        for ell in ells:
            a[ell] = ap(C, ell)
            count = brute_force_count(Emin, ell) if ell == 2 else count_by_legendre(Emin, ell)
            assert a[ell] == ell + 1 - count, (E, ell)
            assert ap(E, ell) == a[ell], (E, ell)
        for ell in disc.support:
            additive += ell <= bound and C.local(ell).reduction == ADDITIVE
        c4 = c_invariants(Emin)[0]
        j_zero += any(c4 % ell == 0 and not disc.exponent(ell)
                      for ell in ells if 5 <= ell < TABLE_BELOW)
        for p in (3, 5):
            want = []
            for ell in ells:
                if ell == p:
                    continue
                v = disc.exponent(ell)
                if not v:
                    want.append((ell, a[ell] % p, GOOD_Q))
                elif C.local(ell).reduction == ADDITIVE or v % p:
                    want.append((ell, 0, RAMIFIED_SKIP))
                else:
                    want.append((ell, a[ell] * (1 + ell) % p, BAD_CONVENTION))
            for F in (E, C):
                assert trace_vector(F, p, bound).entries == tuple(want), (E, p)
            for b in (7, 30, bound):
                witness = any((a[ell] - 1 - ell) % p for ell, _, q in want
                              if q == GOOD_Q and ell <= b)
                for F in (E, C):
                    assert is_reducible_semistable(F, p, b) == (
                        IRREDUCIBLE if witness else UNDETERMINED), (E, p, b)
    assert additive >= 10 and j_zero >= 2
