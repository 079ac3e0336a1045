import pytest

from conftest import (FIXTURE_CONDUCTORS, SMALL_CONDUCTOR, brute_force_count,
                      seeded_models, spy)
from modpcurves.arith import factor, multiple_root
from modpcurves import tate
from modpcurves.tate import (ADDITIVE, GOOD, NONSPLIT_MULT, RECORD_CACHE_SIZE,
                             SPLIT_MULT, LocalData, MinimalCurve, conductor,
                             minimal_curve, tate_local)
from modpcurves.weierstrass import (SingularModel, WeierstrassModel,
                                    c_invariants, minimal_model, parse_curve,
                                    transform)


@pytest.mark.parametrize("text,value", SMALL_CONDUCTOR)
def test_small_conductors(text, value):
    assert conductor(parse_curve(text)).value() == value


@pytest.mark.parametrize("text,factors", FIXTURE_CONDUCTORS)
def test_fixture_conductors(text, factors):
    assert conductor(parse_curve(text)).factors == factors


def test_local_data_2118():
    E = parse_curve("[1,1,0,-22,-812]")
    at2 = tate_local(E, 2)
    assert (at2.reduction, at2.kodaira, at2.conductor_exponent) \
        == (NONSPLIT_MULT, "I18", 1)
    assert at2.discriminant_valuation == 18
    at353 = tate_local(E, 353)
    assert (at353.reduction, at353.kodaira) == (SPLIT_MULT, "I1")


def test_good_prime():
    ld = tate_local(parse_curve("[1,1,0,-22,-812]"), 5)
    assert ld.reduction == GOOD and ld.kodaira == "I0"
    assert ld.conductor_exponent == 0


def test_additive_cases():
    # j = 0 curve: additive at 2 and 3
    E = parse_curve("[0,0,0,0,1]")
    assert c_invariants(E)[2] == -432
    assert conductor(E).factors == ((2, 2), (3, 2))
    for p in (2, 3):
        assert tate_local(E, p).reduction == ADDITIVE


def test_kodaira_symbols_cover_star_types():
    seen = set()
    for text, _ in SMALL_CONDUCTOR + FIXTURE_CONDUCTORS:
        Emin, _, _ = minimal_model(parse_curve(text))
        for p, _ in factor(c_invariants(Emin)[2]).factors:
            seen.add(tate_local(Emin, p).kodaira)
    # the battery exercises multiplicative, small additive and star types
    assert any(k.startswith("I") and k.endswith("*") for k in seen)
    assert any(k in ("II", "III", "IV", "II*", "III*", "IV*", "I0*")
               for k in seen)


def test_conductor_exponent_caps():
    for text, _ in SMALL_CONDUCTOR + FIXTURE_CONDUCTORS:
        Emin, _, _ = minimal_model(parse_curve(text))
        for p, _ in factor(c_invariants(Emin)[2]).factors:
            ld = tate_local(Emin, p)
            cap = {2: 8, 3: 5}.get(p, 2)
            assert 0 < ld.conductor_exponent <= cap or ld.reduction == GOOD
            assert ld.conductor_exponent <= ld.discriminant_valuation


def test_nonminimal_model_rescaled():
    E = parse_curve("[0,-1,1,-10,-20]")
    blown = WeierstrassModel(0, -4, 8, -160, -1280)  # u = 2 blow-up
    assert c_invariants(blown)[2] == 2**12 * c_invariants(E)[2]
    for p in (2, 11):
        assert tate_local(blown, p) == tate_local(E, p)
    assert conductor(blown) == conductor(E)
    # [1,-1,1,-1,0] scaled by u = 2, then moved by (r, s, t): the rescale
    # applies to the model Tate's algorithm translated, not to the input
    assert tate_local(parse_curve("[-2,-7,-4,-3,16]"), 2) \
        == tate_local(parse_curve("[1,-1,1,-1,0]"), 2)


def test_nonminimal_models_match_minimal(rng):
    # F = Emin scaled by u = p (a_i -> a_i p^i), then moved by a random
    # integral (r, s, t): the local data at p are those of Emin. The conftest
    # curves and y^2 = x^3 + 5^3 x (III* at 5) bring the additive types,
    # seeded models mostly I_n.
    models = [minimal_model(parse_curve(text))[0]
              for text, _ in SMALL_CONDUCTOR + FIXTURE_CONDUCTORS]
    models.append(parse_curve("[0,0,0,125,0]"))
    models += [minimal_model(E)[0] for E in seeded_models(rng, 100 - len(models), 30)]
    kodairas = set()
    for Emin in models:
        for p in factor(c_invariants(Emin)[2]).support:
            expected = tate_local(Emin, p)
            kodairas.add(expected.kodaira)
            scaled = WeierstrassModel(*(a * p**i for a, i
                                        in zip(Emin.coeffs, (1, 2, 3, 4, 6))))
            for _ in range(2):
                F = transform(scaled, 1, *(rng.randint(-50, 50) for _ in range(3)))
                assert tate_local(F, p) == expected, (Emin, F, p)
    assert {"II", "III", "IV", "I0*", "I1*", "IV*", "III*", "II*"} <= kodairas


def singular_points_mod_2(E):
    """The (x, y) in F_2^2 where the reduction of E and both its partial
    derivatives vanish, by scanning the four points."""
    a1, a2, a3, a4, a6 = E.coeffs
    found = []
    for x in range(2):
        for y in range(2):
            fy = (2 * y + a1 * x + a3) % 2
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % 2
            f = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2
            if f == fy == fx == 0:
                found.append((x, y))
    return found


def test_singular_point_at_2_against_the_scan(rng):
    # the models tate_local sends to _singular_point(E, 2): 2 | c4 and
    # 2 | disc, as drawn and scaled by u = 2 (then moved by a random r, s, t)
    checked = 0
    for E in seeded_models(rng, 800, 50):
        c4, _, disc = c_invariants(E)
        if c4 % 2 or disc % 2:
            continue
        scaled = WeierstrassModel(*(a * 2**i for a, i in zip(E.coeffs, (1, 2, 3, 4, 6))))
        moved = transform(scaled, 1, *(rng.randint(-50, 50) for _ in range(3)))
        for F in (E, scaled, moved):
            assert singular_points_mod_2(F) == [tate._singular_point(F, 2)], F
        checked += 1
    assert checked > 150


def test_singular_input_rejected():
    with pytest.raises(SingularModel):
        tate_local(parse_curve("[0,0,0,0,0]"), 2)


def test_split_vs_nonsplit():
    # [0,0,0,0,-26]: split/nonsplit determined by tangent quadratic at each I_n
    E, _, _ = minimal_model(parse_curve("[0,0,0,0,-26]"))
    types = {p: tate_local(E, p).reduction
             for p, _ in factor(c_invariants(E)[2]).factors}
    assert set(types.values()) <= {SPLIT_MULT, NONSPLIT_MULT, ADDITIVE}


def test_localdata_invariants_enforced():
    with pytest.raises(AssertionError):
        LocalData(5, GOOD, 1, "I0", 0)
    with pytest.raises(AssertionError):
        LocalData(5, SPLIT_MULT, 2, "I3", 3)


def roots_by_scan(coeffs, p):
    """Independent oracle: every r in F_p, with its multiplicity found by
    synthetic division until the remainder is nonzero."""
    out = []
    for r in range(p):
        mult, work = 0, [c % p for c in coeffs]
        while len(work) > 1:
            acc, quot = 0, []
            for c in reversed(work):
                acc = (acc * r + c) % p
                quot.append(acc)
            if acc:
                break
            mult += 1
            work = quot[-2::-1]
        if mult:
            out.append((r, mult))
    return out


def _expand(lead, roots, p):
    """Ascending coefficients of lead * prod (x - r) mod p."""
    poly = [lead % p]
    for r in roots:
        poly = [(lo - r * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
    return poly


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 1009])
def test_multiple_root_matches_scan(p, rng):
    polys = []
    for _ in range(150):
        lead = rng.randrange(1, p)
        r1, r2, r3 = (rng.randrange(p) for _ in range(3))
        polys += [
            [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [lead],
            _expand(lead, [r1, r1, r2], p),  # forced double root
            _expand(lead, [r1, r1, r1], p),  # forced triple root
            _expand(lead, [r1, r2, r3], p),
            _expand(lead, [r1, r2], p),
            # shift by a multiple of p: the primitive reduces its input
            [c + p * rng.randint(-5, 5) for c in _expand(lead, [r1], p)],
        ]
    for poly in polys:
        multiple = [(r, m) for r, m in roots_by_scan(poly, p) if m >= 2]
        assert multiple_root(poly, p) == (multiple[0] if multiple else None), \
            (poly, p)


def _oracle_conductor_away_from_6(model):
    """Conductor exponents at p >= 5 from sympy: the bad primes divide the
    discriminant, and for a model minimal at p (v_p(disc) < 12 is checked)
    the reduction is multiplicative, f = 1, iff p does not divide c4,
    else additive, f = 2."""
    sympy = pytest.importorskip("sympy")
    a1, a2, a3, a4, a6 = model
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    out = []
    for p, e in sorted(sympy.factorint(abs(disc)).items()):
        if p >= 5:
            assert e < 12, (model, p)
            out.append((p, 1 if c4 % p else 2))
    return tuple(out)


@pytest.mark.parametrize("model,factors", [
    # bad prime 104012899; the former O(p) scan of F_p took 86 s on it and
    # gave the same conductor
    ([1, 0, 0, -1000003, 17],
     ((2, 1), (3, 1), (5, 2), (41, 1), (271, 1), (15383, 1), (104012899, 1))),
    # bad prime about 1.15 * 10^16, out of reach of any scan
    ([0, 0, 0, -12345678, 1],
     ((2, 3), (3, 2), (24137, 1), (11549356130769319, 1))),
])
def test_conductor_with_large_bad_prime(model, factors):
    N = conductor(WeierstrassModel(*model))
    assert N.factors == factors
    assert tuple(f for f in N.factors if f[0] >= 5) \
        == _oracle_conductor_away_from_6(model)


def test_minimal_curve_record_is_lazy(monkeypatch):
    calls = spy(monkeypatch, tate, "tate_local")
    E = parse_curve("[0,0,0,-43,-117]")
    C = MinimalCurve(E)
    assert (C.model, C.urst, C.disc) == minimal_model(E)
    assert calls == []
    assert C.local(2063) == tate_local(C.model, 2063)
    assert C.local(2063) is C.local(2063)
    assert [p for _, p in calls] == [2063]
    assert minimal_curve(C) is C
    assert minimal_curve(E).model == C.model


def test_equal_models_share_one_record():
    tate._record.cache_clear()
    C = minimal_curve(parse_curve("[1,1,0,-22,-812]"))
    assert minimal_curve(WeierstrassModel(1, 1, 0, -22, -812)) is C
    assert minimal_curve(C) is C
    # a record built by hand passes through and does not enter the cache
    D = MinimalCurve(parse_curve("[0,0,0,-43,-117]"))
    assert minimal_curve(D) is D
    assert tate._record.cache_info().currsize == 1


def test_record_cache_is_bounded(minimal_model_runs):
    # y^2 = x^3 + k, k = 1 .. N + 1: N + 1 distinct curves push out the first
    models = [WeierstrassModel(0, 0, 0, 0, k) for k in range(1, RECORD_CACHE_SIZE + 2)]
    first = minimal_curve(models[0])
    for E in models[1:]:
        minimal_curve(E)
    assert len(minimal_model_runs) == RECORD_CACHE_SIZE + 1
    assert tate._record.cache_info().currsize == RECORD_CACHE_SIZE
    minimal_curve(models[-1])
    assert len(minimal_model_runs) == RECORD_CACHE_SIZE + 1
    again = minimal_curve(models[0])
    assert again is not first and again.model == first.model
    assert len(minimal_model_runs) == RECORD_CACHE_SIZE + 2


def test_reduction_type_against_point_count(rng):
    # seeded minimal models, every bad p <= 500: the read-off of (c4, c6,
    # Delta) and the chain against a count that knows no Tate's algorithm
    models = [minimal_model(parse_curve(text))[0]
              for text, _ in SMALL_CONDUCTOR + FIXTURE_CONDUCTORS]
    models += [minimal_model(E)[0] for E in seeded_models(rng, 150 - len(models), 40)]
    expected = {SPLIT_MULT: 1, NONSPLIT_MULT: -1, ADDITIVE: 0}
    seen = set()
    for Emin in models:
        for p in factor(c_invariants(Emin)[2]).support:
            if p > 500:
                continue
            reduction = tate_local(Emin, p).reduction
            assert p + 1 - brute_force_count(Emin, p) == expected[reduction], (Emin, p)
            seen.add((p, reduction))
    for p in (2, 3):
        assert {(p, SPLIT_MULT), (p, NONSPLIT_MULT), (p, ADDITIVE)} <= seen
    assert any(p > 100 and red != ADDITIVE for p, red in seen)
