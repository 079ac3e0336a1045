import itertools
import math
import random
import time
from math import gcd, isqrt, prod

import pytest

from conftest import spy
from modpcurves import mordell
from modpcurves.arith import icbrt, is_prime
from modpcurves.cli import main
from modpcurves.cubic import (analyze_cubic, congruence_sieve, index_form,
                              solve_index_equation)
from modpcurves.mordell import (_SIEVE_GROUPS, _SQUARE_TABLES, SIntegerPoint,
                                _denominators, _sieve, scan_twisted_mordell,
                                search_mordell)


def naive_integral_points(k, bound):
    """Direct reference scan without the residue pre-filter."""
    pts = []
    for x in range(-bound, bound + 1):
        t = x**3 + k
        if t < 0:
            continue
        y = isqrt(t)
        if y * y == t:
            pts.append((x, y))
    return pts


def _denoms(S, e):
    return sorted({prod(p**n for p, n in zip(sorted(S), exps))
                   for exps in itertools.product(range(e + 1), repeat=len(S))})


def _signed(hits, d):
    """(x, y, d) and (x, -y, d) for each hit (x, y) with y >= 0."""
    return {(x, s * y, d) for x, y in hits for s in ((1, -1) if y else (1,))}


_SCAN_MOD = 64 * 63
_SCAN_SQUARES = {m: {(i * i) % m for i in range(m)} for m in (_SCAN_MOD, 65, 11)}


def scan_integral_points(K, bound, coprime_to=1):
    """The mod-4032 residue scan that the sieve replaced: x runs over each
    class mod 4032 with x^3 + K a square mod 4032, then a mod-65 and mod-11
    filter, then isqrt."""
    allowed = [r for r in range(_SCAN_MOD)
               if (r * r * r + K) % _SCAN_MOD in _SCAN_SQUARES[_SCAN_MOD]]
    hits = []
    for r in allowed:
        x = -bound + ((r + bound) % _SCAN_MOD)
        while x <= bound:
            t = x**3 + K
            if t >= 0 and all(t % m in _SCAN_SQUARES[m] for m in (65, 11)):
                y = isqrt(t)
                if y * y == t and gcd(x, coprime_to) == 1:
                    hits.append((x, y))
            x += _SCAN_MOD
    return hits


def naive_s_integral_points(k, S, bound, e):
    """Every d, every x_num in the box, with the gcd condition."""
    pts = set()
    for d in _denoms(S, e):
        K = k * d**6
        pts |= _signed([(x, y) for x, y in naive_integral_points(K, bound)
                        if gcd(x, d) == 1], d)
    return pts


def scan_s_integral_points(k, S, bound, e):
    pts = set()
    for d in _denoms(S, e):
        pts |= _signed(scan_integral_points(k * d**6, bound, d), d)
    return pts


def _seeded_boxes(n=40, seed=20260):
    """Seeded boxes: both signs of k, S within {2, 3, 5, 7}, e <= 2, H = 0
    among them, and k = t^3 + u^2 with (t, u) small, so that about half the
    boxes hold an integral point."""
    rng = random.Random(seed)
    boxes = [(1, set(), 0, 0), (-2, {2, 3}, 0, 2), (17, {2}, 60, 2)]
    while len(boxes) < n:
        if rng.random() < 0.5:
            t, u = rng.randint(-12, 12), rng.randint(0, 40)
            k = t**3 + u * u
        else:
            k = rng.choice((1, -1)) * rng.randint(1, 3000)
        if k == 0:
            continue
        S = set(rng.sample((2, 3, 5, 7), rng.randint(0, 3)))
        boxes.append((k, S, rng.randint(0, 400), rng.randint(0, 2)))
    return boxes


SEEDED_BOXES = _seeded_boxes()


def test_seeded_boxes_cover_the_cases():
    assert len(SEEDED_BOXES) == 40
    assert any(k < 0 for k, *_ in SEEDED_BOXES)
    assert any(H == 0 for _, _, H, _ in SEEDED_BOXES)
    assert any(S and e for _, S, _, e in SEEDED_BOXES)
    found = [naive_s_integral_points(*box) for box in SEEDED_BOXES]
    assert sum(bool(pts) for pts in found) >= 15
    assert any(d > 1 for pts in found for _, _, d in pts)


@pytest.mark.parametrize("box", SEEDED_BOXES, ids=lambda b: f"{b[0]}-{sorted(b[1])}-{b[2]}-{b[3]}")
def test_search_matches_both_oracles(box):
    got = [(P.x_num, P.y_num, P.denom) for P in search_mordell(*box)]
    assert got == sorted(got, key=lambda t: (t[2], t[0], t[1]))
    assert set(got) == naive_s_integral_points(*box)
    assert set(got) == scan_s_integral_points(*box)


def _y_width(k, bound, d):
    """The number of y in [ceil(sqrt(x_lo^3 + K)), isqrt(bound^3 + K)],
    K = k d^6 and x_lo the least x of the box with x^3 + K >= 0, or None
    when there is no such x."""
    K = k * d**6
    x_lo = max(-bound, -icbrt(K))
    if x_lo > bound:
        return None
    t = x_lo**3 + K
    return isqrt(bound**3 + K) - (isqrt(t - 1) + 1 if t else 0) + 1


def _side(k, bound, d):
    """How search_mordell searches the denominator d of its box."""
    width = _y_width(k, bound, d)
    if width is None:
        return "empty"
    return "y" if mordell._BITS_PER_Y * width <= 2 * bound + 1 else "sieve"


def _side_boxes(n=30, seed=20261019):
    """Seeded boxes for the three ways of searching a denominator, in turn:
    a point (c^2 / d^2, (c^3 + m d^6) / d^3) planted on k = 2 c^3 m + m^2 d^6
    at a d > 1, with |m| up to 10^4 so that its y-interval is short; k < 0
    with |k| d^6 > bound^3 at large d, an empty x-range; and small k."""
    rng = random.Random(seed)
    boxes = []
    while len(boxes) < n:
        S = set(rng.sample((2, 3, 5, 7), rng.randint(1, 3)))
        e, bound = rng.randint(1, 2), rng.randint(1, 1000)
        if len(boxes) % 3 == 0:
            d = prod(p**rng.randint(1, e) for p in S)
            c = rng.randint(1, isqrt(bound))
            if gcd(c, d) > 1:
                continue
            m = rng.choice((1, -1)) * rng.randint(1, 10**4)
            k = 2 * c**3 * m + m * m * d**6
        elif len(boxes) % 3 == 1:
            k = -rng.randint(1, 10**5)
        else:
            k = rng.choice((1, -1)) * rng.randint(1, 3000)
        boxes.append((k, S, bound, e))
    return boxes


SIDE_BOXES = _side_boxes()


def test_side_boxes_reach_every_side(monkeypatch):
    sieved = spy(monkeypatch, mordell, "_sieve")
    sides = set()
    for k, S, bound, e in SIDE_BOXES:
        side = {d: _side(k, bound, d) for d in _denominators(S, e)}
        sieved.clear()
        pts = search_mordell(k, S, bound, e)
        assert [(K, d) for K, _, d, _, _ in sieved] \
            == [(k * d**6, d) for d, way in side.items() if way == "sieve"]
        sides |= {("empty", k < 0 and d > 1) for d, way in side.items() if way == "empty"}
        sides |= {(side[P.denom], P.denom > 1) for P in pts}
    assert {("empty", True), ("y", True), ("sieve", True)} <= sides


@pytest.mark.parametrize("box", SIDE_BOXES, ids=lambda b: f"{b[0]}-{sorted(b[1])}-{b[2]}-{b[3]}")
def test_search_matches_the_scan_on_every_side(box):
    got = [(P.x_num, P.y_num, P.denom) for P in search_mordell(*box)]
    assert got == sorted(got, key=lambda t: (t[2], t[0], t[1]))
    assert set(got) == scan_s_integral_points(*box)


@pytest.mark.parametrize("k, bound", [
    # k = 2 c^3 m + m^2 for (c, m) = (2, 16) and (28, 160610101): the point
    # (c^2, c^3 + m) ends the box and its y-interval, of 3 values in each
    (512, 4), (25802655969104505, 784)])
def test_y_interval_as_wide_as_the_threshold(monkeypatch, k, bound):
    width, nbits = _y_width(k, bound, 1), 2 * bound + 1
    assert width == 3 and nbits % width == 0
    sieved = spy(monkeypatch, mordell, "_sieve")
    want = naive_s_integral_points(k, set(), bound, 0)
    assert (bound, isqrt(bound**3 + k), 1) in want
    # at nbits / width bits per y the y side is taken; one more, the sieve
    for ratio, calls in ((nbits // width, []), (nbits // width + 1, [k])):
        monkeypatch.setattr(mordell, "_BITS_PER_Y", ratio)
        sieved.clear()
        assert {(P.x_num, P.y_num, P.denom) for P in search_mordell(k, set(), bound, 0)} == want
        assert [K for K, *_ in sieved] == calls


def test_square_tables_are_the_squares_mod_q():
    for q, table in _SQUARE_TABLES.items():
        assert len(table) == q and set(table) == set(b"01")
        assert {r for r in range(q) if table[r] == ord("1")} == {y * y % q for y in range(q)}


def test_sieve_groups_pair_every_modulus_once():
    moduli = [q for group in _SIEVE_GROUPS for q in group]
    assert moduli == list(_SQUARE_TABLES) and len(_SIEVE_GROUPS) == 7
    for group in _SIEVE_GROUPS:
        assert math.lcm(*group) == prod(group) and math.lcm(prod(group), 8) <= 8 * 1763


def test_fixture_box_pays_one_full_width_mask_per_group(monkeypatch):
    # search_mordell(891216, {2, 3, 2063}, 10^5, 4) of verify: of its 125
    # denominators only those with a long y-interval are sieved, each with one
    # full-width mask per group; one per modulus would be 13 per denominator
    bound = 10**5
    calls = spy(monkeypatch, mordell, "tile")
    assert search_mordell(891216, {2, 3, 2063}, bound, 4) == []
    denominators = _denominators({2, 3, 2063}, 4)
    sieved = [d for d in denominators if _side(891216, bound, d) == "sieve"]
    products = {prod(group) for group in _SIEVE_GROUPS}
    full = [period for _, period, nbits in calls if nbits == 2 * bound + 1]
    blocks = sum(period in products for period in full)
    assert len(denominators) == 125 and len(sieved) == 25
    assert blocks == len(_SIEVE_GROUPS) * len(sieved)
    # the other full-width masks are the x prime to p, one per prime of S
    # that divides a sieved denominator
    assert sorted(p for p in full if p not in products) \
        == [p for p in (2, 3, 2063) if any(d % p == 0 for d in sieved)]
    # the rest are the group builds, each as wide as its group's product
    rest = [(period, nbits) for _, period, nbits in calls if nbits != 2 * bound + 1]
    assert all(nbits in products and nbits % period == 0 for period, nbits in rest)
    assert len(rest) <= len(_SIEVE_GROUPS) * len(sieved)


@pytest.mark.parametrize("K, bound, d, S", [
    (17, 300, 1, set()), (-26 * 2**6, 257, 2, {2, 3}),
    (891216 * 6**6, 500, 6, {2, 3, 2063}), (5 * 35**6, 131, 35, {5, 7}),
    (1, 0, 1, set()), (-1, 1, 3, {3}), (2**6, 50, 2, {2}), (3**6, 40, 3, {3}),
    # boxes narrower than every sieve modulus
    (2**6, 0, 2, {2}), (-7, 1, 1, set()), (10 * 5**6, 3, 5, {1, 5}),
    # 2 * bound + 1 in every odd class mod 8, bound in every class mod 8
    *((-2 - 3 * b, b, 1, set()) for b in range(100, 108)),
    # a prime of d wider than the box clears x = 0 alone
    ((10**9 + 7)**6, 60, 10**9 + 7, {2, 10**9 + 7}),
    # x = bound = 64 has x^3 + K = 520^2; the doubled mask must still clear it
    (129 * 2**6, 64, 2, {2}),
    # 2 * bound + 1 just below and above the widest group product, 4032, and
    # at, below and above the narrowest, 47, where tiling stops mid-block
    (-26, 2015, 1, set()), (17 * 2**6, 2016, 2, {2}),
    (-7, 22, 1, set()), (1, 23, 1, set()), (5 * 3**6, 24, 3, {3})])
def test_sieve_keeps_exactly_the_locally_possible_x(K, bound, d, S):
    squares = {q: {y * y % q for y in range(q)} for q in _SQUARE_TABLES}
    want = [int(all((x**3 + K) % q in squares[q] for q in squares)
                and all(x % p for p in S if d % p == 0))
            for x in range(-bound, bound + 1)]
    live = _sieve(K, bound, d, S, {})
    assert [live >> i & 1 for i in range(2 * bound + 1)] == want
    assert live >> (2 * bound + 1) == 0


def test_sieve_prime_of_S_above_the_box_is_fast():
    start = time.perf_counter()
    pts = search_mordell(1, {2, 10**9 + 7}, 10**5, 2)
    assert time.perf_counter() - start < 0.5
    assert {(P.x_num, P.y_num, P.denom) for P in pts} \
        == {(-1, 0, 1), (0, 1, 1), (0, -1, 1), (2, 3, 1), (2, -3, 1)}


def test_dense_box_against_the_scan():
    # k = 17 leaves 1,174 of the 2 * 10^6 + 1 values of the box to isqrt
    assert _sieve(17, 10**6, 1, set(), {}).bit_count() == 1174
    got = {(P.x_num, P.y_num, P.denom) for P in search_mordell(17, set(), 10**6, 0)}
    assert len(got) == 16
    assert got == scan_s_integral_points(17, set(), 10**6, 0)


@pytest.mark.parametrize("argv, named", [
    (["mordell", "--k", "0"], "k must be nonzero"),
    (["mordell", "--k", "1", "--height", "-1"], "height bound -1"),
    (["mordell", "--k", "1", "--S", "2", "--exponent-bound", "-1"], "exponent bound -1"),
    (["mordell", "--k", "1", "--S=-3"], "S entry -3"),
    (["mordell", "--k", "1", "--S", "2,4"], "S entry 4"),
    (["scan-twisted", "--N", "0"], "N must be nonzero"),
    (["scan-twisted", "--N", "353", "--height", "-1"], "height bound -1"),
    (["scan-twisted", "--N", "353", "--exponent-bound", "-2"], "exponent bound -2"),
    (["scan-twisted", "--N", "353", "--S", "1,9"], "S entry 9"),
    (["scan-twisted", "--N", "353", "--a-bound", "-1"], "a bound -1"),
    (["scan-twisted", "--N", "353", "--b-bound", "0"], "b bound 0")])
def test_cli_rejects_a_bad_box(capsys, argv, named):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and named in err


def test_unit_in_S_adds_no_denominator():
    # `modpcurves mordell --S 1` passes S = {1}; 1 | d must not clear the box
    assert search_mordell(1, {1}, 50, 2) == search_mordell(1, set(), 50, 0) != []


def test_one_allowed_prime_rule(rng):
    # the index-form sieve and the Mordell search read their primes by one
    # rule: both name the same first bad entry, each under its own field
    # name, and an entry 1 changes no result
    K = analyze_cubic((-1, -2, 27))
    form = index_form(K)
    pool = (1, 2, 3, 5, 7, 13, 2063, 0, -3, 4, 9, 15, 2**31 - 1, 2**31 + 1)
    named = solved = 0
    for _ in range(300):
        S = rng.sample(pool, rng.randint(0, 5))
        bad = next((p for p in S if p != 1 and not is_prime(p)), None)
        if bad is not None:
            named += 1
            with pytest.raises(ValueError, match=f"^primes entry {bad} is neither 1 nor a prime$"):
                congruence_sieve(form, S)
            with pytest.raises(ValueError, match=f"^S entry {bad} is neither 1 nor a prime$"):
                search_mordell(-2, S, 20, 1)
            continue
        S = [p for p in S if p != 1 and p < 100]
        solved += 1
        assert solve_index_equation(K, S + [1], 40) == solve_index_equation(K, S, 40)
        assert search_mordell(-2, S + [1], 20, 2) == search_mordell(-2, S, 20, 2)
        assert scan_twisted_mordell(7, 1, 1, S + [1], 20, 1) \
            == scan_twisted_mordell(7, 1, 1, S, 20, 1)
    assert named > 100 and solved > 50


def test_point_rejects_denominator_sharing_a_factor():
    with pytest.raises(AssertionError):
        SIntegerPoint(2, 3, 2)


def test_k1_exact_point_set():
    pts = search_mordell(1, set(), 100, 0)
    assert {(P.x_num, P.y_num) for P in pts} \
        == {(-1, 0), (0, 1), (0, -1), (2, 3), (2, -3)}


def test_k_minus26():
    pts = search_mordell(-26, set(), 1000, 0)
    coords = {(P.x_num, P.y_num) for P in pts}
    assert (3, 1) in coords and (3, -1) in coords
    assert all(P.on_curve(-26) for P in pts)


def test_box_that_ends_at_its_least_x():
    # x^3 - 26 >= 0 first at x = 3, where x^3 - 26 = 1^2
    assert [(P.x_num, P.y_num) for P in search_mordell(-26, set(), 3, 0)] == [(3, -1), (3, 1)]
    assert search_mordell(-26, set(), 2, 0) == []
    # at d = 2 the least x with x^3 - 26 * 2^6 >= 0 is 12, outside the box
    assert search_mordell(-26, {2}, 3, 1) == search_mordell(-26, set(), 3, 0)


def test_k_891216_empty():
    assert search_mordell(891216, {2063}, 10**5, 1) == []


def test_matches_naive_scan():
    for k in (1, -2, 17, -26, 1090, 24, -39):
        got = {(P.x_num, P.y_num) for P in search_mordell(k, set(), 300, 0)}
        want = set()
        for x, y in naive_integral_points(k, 300):
            want.add((x, y))
            if y:
                want.add((x, -y))
        assert got == want, k


def test_s_integral_denominators():
    # Y^2 = X^3 + 17 has the S-integral point (1/4, 33/8) for S = {2}
    pts = search_mordell(17, {2}, 10**4, 2)
    xs = {(P.x_num, P.denom) for P in pts}
    assert (1, 2) in xs
    assert all(P.on_curve(17) for P in pts)
    # denominator 1 points are still found
    assert (-2, 1) in {(P.x_num, P.denom) for P in pts}


def test_point_validation():
    P = SIntegerPoint(1, 33, 2)
    # x = 1/4 and y = 33/8 in lowest terms
    assert P.denom**2 == 4 and gcd(P.x_num, 4) == 1
    assert P.denom**3 == 8 and gcd(P.y_num, 8) == 1
    assert P.on_curve(17)
    assert not P.on_curve(18)


def test_scan_twisted_shape():
    cases = scan_twisted_mordell(353, 1, 1, set(), 500, 0)
    assert len(cases) == 4  # two signs x a in {0,1}
    ks = {k for k, _ in cases}
    assert ks == {353, -353, 3 * 353, -3 * 353}
    for k, pts, in cases:
        assert all(P.on_curve(k) for P in pts)
