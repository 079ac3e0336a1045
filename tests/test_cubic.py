import itertools
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

import pytest
from sympy import Poly
from sympy.abc import x as X
from sympy.polys.numberfields.basis import round_two

from conftest import (FIXTURE_CUBICS, element_index, fraction_basis, mat_inv, spy,
                      vec_mat)
from modpcurves import cubic
from modpcurves.cli import main
from modpcurves.cubic import (CubicField, DiscriminantNotMinusPrime,
                              ReduciblePolynomial, analyze_cubic,
                              congruence_sieve, cubic_discriminant,
                              index_form, mordell_reduction, parse_cubic,
                              s3_serre_conductor, solve_index_equation,
                              _Y_SIEVE_PRIMES, _Y_SIEVE_ROWS, _bisect,
                              _monotone_pieces, _y_flags)
from modpcurves.arith import tile


def test_parse_cubic_formats():
    assert parse_cubic("(-1, -6, 27)") == (-1, -6, 27)
    assert parse_cubic("-1,-6,27") == (-1, -6, 27)
    assert parse_cubic("x^3 - x^2 - 6*x + 27") == (-1, -6, 27)
    assert parse_cubic("x**3 + 2") == (0, 0, 2)
    # spaces may separate terms and signs
    assert parse_cubic("x ^ 3 - 2 * x + 27") == (0, -2, 27)
    with pytest.raises(ValueError):
        parse_cubic("2*x^3 + 1")


@pytest.mark.parametrize("text", [
    "x^3+y-2",      # read as x^3 - 2
    "x^3+2^2",      # read as x^3 + 2x^2
    "x^3+x^2*x",    # read as x^3 + x^2 + x
    "x^3+x^4+1",    # a bare KeyError
    "x^3 + x + ",   # read as x^3 + x
    "(1,2,3",       # read as (1, 2, 3)
    "1,2,3)",
    "x^3 + 1 2",          # read as x^3 + 12
    "x^3 - 2*x + 2 7"])   # read as x^3 - 2x + 27
def test_parse_cubic_rejects_what_it_does_not_read(text):
    with pytest.raises(ValueError) as info:
        parse_cubic(text)
    assert repr(text) in str(info.value)


def test_analyze_known_fields():
    for (a, b, c), dK in FIXTURE_CUBICS:
        K = analyze_cubic((a, b, c))
        assert K.field_discriminant == dK
        assert K.poly_discriminant == cubic_discriminant(a, b, c)
        assert K.poly_discriminant == dK * K.index_of_generator**2


def test_analyze_x3_minus_2():
    K = analyze_cubic((0, 0, -2))
    assert K.field_discriminant == -108 and K.index_of_generator == 1


def test_reducible_rejected():
    with pytest.raises(ReduciblePolynomial):
        analyze_cubic((0, -1, 0))  # x^3 - x
    with pytest.raises(ReduciblePolynomial):
        analyze_cubic((-6, 11, -6))  # (x-1)(x-2)(x-3)


def test_reducibility_against_sympy(rng):
    def forced(r, p, q):  # (x - r)(x^2 + p x + q)
        return p - r, q - p * r, -q * r

    big = forced(10**12 + 39, 2, 10**18 + 7)
    assert abs(big[2]) > 10**30
    cases = [(-6, 11, -6), (0, -1, 0), (0, 1, 0), (0, 1, 2**50 + 1),
             forced(10**12 + 39, -7, 5), forced(-10**12 - 11, 3, 10**18 + 9), big]
    for _ in range(150):
        cases.append(forced(rng.randint(-50, 50), rng.randint(-60, 60),
                            rng.randint(-60, 60)))
        cases.append(tuple(rng.randint(-60, 60) for _ in range(3)))
    for a, b, c in cases:
        P = Poly(X**3 + a * X**2 + b * X + c, X)
        roots = sorted(P.ground_roots())
        assert P.is_irreducible == (not roots)
        if roots:
            # the least integer root is the one named, except 0 when c = 0
            named = "root at 0" if c == 0 else f"rational root {roots[0]}"
            with pytest.raises(ReduciblePolynomial, match=f"^{named}$"):
                analyze_cubic((a, b, c))
        else:
            assert analyze_cubic((a, b, c)).defining_poly == (a, b, c)
    with pytest.raises(ReduciblePolynomial, match="^rational root 1$"):
        analyze_cubic((-6, 11, -6))  # (x-1)(x-2)(x-3)


SCALES = (2, 3, 4, 5, 6, 7, 9, 101, 1009)


def scaled_fields(rng, per_scale: int) -> list[CubicField]:
    """Seeded fields Q(u) with u^3 + k a u^2 + k^2 b u + k^3 c = 0, one k of
    SCALES at a time, so that k^3 divides the index of u: with k = 4 and 9
    the index is divisible by 2^6 and by 3^6, and q = 101, 1009 occur."""
    fields = []
    while len(fields) < per_scale * len(SCALES):
        k = SCALES[len(fields) % len(SCALES)]
        a, b, c = (rng.randint(-20, 20) for _ in range(3))
        try:
            fields.append(analyze_cubic((k * a, k * k * b, k**3 * c)))
        except ReduciblePolynomial:
            continue
    return fields


def test_maximal_order_against_sympy_round_two(rng):
    fields = scaled_fields(rng, 6) + [analyze_cubic(p) for p, _ in FIXTURE_CUBICS]
    fields.append(analyze_cubic((3, -13, -79)))
    for q, e in ((2, 6), (3, 6), (5, 3), (7, 3), (101, 3), (1009, 3)):
        assert any(K.index_of_generator % q**e == 0 for K in fields), q
    for K in fields:
        a, b, c = K.defining_poly
        ZK, dK = round_two(Poly(X**3 + a * X**2 + b * X + c, X))
        assert K.field_discriminant == dK, K
        # sympy's basis: the columns of ZK.matrix over ZK.denom; the
        # coordinates of each of our basis rows on it must be integers
        M = ZK.matrix.to_Matrix()
        rows = [[Fraction(int(M[i, j]), ZK.denom) for i in range(3)]
                for j in range(3)]
        inv = mat_inv(rows)
        for e in fraction_basis(K):
            assert all(t.denominator == 1 for t in vec_mat(e, inv)), (K, e)
        # reduced Hermite form 1, (s + u)/m, (t + v u + u^2)/n
        s, m, t, v, n = K.hermite_basis
        assert n % m == 0 and K.index_of_generator == m * n
        assert 0 <= s < m and 0 <= v < n // m and 0 <= t < n, K
    # 1, (1 + u)/4, (1 + 2u + u^2)/16
    assert fields[-1].hermite_basis == (1, 4, 1, 2, 16)


def test_index_form_discriminant():
    for poly, dK in FIXTURE_CUBICS:
        form = index_form(analyze_cubic(poly))
        assert form.discriminant() == dK


def test_index_form_against_determinant_oracle(rng):
    for poly, _ in FIXTURE_CUBICS:
        K = analyze_cubic(poly)
        form = index_form(K)
        for _ in range(100):
            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            assert abs(form(x, y)) == element_index(K, x, y), (poly, x, y)
    # seeded fields whose maximal order is far from Z[u]
    for K in scaled_fields(rng, 3):
        form = index_form(K)
        for _ in range(20):
            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            assert abs(form(x, y)) == element_index(K, x, y), (K, x, y)


def test_s3_serre_conductor():
    K = analyze_cubic((-1, -6, 27))  # disc -1751 = -17 * 103
    assert s3_serre_conductor(K).factors == ((17, 1), (103, 1))
    K2 = analyze_cubic((-1, 9, -27))  # disc -2028 = -2^2 * 3 * 13^2
    assert s3_serre_conductor(K2).factors == ((3, 1), (13, 2))


def test_mordell_reduction():
    K = analyze_cubic((-1, -2, 27))  # disc -2063, prime
    red = mordell_reduction(K)
    assert red.N == 2063 and red.k == 2**4 * 3**3 * 2063 == 891216
    with pytest.raises(DiscriminantNotMinusPrime):
        mordell_reduction(analyze_cubic((-1, -9, 21)))  # -1356 not -prime


def test_sieve_2063():
    form = index_form(analyze_cubic((-1, -2, 27)))
    report = congruence_sieve(form, {2, 2063})
    by_prime = dict(zip(sorted({2, 2063}), report.conclusions))
    assert by_prime[2] == "exponent of 2 forced to 0"
    assert by_prime[2063] == "exponent of 2063 = 2 (mod 3)"


def test_sieve_checks_its_primes_and_drops_1():
    K = analyze_cubic((-1, -2, 27))
    form = index_form(K)
    assert congruence_sieve(form, {1, 2, 2063}) == congruence_sieve(form, {2, 2063})
    for bad in (4, 0, -3):
        with pytest.raises(ValueError, match=f"^primes entry {bad} is neither 1 nor a prime$"):
            congruence_sieve(form, {2, bad})
    # the index solver checks its primes through the sieve
    with pytest.raises(ValueError, match="^primes entry 4 is neither 1 nor a prime$"):
        solve_index_equation(K, {2, 4}, 10)


def sieve_by_enumeration(form, primes, moduli=(2, 9), cap=11):
    """Independent oracle: the surviving exponents of each prime, from all
    (cap + 1)^|primes| exponent vectors and the residue test on each."""
    residues = {m: {form(x, y) % m for x in range(m) for y in range(m)
                    if gcd(gcd(x, y), m) == 1} for m in moduli}
    primes = sorted(primes)
    surviving = {p: set() for p in primes}
    for vec in itertools.product(range(cap + 1), repeat=len(primes)):
        t = 1
        for p, e in zip(primes, vec):
            t *= p**e
        if all(t % m in residues[m] or -t % m in residues[m] for m in moduli):
            for p, e in zip(primes, vec):
                surviving[p].add(e)
    return {p: tuple(sorted(s)) for p, s in surviving.items()}


def test_sieve_matches_enumeration():
    x3_minus_2 = index_form(analyze_cubic((0, 0, -2)))
    report = congruence_sieve(x3_minus_2, {2, 3, 5, 7})
    assert report.surviving_exponents \
        == sieve_by_enumeration(x3_minus_2, {2, 3, 5, 7})
    for poly, _ in FIXTURE_CUBICS:
        form = index_form(analyze_cubic(poly))
        report = congruence_sieve(form, {2, 2063})
        assert report.surviving_exponents \
            == sieve_by_enumeration(form, {2, 2063}), poly
    # the residues mod 2 and 9 against every coprime pair, on the fixture
    # fields and the seeded forms of the differential boxes, A = 0 mod 2 or
    # mod 3 among them
    polys = [poly for poly, _ in FIXTURE_CUBICS] + [box[0] for box in DIFFERENTIAL_BOXES]
    for poly in polys:
        form = index_form(analyze_cubic(poly))
        assert congruence_sieve(form, ()).residues \
            == {m: tuple(sorted({form(x, y) % m for x in range(m) for y in range(m)
                                 if gcd(gcd(x, y), m) == 1})) for m in (2, 9)}, poly


def test_sieve_six_primes_is_fast():
    form = index_form(analyze_cubic((0, 0, -2)))
    start = time.perf_counter()
    report = congruence_sieve(form, {2, 3, 5, 7, 11, 13})
    assert time.perf_counter() - start < 0.5
    assert len(report.conclusions) == 6


def test_sieve_soundness_brute_force():
    # every coprime value of the -2063 index form must obey the sieve:
    # odd, and when a pure 2063-power, with exponent = 2 mod 3
    form = index_form(analyze_cubic((-1, -2, 27)))
    for x in range(-200, 201):
        for y in range(-200, 201):
            if gcd(x, y) != 1:
                continue
            v = abs(form(x, y))
            assert v % 2 == 1
            e = 0
            while v % 2063 == 0:
                v //= 2063
                e += 1
            if v == 1 and e:
                assert e % 3 == 2


def test_solve_trivial_units():
    K = analyze_cubic((0, 0, -2))
    sols, _ = solve_index_equation(K, set(), 10)
    # empty prime support: only index-1 (monogenic generator) pairs survive
    assert all(v == 1 for _, _, v in sols)
    assert {(1, 0), (-1, 0)} <= {(x, y) for x, y, _ in sols}


def test_solve_1751_contains_index_8():
    K = analyze_cubic((-1, -6, 27))
    sols, _ = solve_index_equation(K, {2}, 1000)
    by_value = {}
    for x, y, v in sols:
        by_value.setdefault(v, set()).add((x, y))
    assert 8 in by_value
    assert (-4, 2) in by_value[8] or (4, -2) in by_value[8]
    # the index-8 element is twice an index-1 element
    assert any((x // 2, y // 2) in by_value.get(1, set())
               for x, y in by_value[8] if x % 2 == 0 and y % 2 == 0)


def test_solve_values_are_smooth_and_exact():
    K = analyze_cubic((-1, -6, 27))
    form = index_form(K)
    sols, _ = solve_index_equation(K, {2}, 200)
    for x, y, v in sols:
        assert abs(form(x, y)) == v
        while v % 2 == 0:
            v //= 2
        assert v == 1


def brute_force_box(K: CubicField, primes, bound: int):
    """Independent oracle: every (x, y, |f(x, y)|) in the box with a nonzero
    value supported on the primes, by evaluating the form at each point."""
    form = index_form(K)
    out = []
    for x, y in itertools.product(range(-bound, bound + 1), repeat=2):
        v = n = abs(form(x, y))
        for p in primes:
            while n and n % p == 0:
                n //= p
        if n == 1:
            out.append((x, y, v))
    return sorted(out)


def _supported(n: int, primes) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def per_y_solver(K: CubicField, primes, bound: int):
    """Reference: the solver before the y-sieve, which bisects every line
    y = 1 .. bound for every target in range.  Returns the solutions and
    the congruence sieve report, as solve_index_equation does."""
    form = index_form(K)
    A, B, C, D = form.coefficients
    report = congruence_sieve(form, primes)
    maxval = (abs(A) + abs(B) + abs(C) + abs(D)) * bound**3
    targets = [1]
    for p in sorted(primes):
        grown = []
        for t in targets:
            while t <= maxval:
                grown.append(t)
                t *= p
        targets = grown
    sols = set()

    def record(x, y):
        if max(abs(x), abs(y)) <= bound and gcd(x, y) == 1:
            v = form(x, y)
            if v != 0 and _supported(abs(v), primes):
                sols.add((x, y, abs(v)))

    allowed = {m: set(r) for m, r in report.residues.items()}
    values = sorted(v for t in set(targets) for v in (t, -t)
                    if all(v % m in allowed[m] for m in report.residues))
    for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        record(x, y)
    for y in range(1, bound + 1):
        def g(x):
            return ((A * x + B * y) * x + C * y * y) * x + D * y**3

        for lo, hi, step in _monotone_pieces(A, B, C, y, -bound, bound):
            ends = sorted((g(lo), g(hi)))
            for v in values[bisect_left(values, ends[0]):bisect_right(values, ends[1])]:
                a = _bisect(A, B * y, C * y * y, D * y**3, lo, hi, step, v)
                if a is not None:
                    record(a, y)
                    record(-a, -y)
    scaled = set()
    for x, y, v in sols:
        d = 2
        while d * max(abs(x), abs(y)) <= bound:
            if _supported(d, primes):
                scaled.add((d * x, d * y, v * d**3))
            d += 1
    return sorted(sols | scaled), report


def _differential_boxes(n=44, seed=20261):
    """Seeded (poly, primes, bound) boxes: plain and scaled cubics, so that
    the leading coefficient A of the form is divisible by sieve primes;
    S within the primes up to 37, so sieve primes divide targets; bounds
    0 to 46, below most sieve primes.  Fixed boxes: the -1751 field at
    bound 2000, S of five and six primes, and x^3 - 2 at bound 7, whose
    solution (-4, 7) lies on the last line of the box."""
    rng = random.Random(seed)
    boxes = [((-1, -6, 27), (2, 17, 103), 2000),
             ((-2, -4, -20), (2, 3, 5, 7, 11), 46),
             ((0, 0, -2), (2, 3, 5, 7, 11, 13), 30),
             ((0, 0, -2), (2, 3, 5), 7),
             ((2, -12, -21), (2,), 0)]
    while len(boxes) < n:
        k = rng.choice((1, 1, 2, 3, 5, 7))
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        poly = (k * a, k * k * b, k**3 * c)
        try:
            analyze_cubic(poly)
        except ReduciblePolynomial:
            continue
        primes = tuple(sorted(rng.sample((2, 3, 5, 7, 11, 13, 31, 37),
                                         rng.randint(0, 4))))
        boxes.append((poly, primes, rng.randint(0, 46)))
    return boxes


DIFFERENTIAL_BOXES = _differential_boxes()


def test_differential_boxes_cover_the_cases():
    assert len(DIFFERENTIAL_BOXES) >= 40
    leading = [index_form(analyze_cubic(poly)).coefficients[0]
               for poly, _, _ in DIFFERENTIAL_BOXES]
    assert any(A % q == 0 for A in leading for q in _Y_SIEVE_PRIMES if q >= 5)
    assert sum(A % 2 == 0 for A in leading) >= 3
    assert any(len(primes) >= 5 for _, primes, _ in DIFFERENTIAL_BOXES)
    bounds = [bound for _, _, bound in DIFFERENTIAL_BOXES]
    assert 0 in bounds and sum(bound < 31 for bound in bounds) >= 20
    assert max(b for b in bounds if b != 2000) == 46
    assert ((0, 0, -2), (2, 3, 5), 7) in DIFFERENTIAL_BOXES
    assert (-4, 7, 750) in solve_index_equation(analyze_cubic((0, 0, -2)),
                                                {2, 3, 5}, 7)[0]


@pytest.mark.parametrize("box", DIFFERENTIAL_BOXES,
                         ids=lambda b: f"{b[0]}-{b[1]}-{b[2]}")
def test_solve_matches_per_y_solver(box):
    poly, primes, bound = box
    K = analyze_cubic(poly)
    sols, report = solve_index_equation(K, set(primes), bound)
    want, want_report = per_y_solver(K, set(primes), bound)
    assert sols == want
    assert report == want_report
    if poly == (-1, -6, 27):
        assert len(sols) == 88
    # targets divisible by a sieve prime are found
    if primes == (2, 3, 5, 7, 11):
        assert any(v % q == 0 for _, _, v in sols for q in (5, 7, 11))


def _search_boxes(n_two=16, n_many=12, seed=20262):
    """Seeded boxes shaped like the index items of the search benchmark:
    fields x^3 + a x^2 + b x + c with |a| <= 2, |b| <= 12 and |c| <= 40,
    first with S = {2} at bounds 47 to 80, then with 3 or 4 primes up to
    37 at bound 40."""
    rng = random.Random(seed)
    boxes = []
    while len(boxes) < n_two + n_many:
        poly = (rng.randint(-2, 2), rng.randint(-12, 12), rng.randint(-40, 40))
        try:
            analyze_cubic(poly)
        except ReduciblePolynomial:
            continue
        if len(boxes) < n_two:
            boxes.append((poly, (2,), rng.randint(47, 80)))
        else:
            primes = rng.sample((2, 3, 5, 7, 11, 13, 31, 37), rng.randint(3, 4))
            boxes.append((poly, tuple(sorted(primes)), 40))
    return boxes


SEARCH_BOXES = _search_boxes()


def test_search_boxes_cover_the_cases():
    two = [bound for _, primes, bound in SEARCH_BOXES if primes == (2,)]
    assert len(two) == 16 and min(two) >= 47 and max(two) <= 80
    assert max(two) - min(two) >= 20
    many = [primes for _, primes, bound in SEARCH_BOXES if primes != (2,)]
    assert {len(primes) for primes in many} == {3, 4}
    assert all(bound == 40 for _, primes, bound in SEARCH_BOXES if primes != (2,))
    # most boxes have a coprime solution off the edges, which only the
    # bisection of a surviving line finds
    inner = 0
    for poly, primes, bound in SEARCH_BOXES:
        sols, _ = solve_index_equation(analyze_cubic(poly), set(primes), bound)
        inner += any(abs(y) > 1 and x and gcd(x, y) == 1 for x, y, _ in sols)
    assert inner >= len(SEARCH_BOXES) // 2


@pytest.mark.parametrize("box", SEARCH_BOXES, ids=lambda b: f"{b[0]}-{b[1]}-{b[2]}")
def test_search_shaped_boxes_match_both_references(box):
    poly, primes, bound = box
    K = analyze_cubic(poly)
    sols, report = solve_index_equation(K, set(primes), bound)
    assert (sols, report) == per_y_solver(K, set(primes), bound)
    assert sols == brute_force_box(K, primes, bound)


def test_bisect_finds_the_root_of_each_monotone_piece(rng):
    # every value on the piece, values between them, and values beyond
    # both ends, where it returns None without bisecting
    for _ in range(300):
        A, y = rng.randint(1, 5), rng.randint(1, 6)
        B, C, D = (rng.randint(-30, 30) for _ in range(3))
        coeffs = (A, B * y, C * y * y, D * y**3)
        for lo, hi, step in _monotone_pieces(A, B, C, y, -40, 40):
            at = {((A * x + coeffs[1]) * x + coeffs[2]) * x + coeffs[3]: x
                  for x in range(lo, hi + 1)}
            probes = set(at) | {min(at) - 1, max(at) + 1}
            probes |= {rng.randint(min(at), max(at)) for _ in range(5)}
            for v in probes:
                assert _bisect(*coeffs, lo, hi, step, v) == at.get(v), (coeffs, lo, hi, v)


@pytest.mark.parametrize("argv, named", [
    (["index-solve", "x^3 - 2", "--primes", "2,0", "--bound", "5"], "primes entry 0"),
    (["index-solve", "x^3 - 2", "--primes=2,-2", "--bound", "5"], "primes entry -2"),
    (["index-solve", "x^3 - 2", "--primes", "2,4", "--bound", "5"], "primes entry 4"),
    (["index-solve", "x^3 - 2", "--primes", "2", "--bound", "-3"], "search bound -3")])
def test_cli_rejects_a_bad_index_box(capsys, argv, named):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and named in err


def test_cli_ignores_a_unit_in_the_primes(capsys):
    # 1 in S forbids nothing and adds no target; it used to hang the search
    start = time.perf_counter()
    assert main(["index-solve", "x^3 - 2", "--primes", "2,1", "--bound", "5"]) == 0
    with_unit = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert main(["index-solve", "x^3 - 2", "--primes", "2", "--bound", "5"]) == 0
    assert capsys.readouterr() == with_unit
    assert "(x,y)=(1,1) index 1" in with_unit.out


def test_monotone_pieces_tile_and_are_monotone(rng):
    # (10, 16, 8): B^2 - 3AC = 16 is a perfect square, so for 3 | y the
    # smaller critical point -2y/3 is an integer
    cases = [(10, 16, 8, y) for y in range(1, 13)]
    cases += [(rng.randint(1, 6), rng.randint(-20, 20), rng.randint(-20, 20),
               rng.randint(1, 10)) for _ in range(1500)]
    for A, B, C, y in cases:
        pieces = _monotone_pieces(A, B, C, y, -60, 60)
        assert pieces[0][0] == -60 and pieces[-1][1] == 60
        assert all(p[1] + 1 == q[0] for p, q in zip(pieces, pieces[1:]))
        for lo, hi, step in pieces:
            vals = [((A * x + B * y) * x + C * y * y) * x for x in range(lo, hi + 1)]
            assert all(step * (w - v) > 0 for v, w in zip(vals, vals[1:])), \
                (A, B, C, y, lo, hi, step)


def test_solve_matches_brute_force(rng):
    done = 0
    while done < 40:
        poly = tuple(rng.randint(-9, 9) for _ in range(3))
        try:
            K = analyze_cubic(poly)
        except ReduciblePolynomial:
            continue
        primes = set(rng.sample([2, 3, 5, 7], rng.randint(0, 4)))
        bound = rng.randint(1, 30)
        sols, _ = solve_index_equation(K, primes, bound)
        assert sols == brute_force_box(K, primes, bound), (poly, primes, bound)
        done += 1


def test_y_sieve_masks_match_the_definition(rng):
    # seeded forms, with the leading coefficient A scaled by sieve primes
    # so that A = 0 mod q for some q; every q, every v mod q, and bounds
    # below, at and above q, where the tiling stops mid-pattern
    forms = [(1, 0, 0, -2), (7, 3, -1, 2), (2 * 3 * 5 * 29, 1, 1, 1), (31, 0, 4, 9),
             (47, 2, -3, 5)]
    forms += [(rng.choice((1, 2, 3, 29, 31, 6)) * rng.randint(1, 9),
               *(rng.randint(-20, 20) for _ in range(3))) for _ in range(8)]
    assert any(A % q == 0 for A, *_ in forms for q in (2, 3, 29, 31, 47))
    assert [q for q, _ in _Y_SIEVE_ROWS] == list(_Y_SIEVE_PRIMES)
    for q, rows in _Y_SIEVE_ROWS:
        # row v: v y^-3 mod q for each unit y < q, then q + v for y = q
        assert len(rows) == q
        for v, row in enumerate(rows):
            assert len(row) == q and row[-1] == q + v
            assert all(row[y - 1] == v * pow(y, -3, q) % q for y in range(1, q))
    for A, B, C, D in forms:
        for q, rows in _Y_SIEVE_ROWS:
            Ft = [A * t**3 + B * t * t + C * t + D for t in range(q)]
            flags = _y_flags(q, rows, A, Ft)
            F = {f % q for f in Ft}
            units_A = {A * x**3 % q for x in range(1, q)}
            for bound in {0, 1, q - 1, q, q + 1, 2 * q + 3, rng.randint(1, 70)}:
                for v in range(q):
                    mask = tile(int(rows[v].translate(flags)[::-1], 2), q, bound)
                    want = [(v * pow(y, -3, q) % q in F) if y % q else (v in units_A)
                            for y in range(1, bound + 1)]
                    assert [bool(mask >> (y - 1) & 1) for y in range(1, bound + 1)] \
                        == want, ((A, B, C, D), q, v, bound)
                    assert mask >> (bound + q - 1) == 0


def test_solver_builds_each_mask_once_and_splits_each_line_once(monkeypatch):
    # rows of a bytes subclass, so that a spy on translate sees which
    # (q, v mod q) each mask is built for
    class Row(bytes):
        pass

    rows = [(q, [Row(row) for row in qrows]) for q, qrows in _Y_SIEVE_ROWS]
    row_of = {id(row): (q, v) for q, qrows in rows for v, row in enumerate(qrows)}
    monkeypatch.setattr(cubic, "_Y_SIEVE_ROWS", rows)
    translated = spy(monkeypatch, Row, "translate")
    split = spy(monkeypatch, cubic, "_monotone_pieces")
    bisected = spy(monkeypatch, cubic, "_bisect")
    most_targets = 0
    for poly, primes, bound in SEARCH_BOXES:
        K = analyze_cubic(poly)  # its reducibility test splits too
        A, B, C, D = index_form(K).coefficients
        for calls in (translated, split, bisected):
            calls.clear()
        solve_index_equation(K, set(primes), bound)
        built = [row_of[id(row)] for row, _ in translated]
        assert built and len(built) == len(set(built)), (poly, primes, bound)
        lines = [args[3] for args in split]
        assert len(lines) == len(set(lines)), (poly, primes, bound)
        # each bisection is on a line that was split, with that line's
        # coefficients B y, C y^2, D y^3
        coeffs = {(B * y, C * y * y, D * y**3): y for y in lines}
        targets = {}
        for _, By, Cy, Dy, _, _, _, v in bisected:
            targets.setdefault(coeffs[By, Cy, Dy], set()).add(v)
        assert set(targets) == set(lines)
        most_targets = max([most_targets, *map(len, targets.values())])
    assert most_targets >= 2


@pytest.mark.parametrize("q", (2, 3, 29, 31, 47))
def test_solve_matches_brute_force_at_bounds_near_a_sieve_prime(q):
    # x^3 - 2 (A = 1) and the form (10, 16, 8, 1), A = 0 mod 2 and mod 5
    for poly in ((0, 0, -2), (-2, -4, -20)):
        K = analyze_cubic(poly)
        for bound in (q - 1, q, q + 1, 2 * q):
            sols, _ = solve_index_equation(K, {2, 3, 5}, bound)
            assert sols == brute_force_box(K, {2, 3, 5}, bound), (poly, bound)


def test_solve_x3_minus_2_regression():
    # the float root estimator lost 20 of these, starting with (-4, 7)
    K = analyze_cubic((0, 0, -2))
    sols, _ = solve_index_equation(K, {2, 3, 5, 7}, 80)
    assert len(sols) == 598 and (-4, 7, 750) in sols
    assert sols == brute_force_box(K, {2, 3, 5, 7}, 80)


def test_solve_perfect_square_critical_points():
    # x^3 - 2x^2 - 4x - 20: form (10, 16, 8, 1), B^2 - 3AC = 16
    K = analyze_cubic((-2, -4, -20))
    assert index_form(K).coefficients == (10, 16, 8, 1)
    sols, _ = solve_index_equation(K, {2, 3, 5, 7}, 30)
    assert sols == brute_force_box(K, {2, 3, 5, 7}, 30)


def test_solve_root_on_decreasing_piece():
    # x^3 + 2x^2 - 12x - 21: form (1, -4, -8, 3); at y = 1, g falls on [0, 3]
    K = analyze_cubic((2, -12, -21))
    assert index_form(K).coefficients == (1, -4, -8, 3)
    assert _monotone_pieces(1, -4, -8, 1, -30, 30)[1] == (0, 3, -1)
    sols, _ = solve_index_equation(K, {2}, 30)
    assert {(1, 1, 8), (-1, -1, 8)} <= set(sols)
    assert sols == brute_force_box(K, {2}, 30)
