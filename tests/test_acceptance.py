"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each criterion prints exactly one line "criterion N: PASS|FAIL -- summary"
before asserting, so the tee'd output doubles as the acceptance report.
Criteria 1, 5 and 6 each contain one value where the source table and the
exact recomputation disagree. Those sub-checks assert the proven value and
confirm it with an oracle written here, which never calls the package
function under test; the summary line names the source value. The fixture
records keep the source values, so `modpcurves verify` still reports those
three records as FAIL.
"""

import pytest

from conftest import (ALL_CURVES, FIXTURE_CUBICS, brute_force_count, element_index,
                      quadratic_twist, seeded_models)
from modpcurves.arith import factor, legendre_symbol, primes_below
from modpcurves.cubic import (analyze_cubic, congruence_sieve, index_form,
                              mordell_reduction, s3_serre_conductor)
from modpcurves.frobenius import ap, count_points
from modpcurves.modp import serre_conductor_semistable, trace_vector
from modpcurves.mordell import search_mordell
from modpcurves.quadorder import (QuadraticOrderElement, compute_obstruction,
                                  reciprocity_cover)
from modpcurves.tate import conductor, tate_local
from modpcurves.verify import EXTERNAL
from modpcurves.weierstrass import c_invariants, minimal_model, parse_curve


def _report(n: int, ok: bool, summary: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {summary}")
    assert ok, f"criterion {n}: {summary}"


def _signed_factors(n):
    f = factor(abs(n))
    return (-1 if n < 0 else 1, f.factors)


def _oracle_discriminant(a):
    """Delta of [a1,a2,a3,a4,a6] and the number of real roots of its
    2-division cubic (a1 x + a3)^2 + 4(x^3 + a2 x^2 + a4 x + a6), computed in
    sympy. That cubic is 4x^3 + b2 x^2 + 2 b4 x + b6, its discriminant is
    16 * Delta, and it has three real roots exactly when Delta > 0."""
    sympy = pytest.importorskip("sympy")
    a1, a2, a3, a4, a6 = a
    x = sympy.Symbol("x")
    g = sympy.Poly((a1 * x + a3)**2 + 4 * (x**3 + a2 * x**2 + a4 * x + a6), x)
    disc = int(sympy.discriminant(g))
    assert disc % 16 == 0
    return disc // 16, sympy.count_roots(g)


def _oracle_shift_to_singular_point_mod_2(a):
    """The singular point (r, t) of the reduction mod 2, and the coefficients
    after the substitution X -> X + r, Y -> Y + t that moves it to (0, 0)."""
    sympy = pytest.importorskip("sympy")
    a1, a2, a3, a4, a6 = a
    X, Y = sympy.symbols("X Y")
    F = Y**2 + a1 * X * Y + a3 * Y - (X**3 + a2 * X**2 + a4 * X + a6)
    (r, t), = [(x, y) for x in (0, 1) for y in (0, 1)
               if all(int(g.subs({X: x, Y: y})) % 2 == 0
                      for g in (F, F.diff(X), F.diff(Y)))]
    G = sympy.Poly(F.subs({X: X + r, Y: Y + t}, simultaneous=True), X, Y)
    shifted = (G.coeff_monomial(X * Y), -G.coeff_monomial(X**2),
               G.coeff_monomial(Y), -G.coeff_monomial(X), -G.coeff_monomial(1))
    return (r, t), tuple(int(c) for c in shifted)


def _oracle_exponents_mod_9(coefficients, p):
    """The residues mod 9 of the form at coprime pairs, and the n <= 11 (the
    sieve's exponent cap) with +-p^n among them. f mod 9 depends only on
    (x mod 9, y mod 9), and coprime x, y are never both divisible by 3, so
    the enumeration is complete."""
    A, B, C, D = coefficients
    residues = {(A * x**3 + B * x * x * y + C * x * y * y + D * y**3) % 9
                for x in range(9) for y in range(9) if x % 3 or y % 3}
    return residues, {n for n in range(12)
                      if pow(p, n, 9) in residues or -pow(p, n, 9) % 9 in residues}


def test_criterion_1_discriminants_and_conductors():
    cases = [
        ("[1,1,0,-22,-812]", (-1, ((2, 18), (3, 1), (353, 1))), 2118),
        ("[1,0,1,-80,-275]", (1, ((7, 5), (67, 1))), 469),
        ("[1,0,1,-89,316]", (-1, ((2, 7), (5, 1), (11, 3))), 110),
        ("[0,0,0,0,-26]", None, 2**6 * 3**2 * 13**2),
    ]
    bad = []
    for text, want_disc, want_n in cases:
        E, _, _ = minimal_model(parse_curve(text))
        if want_disc is not None and _signed_factors(c_invariants(E)[2]) != want_disc:
            bad.append(f"{text} disc {c_invariants(E)[2]}")
        if conductor(E).value() != want_n:
            bad.append(f"{text} conductor {conductor(E).value()}")
    # The source table prints Delta_min = -7^5*67 for [1,0,1,-80,-275]. Here
    # b2 = 1, b4 = -159, b6 = -1099, b8 = -6595; the 2-division cubic has
    # three real roots, so Delta > 0, and v_p(Delta) < 12 at 7 and 67, so
    # the model is minimal and Delta_min = +7^5*67.
    delta, real_roots = _oracle_discriminant((1, 0, 1, -80, -275))
    if (delta, real_roots) != (7**5 * 67, 3):
        bad.append(f"oracle disc {delta} with {real_roots} real roots")
    _report(1, not bad,
            "exact invariants/conductors for the four headline curves; "
            "[1,0,1,-80,-275] has Delta_min = +7^5*67 (source table: -7^5*67)"
            + ("" if not bad else f" (failed: {'; '.join(bad)})"))


def test_criterion_2_serre_conductors():
    got = [serre_conductor_semistable(parse_curve(t), p).serre_conductor.value()
           for t, p in (("[1,1,0,-22,-812]", 3), ("[1,0,1,-80,-275]", 5),
                        ("[1,0,1,-89,316]", 7))]
    _report(2, got == [353, 67, 55],
            f"semistable Serre conductors {got} == [353, 67, 55]")


_LEVEL_CURVES = [
    ("[1,1,1,-2,16]", 353, [2, None, 2, 1, 1, 2, 2, 0]),
    ("[1,1,1,-66,-270]", 1059, [2, None, 2, 1, 1, 2, 2, 0]),
    ("[1,-1,0,-594,6691]", 3177, [1, None, 1, 1, 2, 2, 1, 0]),
    ("[1,-1,0,-63,-176]", 3177, [1, None, 1, 1, 2, 2, 1, 0]),
    ("[0,0,1,3,4]", 9531, [1, None, 1, 1, 2, 2, 1, 0]),
    ("[0,0,1,-87891,-10029164]", 9531, [1, None, 1, 1, 2, 2, 1, 0]),
    ("[0,0,1,27,-115]", 9531, [2, None, 2, 1, 1, 2, 2, 0]),
    ("[0,0,1,-791019,270787421]", 9531, [2, None, 2, 1, 1, 2, 2, 0]),
    ("[1,-1,1,-2162,-38150]", 28593, [2, None, 2, 1, 1, 2, 2, 0]),
    ("[1,-1,0,-240,1493]", 28593, [1, None, 1, 1, 2, 2, 1, 0]),
]


def test_criterion_3_trace_tables_level_353_family():
    tv = trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 37)
    row_ok = [t for _, t, _ in tv.entries] == [0, 1, 2, 1, 1, 0, 1, 0, 0, 1, 0]
    family_ok = True
    for text, level, row in _LEVEL_CURVES:
        F = parse_curve(text)
        if conductor(F).value() != level:
            family_ok = False
        got = [None if ell == 3 else ap(F, ell) % 3
               for ell in (2, 3, 5, 7, 11, 13, 17, 19)]
        if got != row or ap(F, 2) % 3 == 0:
            family_ok = False
    _report(3, row_ok and family_ok,
            "printed trace row reproduced; all fixture curves at levels "
            "353..28593 match their rows with a_2 nonzero mod 3")


def test_criterion_4_a2_table_mod_5():
    models = ["[0,1,1,-12,-21]", "[0,0,1,-2,2]", "[0,0,1,-50,281]",
              "[0,-1,1,-13,23]", "[0,-1,1,-308,-1982]", "[0,1,1,-333,2244]"]
    got = [ap(parse_curve(t), 2) % 5 for t in models]
    ok = got == [2, 0, 0, 0, 3, 0] and all(r != 1 for r in got)
    _report(4, ok, f"a_2 mod 5 row {got} == [2, 0, 0, 0, 3, 0], none == 1")


def test_criterion_5_cubic_field_2063():
    K = analyze_cubic((-1, -2, 27))
    form = index_form(K)
    checks = {
        "field disc": K.field_discriminant == -2063,
        # the largest denominator of 1, (s + u)/m, (t + v u + u^2)/n is n, as m | n
        "basis denominator 3": K.hermite_basis[4] == 3,
        "index form (3,5,2,3)": form.coefficients == (3, 5, 2, 3),
        "mordell k": mordell_reduction(K) == 891216,
    }
    report = congruence_sieve(form, {2, 2063})
    concl = dict(zip([2, 2063], report.conclusions))
    checks["sieve m=0"] = concl[2] == "exponent of 2 forced to 0"
    # The source claims 3 | n for the exponent n of 2063. 2063 = 2 (mod 9)
    # and the form takes the values {0, 3, 4, 5, 6} mod 9, so +-2063^n is
    # attainable exactly when n = 2 (mod 3).
    residues, exponents = _oracle_exponents_mod_9((3, 5, 2, 3), 2063)
    checks["sieve n=2 (mod 3)"] = (
        concl[2063] == "exponent of 2063 = 2 (mod 3)"
        and residues == {0, 3, 4, 5, 6}
        and exponents == {n for n in range(12) if n % 3 == 2}
        and report.surviving_exponents[2063] == tuple(sorted(exponents)))
    bad = [k for k, v in checks.items() if not v]
    _report(5, not bad,
            "x^3-x^2-2x+27 field data and sieve conclusions; exponent of "
            "2063 = 2 (mod 3) (source: 3 | n)"
            + ("" if not bad else
               f" (failed: {bad}; computed sieve says {concl[2063]!r})"))


def test_criterion_6_gl2f2_table():
    rows = [((-1, -9, 21), "[0,1,0,-9,-21]", 3, ((3, 1), (113, 1))),
            ((-1, 8, 19), "[0,1,0,-14,-27]", 2, ((3, 1), (13, 1), (41, 1))),
            ((-1, 1, -24), "[0,0,0,-13,-24]", 5, ((19, 1), (89, 1))),
            ((-1, -6, 27), "[0,-6,0,-136,-408]", 6, ((17, 1), (103, 1))),
            ((-1, -6, 27), "[0,0,0,29,-123]", 4, ((17, 1), (103, 1))),
            ((-1, 2, 25), "[0,-3,0,-16,51]", 4, ((7, 1), (281, 1))),
            ((-1, 9, -27), "[0,-1,0,-17,-27]", 3, ((3, 1), (13, 2)))]
    bad = []
    for poly, model, two_exp, serre in rows:
        K = analyze_cubic(poly)
        N = conductor(parse_curve(model))
        if s3_serre_conductor(K).factors != serre:
            bad.append(f"{poly} serre")
        if N.factors != ((2, two_exp),) + serre:
            bad.append(f"{model} conductor {N} != 2^{two_exp} * N(rhobar)")
    # The source table prints 2^5 for [0,0,0,29,-123]. Delta =
    # -2^4*17^3*103 is minimal at 2, so Ogg's formula gives f_2 <= 4. By
    # hand: the singular point mod 2 is (1, 1); moving it to the origin
    # gives [0,3,2,32,-94], where 2 | a3, a4, a6, 2 | b2 = 12 and 4 does not
    # divide a6, so the type is II and f_2 = v_2(Delta) = 4.
    a = (0, 0, 0, 29, -123)
    delta, _ = _oracle_discriminant(a)
    point, (a1, a2, a3, a4, a6) = _oracle_shift_to_singular_point_mod_2(a)
    b2 = a1 * a1 + 4 * a2
    type_ii = (a3 % 2 == a4 % 2 == a6 % 2 == b2 % 2 == 0 and a6 % 4 != 0)
    if not (delta == -2**4 * 17**3 * 103 and point == (1, 1)
            and (a1, a2, a3, a4, a6) == (0, 3, 2, 32, -94) and type_ii
            and tate_local(parse_curve("[0,0,0,29,-123]"), 2).kodaira == "II"):
        bad.append("[0,0,0,29,-123] oracle: not type II with f_2 = 4")
    _report(6, not bad,
            "conductor = 2^a * N(rhobar) with printed exponents for the "
            "six-field table; [0,0,0,29,-123] has 2^4 (source table: 2^5)"
            + ("" if not bad else f" (failed: {bad})"))


def test_criterion_7_bounded_mordell():
    empty = search_mordell(891216, {2, 3, 2063}, 10**5, 4)
    pts = search_mordell(1, set(), 10**3, 0)
    got = {(P.x_num, P.y_num) for P in pts}
    ok = empty == [] and got == {(-1, 0), (0, 1), (0, -1), (2, 3), (2, -3)}
    _report(7, ok, "Y^2 = X^3 + 891216 empty in box; k = 1 point set exact")


def test_criterion_8_level_raising():
    norm = compute_obstruction(QuadraticOrderElement(5, -1, 1), 2)
    support_ok = norm is not None and set(norm.support) <= {5, 11}
    cover_ok = all(reciprocity_cover(p, (2, 5, 10)) in (2, 5, 10)
                   for p in primes_below(10**4) if p % 2 and p % 5)
    _report(8, support_ok and cover_ok,
            "N(A(2)) supported on {5, 11}; residue cover holds below 10^4")


def test_criterion_9_property_suites(rng):
    failures = []
    # 1728 Delta = c4^3 - c6^2 on 10^4 random models
    for E in seeded_models(rng, 10**4, 200):
        c4, c6, disc = c_invariants(E)
        if 1728 * disc != c4**3 - c6**2:
            failures.append(f"c4/c6 identity {E}")
    # ap vs brute-force count on 50 curves, ell <= 50
    curves = [parse_curve(t) for t in ALL_CURVES]
    curves += [quadratic_twist(E, d) for E, d in
               zip(curves, [-1, 2, -2, 5, -5, 7, -7, 10, -10, 13])][:50 - len(curves)]
    for E in curves[:50]:
        Emin, _, _ = minimal_model(E)
        for ell in primes_below(51):
            if count_points(Emin, ell) != brute_force_count(Emin, ell):
                failures.append(f"count {E} at {ell}")
    # twist equivariance on sampled good primes
    for _ in range(20):
        E = rng.choice(curves[:40])
        d = rng.choice([-1, 2, -2, 5, 7, -11, 13])
        Ed = quadratic_twist(E, d)
        for ell in primes_below(50):
            if ell == 2 or d % ell == 0:
                continue
            if c_invariants(minimal_model(E)[0])[2] % ell == 0 \
                    or c_invariants(minimal_model(Ed)[0])[2] % ell == 0:
                continue
            if ap(Ed, ell) != legendre_symbol(d, ell) * ap(E, ell):
                failures.append(f"twist {E} by {d} at {ell}")
    # index form vs determinant oracle, 100 points per fixture field
    for poly, _ in FIXTURE_CUBICS:
        K = analyze_cubic(poly)
        form = index_form(K)
        for _ in range(100):
            x, y = rng.randint(-30, 30), rng.randint(-30, 30)
            if abs(form(x, y)) != element_index(K, x, y):
                failures.append(f"index form {poly} at {(x, y)}")
    # factorization round-trip, exhaustive to 10^6
    for m in range(1, 10**6 + 1):
        if factor(m).value() != m:
            failures.append(f"factor {m}")
            break
    _report(9, not failures,
            "invariant identity, point-count oracle, twist equivariance, "
            "index-form oracle, factorization round-trip"
            + ("" if not failures else f" (failures: {failures[:3]})"))


def test_criterion_10_external_claims_never_computed(full_report):
    report = full_report
    externals = [c for c in report.checks if c.status == EXTERNAL]
    text = " ".join(c.description for c in externals)
    ok = (len(externals) == 8
          and all(c.computed == "" for c in externals)
          and "mwrank" in text and "85779" in text
          and "Cremona" in text and "Stein" in text)
    _report(10, ok, f"{len(externals)} external claims listed, none counted "
            "as computed passes")
