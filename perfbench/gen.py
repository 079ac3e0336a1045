"""Seeded input generators for the perfbench workloads.

The same seed gives the same inputs.  Inputs are bucketed with sympy, never
with the package under test, so a defect in modpcurves cannot steer which
inputs are used.  Each item records the property that governs its cost
under "props".  Seeded properties are stratified (one draw inside each of n
equal slices of the range) rather than drawn independently, so that a
workload's cost distribution, and with it p50 and p90, barely moves from
seed to seed.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from sympy import factorint, nextprime, sieve
from sympy.ntheory import sqrt_mod
from sympy.ntheory.modular import crt
from sympy.polys import Poly
from sympy.polys.numberfields.basis import round_two
from sympy.abc import x as _x

from oracle import coefficients, invariants, is_minimal_at

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "modpcurves" / "fixtures"

FINGERPRINT_ITEMS = 110
HORIZON = 500  # trace_vector bound for fingerprint items
IRREDUCIBLE_BOUND = 100  # the bound the fixtures use for is_reducible_semistable
LOCAL_ITEMS = 100
# Top of the largest-bad-prime range, as a power of 10.  Up to 10^6 a pass
# costs about 20 s, so a run fits one pass and its per-item times carry the
# host's noise; up to 10^5 it costs about 2.5 s and a run fits several.
LOCAL_TOP = 5.0
SEARCH_SEEDED_FIELDS = 66
SEARCH_MORDELL_ITEMS = 36
FIXTURE_FIELD_BOX = 40
MORDELL_NAIVE_BOX = 150_000  # Mordell boxes up to this size are also scanned naively


def fixture_records(name: str):
    """(kind, fields, lineno) for every record of one packaged fixture file."""
    for lineno, raw in enumerate((FIXTURES / name).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *parts = [p.strip() for p in line.split(";")]
        fields = dict(tuple(s.strip() for s in p.split("=", 1)) for p in parts if p)
        yield kind, fields, lineno


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw in each of n equal slices of [lo, hi]."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _curve_props(a) -> dict:
    _, _, disc = invariants(a)
    primes = sorted(factorint(abs(disc)))
    return {"disc_digits": len(str(abs(disc))), "largest_bad_prime": primes[-1],
            "primes_1e3_1e6": sum(1 for q in primes if 10**3 <= q <= 10**6)}


def _factor_below(n: int, bound: int) -> dict[int, int] | None:
    """The factorization of n > 0 if no prime factor exceeds bound, else None
    (by trial division, so a hard cofactor costs no more than the bound)."""
    fac = {}
    for q in sieve.primerange(2, bound + 1):
        if q * q > n:
            break
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
    else:
        if n > 1:
            return None
    if n > 1:
        if n > bound:
            return None
        fac[n] = fac.get(n, 0) + 1
    return fac


def _acceptable(a, max_prime: int, semistable_outside=None) -> bool:
    """Nonsingular, minimal, every bad prime <= max_prime and, if asked,
    multiplicative at every bad prime except semistable_outside."""
    c4, c6, disc = invariants(a)
    if disc == 0:
        return False
    fac = _factor_below(abs(disc), max_prime)
    if fac is None:
        return False
    if not all(is_minimal_at(c4, c6, disc, q) for q in fac):
        return False
    if semistable_outside is not None:
        return all(c4 % q for q in fac if q != semistable_outside)
    return True


def _disc_roots_in_a6(a1, a2, a3, a4, q: int) -> list[int]:
    """a6 mod q making q divide the discriminant (quadratic in a6)."""
    c0 = invariants((a1, a2, a3, a4, 0))[2]
    dp = invariants((a1, a2, a3, a4, 1))[2]
    dm = invariants((a1, a2, a3, a4, -1))[2]
    c2, c1 = (dp + dm) // 2 - c0, (dp - dm) // 2
    disc = (c1 * c1 - 4 * c2 * c0) % q
    inv = pow(2 * c2, -1, q)
    return sorted({(-c1 + s) * inv % q for s in sqrt_mod(disc, q, all_roots=True) or ()})


def _curve_through(rng: random.Random, primes, accept) -> list[int]:
    """A random curve whose discriminant is divisible by every prime given,
    with a6 centred in its residue class, that accept() takes."""
    modulus = math.prod(primes)
    while True:
        a1, a2, a3 = rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1)
        a4 = rng.randint(-60, 60)
        residues = []
        for q in primes:
            roots = _disc_roots_in_a6(a1, a2, a3, a4, q)
            if not roots:
                break
            residues.append(rng.choice(roots))
        else:
            r = int(crt(list(primes), residues)[0])
            a6 = r - modulus if 2 * r > modulus else r
            a = [a1, a2, a3, a4, a6]
            if accept(a):
                return a


def fingerprint(seed: int) -> dict:
    """Mod-p fingerprints: trace_vector to HORIZON, Serre conductor,
    irreducibility test and comparison with the family's target, on the
    fixture families (level 3^k*353 with p = 3, 5^k*67 with p = 5) and on
    seeded curves semistable outside p.  Half of the seeded curves have two
    primes between 10^3 and about 10^4 in the discriminant, so the per-l
    minimal_model + factor recomputation inside ap shows; keeping them near
    or below 10^4 keeps the O(p) Tate scan in serre_conductor_semistable
    small next to count_points.  The other half has only bad primes below
    10^3."""
    rng = random.Random(seed)
    items, targets = [], {}
    for name in ("p3_level353.txt", "p5_level67.txt"):
        for kind, f, _ in fixture_records(name):
            if kind in ("tracerow", "tracecheck"):
                targets[int(f["p"])] = f["model"]
                items.append({"model": f["model"], "p": int(f["p"]), "source": "fixture target"})
            elif kind in ("modrow", "a2row"):
                items.append({"model": f["model"], "p": int(f["p"]),
                              "source": f"fixture level {f['level']}"})
    seeded = FINGERPRINT_ITEMS - len(items)
    half = seeded // 2
    # adjacent strata form a pair, so the smaller prime of a pair, which sets
    # the trial-division cost of factor, is itself stratified
    sizes = _strata(rng, 2 * half, 3.0, 4.0)
    for i in range(seeded):
        p = (3, 5)[i % 2]
        if i < half:
            q1, q2 = (int(nextprime(int(10 ** s))) for s in sizes[2 * i: 2 * i + 2])
            if q1 == q2:
                q2 = int(nextprime(q2))
            a = _curve_through(rng, (q1, q2), lambda a: _acceptable(a, max(q1, q2), p))
            source = "seeded, two primes in [1e3, ~1e4]"
        else:
            while True:
                a = [1, rng.randint(-1, 1), rng.randint(0, 1),
                     rng.randint(-40, 40), rng.randint(-80, 80)]
                if _acceptable(a, 997, p):
                    break
            source = "seeded, bad primes < 1e3"
        items.append({"model": "[%d,%d,%d,%d,%d]" % tuple(a), "p": p, "source": source})
    for it in items:
        a = coefficients(it["model"])
        if not _acceptable(a, 10**6):
            raise AssertionError(f"fingerprint input {it['model']} is not minimal "
                                 "or has a bad prime above 10^6")
        it["props"] = _curve_props(a)
    return {"horizon": HORIZON, "irreducible_bound": IRREDUCIBLE_BOUND,
            "targets": {str(p): m for p, m in sorted(targets.items())}, "items": items}


def _dominant_prime(a, P: int) -> bool:
    """Every bad prime other than P is at most P/20, so that P sets the cost."""
    return all(q <= P // 20 for q in factorint(abs(invariants(a)[2])) if q != P)


def local(seed: int) -> dict:
    """curve-info on seeded minimal curves whose largest bad prime P is
    spread log-uniformly over [10^3, 10^LOCAL_TOP]; every other bad prime is
    at most P/20.  Tate's algorithm scans F_p twice per bad prime here
    (conductor and the local table), so the top of the range sets
    item_p90_ms."""
    rng = random.Random(seed)
    items = []
    for s in _strata(rng, LOCAL_ITEMS, 3.0, LOCAL_TOP):
        P = int(nextprime(int(10**s)))
        a = _curve_through(rng, (P,), lambda a: _acceptable(a, P) and _dominant_prime(a, P))
        items.append({"model": "[%d,%d,%d,%d,%d]" % tuple(a), "props": _curve_props(a)})
        assert items[-1]["props"]["largest_bad_prime"] == P
    return {"items": items}


def _field_disc(poly) -> int:
    a, b, c = poly
    return int(round_two(Poly(_x**3 + a * _x**2 + b * _x + c, _x))[1])


def _index_item(poly, primes, bound, disc, source) -> dict:
    return {"kind": "index", "poly": list(poly), "primes": sorted(primes), "bound": bound,
            "field_disc": disc, "source": source,
            "props": {"disc_digits": len(str(abs(disc))), "S_size": len(primes),
                      "box": (2 * bound + 1) ** 2}}


def search(seed: int) -> dict:
    """Many small bounded searches: the index-form equation on every fixture
    field (S = 2 and the primes of the field discriminant), on x^3 - 2 with
    S = {2,3,5,7} and bound 80 (the seed's solver misses 20 solutions
    there), and on seeded cubic fields with S = {2} and boxes stratified
    over [40, 80]; plus search_mordell on Y^2 = X^3 +- 3^a N^b for N in
    {67, 353, 2063} and seeded primes."""
    rng = random.Random(seed)
    items, seen = [], set()
    for kind, f, _ in fixture_records("gl2f2_fields.txt"):
        if kind != "field" or f["poly"] in seen:
            continue
        seen.add(f["poly"])
        poly = tuple(int(t) for t in f["poly"].strip("() ").split(","))
        disc = int(f["disc"])
        items.append(_index_item(poly, {2} | set(factorint(abs(disc))), FIXTURE_FIELD_BOX,
                                 disc, "fixture field"))
    items.append(_index_item((0, 0, -2), {2, 3, 5, 7}, 80, -108, "x^3 - 2"))
    bounds = [round(b) for b in _strata(rng, SEARCH_SEEDED_FIELDS, 40, 80)]
    rng.shuffle(bounds)
    for i, bound in enumerate(bounds):
        while True:
            poly = (rng.randint(-2, 2), rng.randint(-12, 12), rng.randint(-40, 40))
            if Poly(_x**3 + poly[0] * _x**2 + poly[1] * _x + poly[2], _x).is_irreducible:
                break
        # S = {2}: the cost of a box then depends on its bound alone, so the
        # heaviest items, and with them item_p90_ms, are the same for every
        # seed; the fixture fields and x^3 - 2 carry the larger sets S
        items.append(_index_item(poly, {2}, bound, _field_disc(poly), "seeded field"))
    Ns = [67, 353, 2063] + [int(nextprime(rng.randint(100, 3000))) for _ in range(3)]
    heights = [round(h) for h in _strata(rng, SEARCH_MORDELL_ITEMS, 3000, 12000)]
    rng.shuffle(heights)
    for i, height in enumerate(heights):
        N = Ns[i % len(Ns)]
        # b = 1 keeps these boxes cheaper than the fixed ones below
        k = rng.choice((1, -1)) * 3 ** rng.randint(0, 3) * N
        S, e = ([2, 3, N], 1) if i % 2 else ([3, N], 2)  # 8 or 9 denominators
        items.append(_mordell_item(k, S, height, e, "seeded"))
    # fixed, heavier boxes on the paper's families: with six fixture fields
    # and x^3 - 2 they are the 13 costliest items of every seed, so p90 (the
    # 11th-12th costliest of 116) does not depend on the seeded items
    for N in (67, 353, 2063):
        for sign in (1, -1):
            items.append(_mordell_item(sign * 3 * N, [2, 3, N], 30000, 2, "fixture family"))
    return {"items": items}


def _mordell_item(k, S, height, expbound, source) -> dict:
    box = (2 * height + 1) * (expbound + 1) ** len(S)
    return {"kind": "mordell", "k": k, "S": S, "height": height, "expbound": expbound,
            "naive_check": box <= MORDELL_NAIVE_BOX, "source": source,
            "props": {"S_size": len(S), "box": box}}


def verify(seed: int) -> dict:
    """verify_all() on the packaged fixtures: fixed inputs, the seed is unused."""
    return {"items": [{"kind": "verify_all"}]}


GENERATORS = {"verify": verify, "fingerprint": fingerprint, "local": local, "search": search}
