"""Traces of Frobenius a_ell by exact point counting over F_ell.

Good primes: a_ell = ell + 1 - #E(F_ell). For ell >= 5, E is isomorphic over
F_ell to y^2 = x^3 + a x + b, a = -27 c4 and b = -54 c6 mod ell (x -> 36x +
3b2, y -> 108(2y + a1 x + a3)), singular reductions included. traces(E,
ells) computes -27 c4 and -54 c6 once per curve and then yields one count
per ell, lazily. A prime 5 <= ell < TABLE_BELOW has one table (U, off, mul),
built on first use, read as #E = U[off[a] + b mul[a] mod ell] for every
(a, b), j = 0 and singular models included: one read, no branch. U holds
five segments of ell 16-bit counts: n_1, n_z, 2 ell + 2 - n_1, 2 ell + 2 -
n_z and n_0, where n_r[B] = #{y^2 = x^3 + r x + B} and z is the least
nonresidue. For a != 0 write a = r d^2 with r = 1 if a is a square and r = z
if not: (a, b) is the twist by d of (r, b d^-3), so #E is n_r[b d^-3], or
2 ell + 2 minus it when d is a nonsquare (Silverman, AEC X.5). off[a] is the
start of that segment and mul[a] = d^-3 (16-bit slots); off[0] = 4 ell and
mul[0] = 1 read n_0. That is 14 ell bytes per ell. x^-3 comes from the
recurrence 1/x = -floor(ell / x) / (ell mod x) for x < ell / 2, with d = x
at a = x^2 and z x^2. n_r is the correlation of the histogram of x^3 + r x
(odd, so taken from x < ell / 2) with the root counts, one big-int product
each. For ell = 2 mod 3, x -> x^3 permutes F_ell, so n_0 is ell + 1 for
every B; at ell >= TABLE_BELOW that gives a_ell = 0 for a = 0 without a
count, and every other (a, b) there, j = 0 at ell = 1 mod 3 included, sums
the root counts of x^3 + a x + b over x. ell = 2, 3 count the y over each
x of the long model in closed form; a non-prime ell raises ValueError. Bad
primes: +1 split, -1 nonsplit, 0 additive (MinimalCurve).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence

from .arith import Error, is_prime
from .tate import ADDITIVE, SPLIT_MULT, MinimalCurve, minimal_curve
from .weierstrass import WeierstrassModel, c4_c6


class PrimeTooLarge(Error):
    def __init__(self, ell: int):
        super().__init__(f"ell = {ell} exceeds counting bound {DEFAULT_COUNT_BOUND}")


DEFAULT_COUNT_BOUND = 10**6
# ell below this reads a table: every count, at most 2 ell + 1, fits 16 bits
TABLE_BELOW = 2**10
# the counts of U are packed in 16-bit slots, read in native order
_SLOT_ORDER = 1 if sys.byteorder == "little" else -1
# ell -> (U, off, mul)
_TABLES: dict[int, tuple] = {}


def _pack(data) -> int:
    """The int with byte i of data in its i-th 16-bit slot"""
    slots = bytearray(2 * len(data))
    slots[::2] = data
    return int.from_bytes(slots, "little")


def _table(ell: int) -> tuple:
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    half = (ell + 1) // 2
    roots = bytearray(ell)
    roots[0], roots[1] = 1, 2
    # roots first, since the segment of x^2 needs roots[x]; cube[x] = x^-3
    # from 1/x = -(ell // x) / (ell % x)
    cube = [1] * half
    for x in range(2, half):
        roots[x * x % ell] = 2
        cube[x] = -(ell // x) ** 3 * cube[ell % x] % ell
    z = roots.index(0)  # the least nonresidue: no square root
    off, mul = (memoryview(bytearray(2 * ell)).cast("H") for _ in range(2))
    off[0], mul[0] = 4 * ell, 1
    # h[v] = #{x < ell / 2 : x^3 + r x = v} for r = 1 and z
    h1, hz = bytearray(ell), bytearray(ell)
    for x in range(1, half):
        s = x * x % ell
        h1[(s + 1) * x % ell] += 1
        hz[(s + z) * x % ell] += 1
        # d = x for a = s (segment 0) and a = z s (segment 1); the twist by
        # a nonsquare d reads the complement, segment 2 or 3
        sz = s * z % ell
        if roots[x]:
            off[sz] = ell
        else:
            off[s], off[sz] = 2 * ell, 3 * ell
        mul[s] = mul[sz] = cube[x]
    packed, ones, low = _pack(roots), _pack(b"\1" * ell), 16 * (ell - 1)
    hs = [h1, hz]
    if ell % 3 == 1:
        # r = 0: the histogram of x^-3 = cube[x] in place of that of x^3,
        # the same once the mirror x -> -x is added
        h0 = bytearray(ell)
        for c in cube[1:]:
            h0[c] += 1
        hs.append(h0)
    counts = []
    for h in hs:
        # slot ell - 1 - v: #{x : x^3 + r x = v}, from h[v], h[-v] (x -> -x)
        # and x = 0; times roots, slots ell - 1 + B and B - 1 give n_r[B] - 1
        product = (_pack(h[::-1]) + _pack(h[1:] + h[:1]) + (1 << low)) * packed
        counts.append((product >> low) + ((product & ((1 << low) - 1)) << 16) + ones)
    # x -> x^3 permutes F_ell when ell = 2 mod 3: ell + 1 points for every B
    n1, nz, n0 = (counts + [(ell + 1) * ones])[:3]
    # segments n_1, n_z, 2 ell + 2 - n_1, 2 ell + 2 - n_z, n_0 of ell slots
    pair, both = n1 + (nz << 16 * ell), (2 * ell + 2) * (ones + (ones << 16 * ell))
    U = pair + ((both - pair) << 32 * ell) + (n0 << 64 * ell)
    tables = _TABLES[ell] = (
        memoryview(U.to_bytes(10 * ell, sys.byteorder)).cast("H")[::_SLOT_ORDER], off, mul)
    return tables


def traces(E: WeierstrassModel, ells: Sequence[int]) -> Iterator[int]:
    """ell + 1 - #E(F_ell) for each prime ell of ells, in order, counted on
    E as given (any reduction type): a_ell at a good prime of E."""
    a1, a2, a3, a4, a6 = E.coeffs
    c4, c6 = c4_c6(E)
    A, B = -27 * c4, -54 * c6
    cached = _TABLES.get
    for ell in ells:
        if 5 <= ell < TABLE_BELOW:
            U, off, mul = cached(ell) or _table(ell)
            a = A % ell
            n = U[off[a] + B * mul[a] % ell]
        elif ell == 2:
            # at x = 0, 1: y^2 + b y = r, b = a1 x + a3; one y when b is even
            # (y -> y^2 is onto F_2), else y^2 + y = 0 for both y: two y when
            # r is even, none when it is odd
            n = 1
            for b, r in ((a3, a6), (a1 + a3, 1 + a2 + a4 + a6)):
                n += 2 - 2 * (r & 1) if b & 1 else 1
        elif ell == 3:
            # (2y + b)^2 = b^2 + 4 r, 4 = 1 mod 3: 1 + chi_3(b^2 + r) values of y
            n = 1
            for x in (0, 1, 2):
                b = a1 * x + a3
                n += (1, 2, 0)[(b * b + ((x + a2) * x + a4) * x + a6) % 3]
        elif not is_prime(ell):
            raise ValueError(f"ell = {ell} is not prime")
        elif A % ell or ell % 3 == 1:
            roots = bytearray(ell)
            roots[0] = 1
            for y in range(1, (ell + 1) // 2):
                roots[y * y % ell] = 2
            a = A % ell
            n = 1 + sum([roots[((x * x + a) * x + B) % ell] for x in range(ell)])
        else:
            # j = 0 and ell = 2 mod 3: x -> x^3 permutes F_ell
            n = ell + 1
        yield ell + 1 - n


def count_points(E: WeierstrassModel, ell: int) -> int:
    """#E(F_ell) including the point at infinity (any reduction type), for a
    prime ell."""
    return ell + 1 - next(traces(E, (ell,)))


def ap(E: WeierstrassModel | MinimalCurve, ell: int) -> int:
    """Trace of Frobenius at ell (minimal model; bad-prime conventions).  A
    prime dividing the minimal discriminant is bad, and read off Tate's
    algorithm at any size; a good ell above DEFAULT_COUNT_BOUND raises
    PrimeTooLarge."""
    C = minimal_curve(E)
    if not C.disc.exponent(ell):
        if ell > DEFAULT_COUNT_BOUND:
            raise PrimeTooLarge(ell)
        a = ell + 1 - count_points(C.model, ell)
        assert a * a < 4 * ell, (C.model, ell, a)
        return a
    reduction = C.local(ell).reduction
    if reduction == ADDITIVE:
        return 0
    return 1 if reduction == SPLIT_MULT else -1
