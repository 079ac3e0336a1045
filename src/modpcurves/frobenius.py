"""Traces of Frobenius a_ell by exact point counting over F_ell.

Good primes: a_ell = ell + 1 - #E(F_ell). For ell >= 5, E is isomorphic over
F_ell to y^2 = x^3 + a x + b, a = -27 c4 and b = -54 c6 mod ell (x -> 36x +
3b2, y -> 108(2y + a1 x + a3)), singular reductions included. traces(E,
ells) computes -27 c4 and -54 c6 once per curve and then reads one count
per ell. A prime 5 <= ell < TABLE_BELOW has one table, built on first use:
roots[v], the number of square roots of v; w[a], a signed 16-bit slot;
and n_r[B] = #{y^2 = x^3 + r x + B} for r = 1 and r = z, z the least
nonresidue, in 16-bit slots: 7 ell bytes in all. For a != 0 write a = r d^2
with r = 1 if a is a square and r = z if not; w[a] is d^-3, negated when d
is a nonsquare. (a, b) is the twist by d of (r, b d^-3), so #E = n_r[b
|w[a]|], or 2 ell + 2 minus it when w[a] < 0 (Silverman, AEC X.5): one read
per count. w is built from x^-3 for x < ell / 2, by the recurrence 1/x =
-floor(ell / x) / (ell mod x). n_r is the correlation of the histogram of
x^3 + r x (odd, so taken from x < ell / 2) with roots, one big-int product.
a = 0 (j = 0) and ell >= TABLE_BELOW sum roots[x^3 + a x + b] over x; ell =
2, 3 try the ell^2 points; a non-prime ell raises ValueError. Bad primes:
+1 split, -1 nonsplit, 0 additive (MinimalCurve).
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
# n_r[B] is packed in 16-bit slot B, read in native order
_SLOT_ORDER = 1 if sys.byteorder == "little" else -1
# ell -> (roots, w, n_1, n_z)
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
    z = 2
    while pow(z, half - 1, ell) == 1:
        z += 1
    roots = bytearray(ell)
    roots[0], roots[1] = 1, 2
    # roots first, since the sign of w[x^2] needs roots[x]; cube[x] = x^-3
    # from 1/x = -(ell // x) / (ell % x)
    cube = [1] * half
    for x in range(2, half):
        roots[x * x % ell] = 2
        cube[x] = -(ell // x) ** 3 * cube[ell % x] % ell
    w = memoryview(bytearray(2 * ell)).cast("h")
    h1, hz = bytearray(ell), bytearray(ell)  # h[v] = #{x < ell / 2 : x^3 + r x = v}
    for x in range(1, half):
        s = x * x % ell
        h1[(s + 1) * x % ell] += 1
        hz[(s + z) * x % ell] += 1
        # d = x for a = s and a = z s
        w[s] = w[s * z % ell] = cube[x] if roots[x] else -cube[x]
    packed, ones, low = _pack(roots), _pack(b"\1" * ell), 16 * (ell - 1)
    counts = []
    for h in (h1, hz):
        # slot ell - 1 - v: #{x : x^3 + r x = v}, from h[v], h[-v] (x -> -x)
        # and x = 0; times roots, slots ell - 1 + B and B - 1 give n_r[B] - 1
        product = (_pack(h[::-1]) + _pack(h[1:] + h[:1]) + (1 << low)) * packed
        n = (product >> low) + ((product & ((1 << low) - 1)) << 16) + ones
        counts.append(memoryview(n.to_bytes(2 * ell, sys.byteorder)).cast("H")[::_SLOT_ORDER])
    tables = _TABLES[ell] = (bytes(roots), w, *counts)
    return tables


def traces(E: WeierstrassModel, ells: Sequence[int]) -> Iterator[int]:
    """ell + 1 - #E(F_ell) for each prime ell of ells, in order, counted on
    E as given (any reduction type): a_ell at a good prime of E."""
    a1, a2, a3, a4, a6 = E.coeffs
    c4, c6 = c4_c6(E)
    A, B = -27 * c4, -54 * c6
    for ell in ells:
        if 5 <= ell < TABLE_BELOW:
            roots, w, n1, nz = _TABLES.get(ell) or _table(ell)
            if a := A % ell:
                d = w[a]
                # t is the trace of (r, B d^-3); E is its twist by d
                t = ell + 1 - (n1 if roots[a] else nz)[B * abs(d) % ell]
                yield t if d > 0 else -t
                continue
        elif not is_prime(ell):
            raise ValueError(f"ell = {ell} is not prime")
        elif ell < 5:
            yield ell - sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6)
                            % ell == 0 for x in range(ell) for y in range(ell))
            continue
        else:
            roots = bytearray(ell)
            roots[0] = 1
            for y in range(1, (ell + 1) // 2):
                roots[y * y % ell] = 2
            a = A % ell
        yield ell - sum([roots[((x * x + a) * x + B) % ell] for x in range(ell)])


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
