"""Bounded search for S-integral points on Mordell curves Y^2 = X^3 + k.

An S-integral point is written (x_num / d^2, y_num / d^3) with d supported
on S and gcd(x_num, d) = 1.  Clearing denominators, (x_num, y_num) is an
integral point on Y^2 = X^3 + K with K = k d^6.  Each d is searched from
its shorter side.  The least x_num of the box |x_num| <= H with
x_num^3 + K >= 0 is x_lo = max(-H, -icbrt(K)) (arith.icbrt, the floor cube
root); if x_lo > H the d has no point.  Otherwise y_num lies in
[ceil(sqrt(x_lo^3 + K)), isqrt(H^3 + K)]; when that interval is short
beside the box (_BITS_PER_Y) each y in it gives x_num = icbrt(y^2 - K),
kept when its cube is y^2 - K and gcd(x_num, d) = 1.  Any other d sieves
the box as one integer, bit i standing for x_num = i - H, with the
bit-sieve helpers of arith that the index-form solver shares.  The 13 sieve
moduli q are paired into 7 groups of coprime moduli.  For each q the flags
of the x mod q with x^3 + K a square mod q are one bytes.translate of the
table of cubes mod q through the table of squares rotated by K mod q, which
holds ASCII 0 and 1 as the index-form y-sieve's flags do, read by int(.., 2)
as a q-bit int.  A group of product m (at most 4,032) has an m-bit block,
the AND of its members' patterns tiled to m bits by arith.tile, built once
per search and residue K mod m; for each sieved d it costs one arith.tile
of the block over the box and one AND.  For each prime p | d an AND with
the mask of the x_num prime to p (the complement of a single bit tiled with
period p, built once per search) clears x_num = 0 (mod p).  The few
survivors (on the search benchmark 0 in the median, at most 6) cost O(box)
each in arith.set_bits, and are confirmed exactly: x_num^3 + K >= 0, an
integer square by isqrt, and gcd(x_num, d) = 1.
"""

import itertools
from math import gcd, isqrt, prod
from typing import NamedTuple

from .arith import icbrt, set_bits, sorted_primes, tile


def _square_table(q: int) -> bytes:
    """Byte r is ASCII 1 exactly when r is a square mod q, else ASCII 0."""
    table = bytearray(b"0" * q)
    for y in range(q):
        table[y * y % q] = 49
    return bytes(table)


# the sieve moduli in coprime pairs, one tiled block per pair (CRT)
_SIEVE_GROUPS = ((64, 63), (65, 11), (17, 19), (23, 29), (31, 37), (41, 43), (47,))
# each modulus with its table of squares and its table of cubes x^3 mod q
_SQUARE_TABLES = {q: _square_table(q) for group in _SIEVE_GROUPS for q in group}
_CUBE_TABLES = {q: bytes(x * x * x % q for x in range(q)) for q in _SQUARE_TABLES}
# a d with at most nbits / _BITS_PER_Y values of y tries each: one y costs
# about as much as sieving 300 to 900 bits of a box of 6,001 to 60,001 bits
# (CPython 3.11), and ratios 128 to 1,024 time alike on verify and search
_BITS_PER_Y = 512


class _SIntegerPointFields(NamedTuple):
    x_num: int
    y_num: int
    denom: int


class SIntegerPoint(_SIntegerPointFields):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        assert self.denom > 0 and gcd(self.x_num, self.denom) == 1

    def on_curve(self, k: int) -> bool:
        """(x_num / d^2, y_num / d^3) on Y^2 = X^3 + k, times d^6."""
        return self.y_num**2 == self.x_num**3 + k * self.denom**6


def _denominators(S, exponent_bound):
    return sorted({prod(p**e for p, e in zip(S, exps))
                   for exps in itertools.product(range(exponent_bound + 1),
                                                 repeat=len(S))})


def _group_block(group, m: int, K: int, bound: int, cache: dict) -> int:
    """The m-bit block, m the product of the coprime moduli of group, whose
    bit j is 1 when x = j - bound has x^3 + K a square mod each of them: the
    AND of their flag patterns, each rotated by bound and tiled to m bits."""
    live = -1
    for q in group:
        Kq = K % q
        tiled = cache.get((q, Kq))
        if tiled is None:
            # x^3 for x = j - bound through the ASCII squares rotated by Kq
            squares, cubes, k = _SQUARE_TABLES[q], _CUBE_TABLES[q], -bound % q
            flags = (squares[Kq:] + squares[:Kq]).ljust(256, b"0")
            pattern = int((cubes[k:] + cubes[:k]).translate(flags)[::-1], 2)
            tiled = cache[q, Kq] = tile(pattern, q, m)
        live &= tiled
    return live


def _sieve(K: int, bound: int, d: int, S, cache: dict) -> int:
    """Bit i is 1 when x = i - bound has x^3 + K a square mod every sieve
    modulus and x is prime to every prime of S that divides d (S holds
    primes only).

    cache holds the group blocks, keyed (group, K mod m) with m the product
    of the group's moduli, the flag pattern of each modulus q tiled to its
    group's width, keyed (q, K mod q), the masks of the x prime to p, keyed
    p, and the mask of the whole box, keyed "full"; it is valid for one
    bound."""
    nbits = 2 * bound + 1
    full = cache.get("full")
    if full is None:
        full = cache["full"] = (1 << nbits) - 1
    live = full
    for group in _SIEVE_GROUPS:
        m = prod(group)
        key = group, K % m
        block = cache.get(key)
        if block is None:
            block = cache[key] = _group_block(group, m, K, bound, cache)
        live &= tile(block, m, nbits)
    for p in S:
        if d % p == 0:
            prime_to_p = cache.get(p)
            if prime_to_p is None:
                prime_to_p = cache[p] = full & ~(tile(1, p, nbits) << bound % p)
            live &= prime_to_p
    return live


def search_mordell(k: int, S, height_bound: int,
                   exponent_bound: int) -> list[SIntegerPoint]:
    """All S-integral points on Y^2 = X^3 + k with denominator d^2 | x for
    d = prod p^e (p in S, e <= exponent_bound) and |x_num| <= height_bound.

    Exhaustive within that numerator box; exact arithmetic throughout.
    Raises ValueError for k = 0 or a negative bound; S is read by
    arith.sorted_primes under the name "S", so an entry 1 is ignored and any
    other that is not a prime raises ValueError."""
    if k == 0:
        raise ValueError("k must be nonzero")
    if height_bound < 0:
        raise ValueError(f"height bound {height_bound} is negative")
    if exponent_bound < 0:
        raise ValueError(f"exponent bound {exponent_bound} is negative")
    S = sorted_primes(S, "S")
    H, nbits = height_bound, 2 * height_bound + 1
    cache = {}
    points = []
    for d in _denominators(S, exponent_bound):
        K = k * d**6
        x_lo = max(-H, -icbrt(K))  # the least x of the box with x^3 + K >= 0
        if x_lo > H:
            continue
        t = x_lo**3 + K
        y_lo, y_hi = isqrt(t), isqrt(H**3 + K)
        y_lo += y_lo * y_lo < t
        hits = []
        if _BITS_PER_Y * (y_hi - y_lo + 1) <= nbits:
            for y in range(y_lo, y_hi + 1):
                t = y * y - K
                x = icbrt(t)
                if x**3 == t and gcd(x, d) == 1:
                    hits.append((x, y))
        else:
            for i in set_bits(_sieve(K, H, d, S, cache)):
                x = i - H
                t = x**3 + K
                if t >= 0:
                    y = isqrt(t)
                    if y * y == t and gcd(x, d) == 1:
                        hits.append((x, y))
        for x, y in hits:
            points.append(SIntegerPoint(x, y, d))
            if y:
                points.append(SIntegerPoint(x, -y, d))
    points.sort(key=lambda P: (P.denom, P.x_num, P.y_num))
    assert all(P.on_curve(k) for P in points)
    return points


def scan_twisted_mordell(N: int, a_bound: int, b_bound: int, S,
                         height_bound: int, exponent_bound: int) -> list:
    """Search Y^2 = X^3 + s * 3^a * N^b for S-integral points, for both
    signs s and 0 <= a <= a_bound, 1 <= b <= b_bound: the list of (k, points)
    for each k searched.  Raises ValueError for N = 0 or an empty range."""
    if N == 0:
        raise ValueError("N must be nonzero")
    if a_bound < 0:
        raise ValueError(f"a bound {a_bound} is negative")
    if b_bound < 1:
        raise ValueError(f"b bound {b_bound} is below 1")
    cases = []
    for a in range(a_bound + 1):
        for b in range(1, b_bound + 1):
            for sign in (1, -1):
                k = sign * 3**a * N**b
                cases.append((k, search_mordell(k, S, height_bound, exponent_bound)))
    return cases
