"""Bounded search for S-integral points on Mordell curves Y^2 = X^3 + k.

An S-integral point is written (x_num / d^2, y_num / d^3) with d supported
on S and gcd(x_num, d) = 1.  Clearing denominators, (x_num, y_num) is an
integral point on Y^2 = X^3 + K with K = k d^6.  For each d the search
sieves the box |x_num| <= H as one integer, bit i standing for
x_num = i - H, with the bit-sieve helpers of arith that the index-form
solver shares.  The 13 sieve moduli q are paired into 7 groups of coprime
moduli.  For each q the flags of the x mod q with x^3 + K a square mod q
are one bytes.translate of the table of cubes mod q through the table of
squares rotated by K mod q, read as a q-bit int.  A group of product m
(at most 4,032) has an m-bit block, the AND of its members' patterns
tiled to m bits by arith.tile, built once per search and residue K mod m;
for each d it costs one arith.tile of the block over the box and one AND.
For each prime p | d an AND with the mask of the x_num prime to p (the
complement of a single bit tiled with period p, built once per search)
clears x_num = 0 (mod p).  The few survivors are found with one to_bytes
and bytes.find (arith.set_bits), and confirmed exactly: x_num^3 + K >= 0,
an integer square by isqrt, and gcd(x_num, d) = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from .arith import is_prime, set_bits, tile


def _square_table(q: int) -> bytes:
    """Byte r is 1 exactly when r is a square mod q."""
    table = bytearray(q)
    for y in range(q):
        table[y * y % q] = 1
    return bytes(table)


# the sieve moduli in coprime pairs, one tiled block per pair (CRT)
_SIEVE_GROUPS = ((64, 63), (65, 11), (17, 19), (23, 29), (31, 37), (41, 43), (47,))
# each modulus with its table of squares and its table of cubes x^3 mod q
_SQUARE_TABLES = {q: _square_table(q) for group in _SIEVE_GROUPS for q in group}
_CUBE_TABLES = {q: bytes(x * x * x % q for x in range(q)) for q in _SQUARE_TABLES}
# flag bytes 0 and 1 -> the digits "0" and "1"
_ASCII01 = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class SIntegerPoint:
    x_num: int
    y_num: int
    denom: int

    def __post_init__(self):
        assert self.denom > 0 and gcd(self.x_num, self.denom) == 1

    @property
    def x(self) -> Fraction:
        return Fraction(self.x_num, self.denom**2)

    @property
    def y(self) -> Fraction:
        return Fraction(self.y_num, self.denom**3)

    def on_curve(self, k: int) -> bool:
        return self.y**2 == self.x**3 + k


def _denominators(S, exponent_bound):
    primes = sorted(S)
    out = []
    for exps in itertools.product(range(exponent_bound + 1), repeat=len(primes)):
        d = 1
        for p, e in zip(primes, exps):
            d *= p**e
        out.append(d)
    return sorted(set(out))


def _cubic_residue_flags(q: int, Kq: int) -> bytes:
    """Byte x is 1 when x^3 + Kq is a square mod q, for 0 <= x < q: the cube
    table translated through the square table rotated by Kq (q < 256)."""
    squares = _SQUARE_TABLES[q]
    rotated = squares[Kq:] + squares[:Kq]
    return _CUBE_TABLES[q].translate(rotated.ljust(256, b"\0"))


def _group_block(group, m: int, K: int, bound: int, cache: dict) -> int:
    """The m-bit block, m the product of the coprime moduli of group, whose
    bit j is 1 when x = j - bound has x^3 + K a square mod each of them: the
    AND of their flag patterns, each rotated by bound and tiled to m bits."""
    live = -1
    for q in group:
        key = q, K % q
        tiled = cache.get(key)
        if tiled is None:
            flags = _cubic_residue_flags(*key)
            k = -bound % q
            pattern = int((flags[k:] + flags[:k])[::-1].translate(_ASCII01), 2)
            tiled = cache[key] = tile(pattern, q, m)
        live &= tiled
    return live


def _sieve(K: int, bound: int, d: int, S, cache: dict) -> int:
    """Bit i is 1 when x = i - bound has x^3 + K a square mod every sieve
    modulus and x is prime to every prime of S that divides d.

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
        if p > 1 and d % p == 0:  # 1 in S divides every d but forbids no x
            prime_to_p = cache.get(p)
            if prime_to_p is None:
                prime_to_p = cache[p] = full & ~(tile(1, p, nbits) << bound % p)
            live &= prime_to_p
    return live


def _integral_points(K: int, bound: int, d: int, S, cache: dict):
    """Integral (x, y), y >= 0, on Y^2 = X^3 + K with |x| <= bound and
    gcd(x, d) = 1, where d is a product of powers of primes of S."""
    hits = []
    for i in set_bits(_sieve(K, bound, d, S, cache)):
        x = i - bound
        t = x**3 + K
        if t >= 0:
            y = isqrt(t)
            if y * y == t and gcd(x, d) == 1:
                hits.append((x, y))
    return hits


def search_mordell(k: int, S, height_bound: int,
                   exponent_bound: int) -> list[SIntegerPoint]:
    """All S-integral points on Y^2 = X^3 + k with denominator d^2 | x for
    d = prod p^e (p in S, e <= exponent_bound) and |x_num| <= height_bound.

    Exhaustive within that numerator box; exact arithmetic throughout.
    Raises ValueError for k = 0, a negative bound, or an entry of S that is
    neither 1 nor a prime."""
    if k == 0:
        raise ValueError("k must be nonzero")
    if height_bound < 0:
        raise ValueError(f"height bound {height_bound} is negative")
    if exponent_bound < 0:
        raise ValueError(f"exponent bound {exponent_bound} is negative")
    for p in S:
        if p != 1 and not is_prime(p):
            raise ValueError(f"S entry {p} is neither 1 nor a prime")
    cache = {}
    points = []
    for d in _denominators(S, exponent_bound):
        for x, y in _integral_points(k * d**6, height_bound, d, S, cache):
            points.append(SIntegerPoint(x, y, d))
            if y:
                points.append(SIntegerPoint(x, -y, d))
    points.sort(key=lambda P: (P.denom, P.x_num, P.y_num))
    assert all(P.on_curve(k) for P in points)
    return points


@dataclass(frozen=True)
class TwistedScanReport:
    N: int
    S: tuple[int, ...]
    height_bound: int
    exponent_bound: int
    cases: tuple[tuple[int, tuple[SIntegerPoint, ...]], ...]

    @property
    def hits(self):
        return tuple((k, pts) for k, pts in self.cases if pts)


def scan_twisted_mordell(N: int, a_bound: int, b_bound: int, S,
                         height_bound: int, exponent_bound: int) -> TwistedScanReport:
    """Search Y^2 = X^3 + s * 3^a * N^b for S-integral points, for both
    signs s and 0 <= a <= a_bound, 1 <= b <= b_bound."""
    cases = []
    for a in range(a_bound + 1):
        for b in range(1, b_bound + 1):
            for sign in (1, -1):
                k = sign * 3**a * N**b
                pts = search_mordell(k, S, height_bound, exponent_bound)
                cases.append((k, tuple(pts)))
    return TwistedScanReport(N, tuple(sorted(S)), height_bound,
                             exponent_bound, tuple(cases))
