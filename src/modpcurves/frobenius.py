"""Traces of Frobenius a_ell by exact point counting over F_ell.

Good primes: a_ell = ell + 1 - #E(F_ell). For 5 <= ell < PACKED_BELOW the
count runs on the short model y^2 = x^3 + A x + B, A = -27 c4 and
B = -54 c6 mod ell: x -> 36x + 3b2, y -> 108(2y + a1 x + a3) is invertible
over F_ell, so both models have the same number of points, singular
reductions included. A cache keyed by ell keeps three packed ints with one
32-bit slot per x (X3: x^3 mod ell, X1: x, ONES: 1) and the table of the
number of square roots of each residue: 13 ell bytes per ell, about 1 MB
for all ell below the cap. X3 + A X1 + B ONES holds x^3 + A x + B, at most
ell^2 - 1, in slot x, and one C-level read of the root table repeated ell
times (ell^2 bytes, at most 1 MB, built per call) counts the points with no
% ell. For ell = 3 and ell >= PACKED_BELOW the count completes the square,
(2y + a1 x + a3)^2 = g(x), and adds up, over all x in F_ell, the number of
square roots of g(x) mod ell from a root table that the call builds and
drops: O(ell) time and ell bytes, no modular exponentiation. ell = 2 tries
the four points.
Bad primes follow the standard conventions: +1 split multiplicative,
-1 nonsplit, 0 additive, the reduction type read from the curve's
MinimalCurve record.
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import itemgetter

from .tate import ADDITIVE, SPLIT_MULT, MinimalCurve, minimal_curve
from .weierstrass import WeierstrassModel


class PrimeTooLarge(Exception):
    pass


DEFAULT_COUNT_BOUND = 10**6
# ell below this counts on packed ints: the repeated root table is ell^2 <= 2^20
# bytes, and every slot ell^2 - 1 fits in 32 bits
PACKED_BELOW = 2**10

# slot i of an int packed from little-endian bytes holds the i-th 32-bit word,
# on any host; a count reads the slots back in native order
_X1_BYTES = b"".join(map(int.to_bytes, range(PACKED_BELOW), repeat(4), repeat("little")))
# ell -> (X3, X1, ONES, root counts)
_PACKED: dict[int, tuple[int, int, int, bytes]] = {}


def _root_counts(ell: int) -> bytearray:
    """roots[v] = #{y in F_ell : y^2 = v}, for odd ell"""
    roots = bytearray(ell)
    roots[0] = 1
    for y in range(1, (ell + 1) // 2):
        roots[y * y % ell] = 2
    return roots


def _packed_tables(ell: int) -> tuple[int, int, int, bytes]:
    tables = _PACKED.get(ell)
    if tables is None:
        cubes = map(int.to_bytes, [x * x * x % ell for x in range(ell)],
                    repeat(4), repeat("little"))
        tables = _PACKED[ell] = (int.from_bytes(b"".join(cubes), "little"),
                                 int.from_bytes(_X1_BYTES[:4 * ell], "little"),
                                 int.from_bytes(b"\1\0\0\0" * ell, "little"),
                                 bytes(_root_counts(ell)))
    return tables


def count_points(E: WeierstrassModel, ell: int) -> int:
    """#E(F_ell) including the point at infinity (any reduction type)."""
    a1, a2, a3, a4, a6 = E.coeffs
    if ell == 2:
        n = 1
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y
                        - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0:
                    n += 1
        return n
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    if 5 <= ell < PACKED_BELOW:
        x3, x1, ones, roots = _packed_tables(ell)
        c4 = b2 * b2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        a = -27 * c4 % ell
        b = -54 * c6 % ell
        rhs = x3 + a * x1 + b * ones
        slots = memoryview(rhs.to_bytes(4 * ell, sys.byteorder)).cast("I")
        return 1 + sum(itemgetter(*slots)(roots * ell))
    # (2y + a1 x + a3)^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6. As 4 is a nonzero
    # square mod ell, g(x) has as many square roots as h(x) = g(x)/4, which is
    # monic: h(x) = x^3 + c2 x^2 + c1 x + c0 with c2 = b2/4, c1 = b4/2, c0 = b6/4.
    half = (ell + 1) // 2  # 1/2 mod ell
    c2 = b2 * half * half % ell
    c1 = b4 * half % ell
    c0 = b6 * half * half % ell
    roots = _root_counts(ell)
    return 1 + sum([roots[(((x + c2) * x + c1) * x + c0) % ell]
                    for x in range(ell)])


def ap(E: WeierstrassModel | MinimalCurve, ell: int) -> int:
    """Trace of Frobenius at ell (minimal model; bad-prime conventions).  A
    prime dividing the minimal discriminant is bad."""
    if ell > DEFAULT_COUNT_BOUND:
        raise PrimeTooLarge(
            f"ell = {ell} exceeds counting bound {DEFAULT_COUNT_BOUND}")
    C = minimal_curve(E)
    if not C.disc.exponent(ell):
        a = ell + 1 - count_points(C.model, ell)
        assert a * a < 4 * ell, (C.model, ell, a)
        return a
    reduction = C.local(ell).reduction
    if reduction == ADDITIVE:
        return 0
    return 1 if reduction == SPLIT_MULT else -1
