"""Traces of Frobenius a_ell by exact point counting over F_ell.

Good primes: a_ell = ell + 1 - #E(F_ell). For odd ell the count completes
the square, (2y + a1 x + a3)^2 = g(x), and adds up, over all x in F_ell, the
number of square roots of g(x) mod ell, read from a table of squares mod ell
that each call builds: O(ell) time and ell bytes, no modular exponentiation.
Bad primes follow the standard conventions: +1 split multiplicative,
-1 nonsplit, 0 additive, the reduction type read from the curve's
MinimalCurve record.
"""

from __future__ import annotations

from .tate import ADDITIVE, SPLIT_MULT, MinimalCurve, minimal_curve
from .weierstrass import WeierstrassModel


class PrimeTooLarge(Exception):
    pass


DEFAULT_COUNT_BOUND = 10**6


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
    # (2y + a1 x + a3)^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6. As 4 is a nonzero
    # square mod ell, g(x) has as many square roots as h(x) = g(x)/4, which is
    # monic: h(x) = x^3 + c2 x^2 + c1 x + c0 with c2 = b2/4, c1 = b4/2, c0 = b6/4.
    half = (ell + 1) // 2  # 1/2 mod ell
    c2 = b2 * half * half % ell
    c1 = b4 * half % ell
    c0 = b6 * half * half % ell
    # roots[v] = #{y in F_ell : y^2 = v}
    roots = bytearray(ell)
    roots[0] = 1
    for y in range(1, half):
        roots[y * y % ell] = 2
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
