"""Independent arithmetic that perfbench checks outputs against.

Nothing here imports modpcurves.  Curve invariants use the textbook
formulas, traces of Frobenius come from a quadratic-residue table (and, for
small primes, from counting every (x, y) in F_l^2), index-form boxes and
Mordell boxes are scanned exhaustively.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt

import numpy as np


def coefficients(model: str) -> list[int]:
    """[a1, a2, a3, a4, a6] from the curve literal "[a1,a2,a3,a4,a6]"."""
    return [int(t) for t in model.strip("[] ").split(",")]


def invariants(a) -> tuple[int, int, int]:
    """(c4, c6, discriminant) of the long Weierstrass model [a1,a2,a3,a4,a6]."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


def is_minimal_at(c4: int, c6: int, disc: int, ell: int) -> bool:
    """Whether a model with these invariants is minimal at ell: scaling by
    u = ell needs ell^12 | disc, ell^4 | c4, ell^6 | c6 and, at 2 and 3,
    Kraus' conditions on the scaled (c4, c6)."""
    if disc % ell**12 or c4 % ell**4 or c6 % ell**6:
        return True
    c4s, c6s = c4 // ell**4, c6 // ell**6
    if ell == 3:
        return c6s != 0 and c6s % 27 != 0 and c6s % 9 == 0
    if ell == 2:
        return not (c6s % 4 == 3 or (c4s % 16 == 0 and c6s % 32 in (0, 8)))
    return False


def count_points_brute(a, ell: int) -> int:
    """#E(F_ell), point at infinity included, by testing all ell^2 pairs."""
    a1, a2, a3, a4, a6 = (c % ell for c in a)
    x = np.arange(ell, dtype=np.int64)[:, None]
    y = np.arange(ell, dtype=np.int64)[None, :]
    lhs = (y * y + a1 * x * y + a3 * y) % ell
    rhs = (((x + a2) * x + a4) * x + a6) % ell
    return 1 + int(np.count_nonzero(lhs == rhs))


def trace_by_table(a, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) for odd ell, from a table of squares mod
    ell applied to the completed square 4x^3 + b2 x^2 + 2 b4 x + b6."""
    a1, a2, a3, a4, a6 = a
    b2 = (a1 * a1 + 4 * a2) % ell
    b4 = (2 * a4 + a1 * a3) % ell
    b6 = (a3 * a3 + 4 * a6) % ell
    x = np.arange(ell, dtype=np.int64)
    g = (((4 * x + b2) % ell * x + 2 * b4) % ell * x + b6) % ell
    square = np.zeros(ell, dtype=bool)
    square[x * x % ell] = True
    chi = np.where(g == 0, 0, np.where(square[g], 1, -1))
    return -int(chi.sum())


def frobenius_traces(a, ells, brute_below: int) -> dict[int, int]:
    """a_ell for every ell in ells on a model minimal at each of them.

    Below brute_below the table count must agree with the O(ell^2) count,
    and every value must lie in the Hasse interval; either failure is a
    defect of this oracle and raises."""
    out = {}
    for ell in ells:
        a_ell = ell + 1 - count_points_brute(a, ell) if ell == 2 else trace_by_table(a, ell)
        if ell < brute_below and ell != 2:
            brute = ell + 1 - count_points_brute(a, ell)
            if brute != a_ell:
                raise AssertionError(f"oracle disagreement at {ell}: {brute} vs {a_ell}")
        if a_ell * a_ell > 4 * ell:
            raise AssertionError(f"Hasse bound violated by the oracle at {ell}: {a_ell}")
        out[ell] = a_ell
    return out


def binary_cubic_discriminant(A: int, B: int, C: int, D: int) -> int:
    return (18 * A * B * C * D - 4 * B**3 * D + B * B * C * C
            - 4 * A * C**3 - 27 * A * A * D * D)


def index_box(coeffs, primes, bound: int) -> set[tuple[int, int, int]]:
    """Every (x, y, |f(x,y)|) with max(|x|,|y|) <= bound, f(x,y) != 0 and
    |f(x,y)| supported on primes, by evaluating f on the whole box."""
    A, B, C, D = coeffs
    if (abs(A) + abs(B) + abs(C) + abs(D)) * bound**3 >= 2**62:
        raise ValueError("box too large for int64 evaluation")
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    x, y = r[:, None], r[None, :]
    v = A * x**3 + B * x * x * y + C * x * y * y + D * y**3
    w = np.abs(v)
    for p in primes:
        while True:
            divisible = (w % p == 0) & (w != 0)
            if not divisible.any():
                break
            w = np.where(divisible, w // p, w)
    hits = np.nonzero((w == 1) & (v != 0))
    return {(int(r[i]), int(r[j]), int(abs(v[i, j]))) for i, j in zip(*hits)}


def denominators(S, exponent_bound: int) -> list[int]:
    out = set()
    for exps in itertools.product(range(exponent_bound + 1), repeat=len(S)):
        d = 1
        for p, e in zip(sorted(S), exps):
            d *= p**e
        out.add(d)
    return sorted(out)


def mordell_box(k: int, S, height: int, exponent_bound: int) -> set[tuple[int, int, int]]:
    """Every (x, y, d) with y^2 = x^3 + k d^6, |x| <= height, d from the
    S-denominators and gcd(x, d) = 1, by an isqrt test on each x."""
    points = set()
    for d in denominators(S, exponent_bound):
        K = k * d**6
        for x in range(-height, height + 1):
            t = x**3 + K
            if t < 0 or gcd(x, d) != 1:
                continue
            y = isqrt(t)
            if y * y == t:
                points.add((x, y, d))
                points.add((x, -y, d))
    return points
