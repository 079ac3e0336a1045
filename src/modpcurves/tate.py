"""Tate's algorithm: reduction types, Kodaira symbols, conductor exponents.

Each pass reads (c4, c6, Delta).  If p divides Delta but not c4, the model
is minimal at p and the reduction is I_n, n = v_p(Delta), split iff -c4/c6
is a square in Q_p (Silverman, GTM 151, V.5): iff -c6 is a square mod p for
odd p (c4^3 = c6^2 mod p makes c4 one), iff -c4 c6 = 1 mod 8 at p = 2.
Otherwise the full case chain runs (the p = 2, 3 subcases and the I_n*
sub-loop included); a model not minimal at p is rescaled in place, so the
data always refer to a model minimal at p.  The chain needs only the
multiple root of a polynomial of degree at most 3, which lies in F_p and
comes from gcd(g, g') in closed form (arith.multiple_root), so a bad prime
costs O(log p) arithmetic operations, not O(p).
"""

from functools import lru_cache
from typing import NamedTuple

from .arith import Factorization, legendre_symbol, multiple_root, valuation
from .weierstrass import (SingularModel, WeierstrassModel, b_invariants,
                          c_invariants, minimal_model, transform)

GOOD = "good"
SPLIT_MULT = "split multiplicative"
NONSPLIT_MULT = "nonsplit multiplicative"
ADDITIVE = "additive"

_F_CAP = {2: 8, 3: 5}

# records minimal_curve keeps, least recently used first out
RECORD_CACHE_SIZE = 64


class _LocalDataFields(NamedTuple):
    prime: int
    reduction: str
    conductor_exponent: int
    kodaira: str
    discriminant_valuation: int


class LocalData(_LocalDataFields):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cap = _F_CAP.get(self.prime, 2)
        assert self.conductor_exponent <= cap, self
        if self.reduction == GOOD:
            assert self.conductor_exponent == 0 and self.discriminant_valuation == 0
        elif self.reduction in (SPLIT_MULT, NONSPLIT_MULT):
            assert self.conductor_exponent == 1


def _val(n: int, p: int) -> int:
    return 10**9 if n == 0 else valuation(n, p)


def _singular_point(E: WeierstrassModel, p: int) -> tuple[int, int]:
    """The unique singular point of the reduction mod p, for p | c4 and
    p | disc (the additive branch of tate_local).  At p = 2: c4 = b2^2 = a1
    (mod 2), and with b2 even, disc = b6^2 = a3 (mod 2), so a1 and a3 are
    even.  Then the y-partial 2y + a1 x + a3 vanishes, the x-partial x^2 +
    a4 gives x = a4, and y = y^2 = x^3 + a2 x^2 + a4 x + a6 = a2 a4 + a6."""
    a1, a2, a3, a4, a6 = E.coeffs
    if p == 2:
        assert a1 % 2 == a3 % 2 == 0, E
        return a4 % 2, (a2 * a4 + a6) % 2
    b2, b4, b6 = b_invariants(E)
    # singular x is the multiple root of 4x^3 + b2 x^2 + 2 b4 x + b6 mod p
    root = multiple_root([b6, 2 * b4, b2, 4], p)
    if root is None:
        raise SingularModel(f"no singular point mod {p} on {E}")
    x = root[0]
    return x, (-(a1 * x + a3) * pow(2, -1, p)) % p


def tate_local(E: WeierstrassModel, p: int) -> LocalData:
    """Run Tate's algorithm on E at p.

    Returns reduction type, Kodaira symbol and conductor exponent for a model
    minimal at p (the input is minimized locally first if necessary).
    A singular model raises SingularModel, from c_invariants.
    """
    while True:
        c4, c6, disc = c_invariants(E)
        n = valuation(disc, p)
        if n == 0:
            return LocalData(p, GOOD, 0, "I0", 0)
        if c4 % p:
            # multiplicative, split iff -c4/c6 is a square in Q_p
            if p == 2:
                split = -c4 * c6 % 8 == 1
            else:
                split = legendre_symbol(-c6, p) == 1
            return LocalData(p, SPLIT_MULT if split else NONSPLIT_MULT, 1, f"I{n}", n)

        # additive or not minimal: move the singular point to the origin
        x0, y0 = _singular_point(E, p)
        E = transform(E, 1, x0, 0, y0)
        a1, a2, a3, a4, a6 = E.coeffs

        if _val(a6, p) < 2:
            return LocalData(p, ADDITIVE, n, "II", n)
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        if _val(b8, p) < 3:
            return LocalData(p, ADDITIVE, n - 1, "III", n)
        if _val(b_invariants(E)[2], p) < 3:
            return LocalData(p, ADDITIVE, n - 2, "IV", n)

        # normalize: p | a1, a2;  p^2 | a3, a4;  p^3 | a6
        if p == 2:
            s = a2 % 2
        else:
            s = (-a1 * pow(2, -1, p)) % p
        E = transform(E, 1, 0, s, 0)
        a1, a2, a3, a4, a6 = E.coeffs
        if p == 2:
            t = 2 * ((a6 // 4) % 2)
        else:
            t = p * ((-(a3 // p) * pow(2, -1, p)) % p)
        E = transform(E, 1, 0, 0, t)
        a1, a2, a3, a4, a6 = E.coeffs
        assert a1 % p == 0 and a2 % p == 0
        assert a3 % p**2 == 0 and a4 % p**2 == 0 and a6 % p**3 == 0, (E, p)

        # cubic P(T) = T^3 + a2/p T^2 + a4/p^2 T + a6/p^3 over F_p
        b = a2 // p
        c = a4 // p**2
        d = a6 // p**3
        root = multiple_root([d, c, b, 1], p)
        if root is None:
            return LocalData(p, ADDITIVE, n - 4, "I0*", n)
        alpha, mult = root
        # move the multiple root to T = 0
        E = transform(E, 1, p * alpha, 0, 0)
        a1, a2, a3, a4, a6 = E.coeffs

        if mult == 2:
            # type I_m*: loop
            m = 1
            k = 2
            while True:
                # Y-quadratic Y^2 + (a3/p^k) Y - a6/p^(2k)
                rho = multiple_root([-(a6 // p ** (2 * k)), a3 // p**k, 1], p)
                if rho is None:
                    return LocalData(p, ADDITIVE, n - 4 - m, f"I{m}*", n)
                E = transform(E, 1, 0, 0, rho[0] * p**k)
                a1, a2, a3, a4, a6 = E.coeffs
                m += 1
                # X-quadratic (a2/p) X^2 + (a4/p^(k+1)) X + a6/p^(2k+1)
                xi = multiple_root([a6 // p ** (2 * k + 1), a4 // p ** (k + 1),
                                    a2 // p], p)
                if xi is None:
                    return LocalData(p, ADDITIVE, n - 4 - m, f"I{m}*", n)
                E = transform(E, 1, xi[0] * p**k, 0, 0)
                a1, a2, a3, a4, a6 = E.coeffs
                m += 1
                k += 1
                assert m <= n, "I_n* loop failed to terminate"

        # triple root at T = 0: Y^2 + (a3/p^2) Y - a6/p^4
        rho = multiple_root([-(a6 // p**4), a3 // p**2, 1], p)
        if rho is None:
            return LocalData(p, ADDITIVE, n - 6, "IV*", n)
        E = transform(E, 1, 0, 0, rho[0] * p**2)
        a1, a2, a3, a4, a6 = E.coeffs

        if _val(a4, p) < 4:
            return LocalData(p, ADDITIVE, n - 7, "III*", n)
        if _val(a6, p) < 6:
            return LocalData(p, ADDITIVE, n - 8, "II*", n)
        # not minimal at p: E is now translated so that p^i | a_i for
        # i = 1, 2, 3, 4, 6; rescale it by u = p and rerun
        E = transform(E, p, 0, 0, 0)


class MinimalCurve:
    """E read once: the globally minimal model, the transformation urst =
    (u, r, s, t) onto it and the factored discriminant disc of the model.
    local(p) runs Tate's algorithm at p the first time p is asked for."""

    def __init__(self, E: WeierstrassModel):
        self.model, self.urst, self.disc = minimal_model(E)
        self._local: dict[int, LocalData] = {}

    def local(self, p: int) -> LocalData:
        if p not in self._local:
            self._local[p] = tate_local(self.model, p)
        return self._local[p]


_record = lru_cache(maxsize=RECORD_CACHE_SIZE)(MinimalCurve)


def minimal_curve(E: WeierstrassModel | MinimalCurve) -> MinimalCurve:
    """The record of E.  A MinimalCurve is returned as it is; a model gets
    the record last built for an equal model while it is among the
    RECORD_CACHE_SIZE most recently used, so its minimal model, factored
    discriminant and local data are shared."""
    return E if isinstance(E, MinimalCurve) else _record(E)


def conductor(E: WeierstrassModel | MinimalCurve) -> Factorization:
    """Conductor of E as a factorization, from local Tate data."""
    C = minimal_curve(E)
    return Factorization(1, tuple((p, f) for p in C.disc.support
                                  if (f := C.local(p).conductor_exponent)))
