"""Tate's algorithm: reduction types, Kodaira symbols, conductor exponents.

The full case chain is implemented (including the p = 2, 3 subcases and the
I_n* sub-loop), not the p >= 5 shortcuts.  Non-minimal local models are
detected by the final case and rescaled in place, so the reported data always
refers to a model minimal at p.  Every root over F_p that the algorithm needs
comes from roots_mod_p, in O(log p) arithmetic operations, so large bad
primes cost no more than small ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Factorization, valuation
from .weierstrass import (SingularModel, WeierstrassModel, discriminant,
                          minimal_model, transform)

GOOD = "good"
SPLIT_MULT = "split multiplicative"
NONSPLIT_MULT = "nonsplit multiplicative"
ADDITIVE = "additive"

_F_CAP = {2: 8, 3: 5}


@dataclass(frozen=True)
class LocalData:
    prime: int
    reduction: str
    conductor_exponent: int
    kodaira: str
    discriminant_valuation: int

    def __post_init__(self):
        cap = _F_CAP.get(self.prime, 2)
        assert self.conductor_exponent <= cap, self
        if self.reduction == GOOD:
            assert self.conductor_exponent == 0 and self.discriminant_valuation == 0
        elif self.reduction in (SPLIT_MULT, NONSPLIT_MULT):
            assert self.conductor_exponent == 1


def _val(n: int, p: int, big: int = 10**9) -> int:
    return big if n == 0 else valuation(n, p)


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod_poly(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g over F_p (ascending coefficients,
    g trimmed and nonzero)."""
    r = [c % p for c in f]
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(r) - len(g) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(g) - 1] * inv % p
        q[k] = c
        if c:
            for i, gi in enumerate(g):
                r[k + i] = (r[k + i] - c * gi) % p
    return q, _trim(r[: len(g) - 1])


def _gcd_poly(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of two polynomials, not both zero."""
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        f, g = g, _divmod_poly(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _powmod_linear(delta: int, e: int, g: list[int], p: int) -> list[int]:
    """(x + delta)^e mod g over F_p for monic g of degree d >= 1, by
    repeated squaring; d coefficients, ascending."""
    d = len(g) - 1

    def reduce(f):
        for k in range(len(f) - 1, d - 1, -1):
            c = f[k] % p
            if c:
                for i in range(d):
                    f[k - d + i] -= c * g[i]
        return [c % p for c in f[:d]]

    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * d - 1)
        for i, ri in enumerate(r):
            if ri:
                for j, rj in enumerate(r):
                    sq[i + j] += ri * rj
        r = reduce(sq)
        if bit == "1":  # times x + delta
            r = reduce([delta * r[0]] + [a + delta * b for a, b in zip(r, r[1:] + [0])])
    return r


def _split_roots(h: list[int], p: int) -> list[int]:
    """The roots of h, monic, squarefree and a product of linear factors
    over F_p (p odd), split by gcd(h, (x + delta)^((p-1)/2) - 1) for
    delta = 0, 1, 2, ...  This ends: for distinct roots r1, r2 the sum over
    delta of chi((delta + r1)(delta + r2)) is -1, so some delta makes
    exactly one of delta + r1, delta + r2 a nonzero square."""
    if len(h) <= 2:
        return [-h[0] % p] if len(h) == 2 else []
    delta = 0
    while True:
        w = _powmod_linear(delta, (p - 1) // 2, h, p)
        w[0] -= 1
        f = _gcd_poly(h, w, p)
        if 1 < len(f) < len(h):
            return _split_roots(f, p) + _split_roots(_divmod_poly(h, f, p)[0], p)
        delta += 1


def _multiplicity(cs: list[int], r: int, p: int) -> int:
    """Order of vanishing at r of the nonzero polynomial cs over F_p, by
    synthetic division."""
    mult = 0
    while len(cs) > 1:
        acc = 0
        quot = []
        for c in reversed(cs):
            acc = (acc * r + c) % p
            quot.append(acc)
        if acc:
            break
        mult += 1
        cs = quot[-2::-1]
    return mult


def roots_mod_p(coeffs: list[int], p: int) -> list[tuple[int, int]]:
    """Roots in F_p, ascending, with multiplicities, of the polynomial with
    the given ascending coefficients; its degree is at most 3 and its
    leading coefficient a unit mod p.

    The distinct roots are those of h = gcd(g, x^p - x), with x^p mod g by
    repeated squaring; Cantor-Zassenhaus splits h (Cohen, GTM 138, 1.6 and
    3.4).  O(log p) operations on polynomials of degree at most 3."""
    cs = _trim([c % p for c in coeffs])
    assert len(cs) == len(coeffs) <= 4, (coeffs, p)
    inv = pow(cs[-1], -1, p)
    g = [c * inv % p for c in cs]
    if p == 2:
        candidates = [0, 1]
    else:
        w = _powmod_linear(0, p, g, p) + [0, 0]
        w[1] -= 1  # x^p - x, reduced mod g except for the -x
        candidates = _split_roots(_gcd_poly(g, w, p), p)
    with_mult = [(r, _multiplicity(g, r, p)) for r in sorted(candidates)]
    return [(r, m) for r, m in with_mult if m]


def _singular_point(E: WeierstrassModel, p: int) -> tuple[int, int]:
    """The unique singular point of the reduction mod p (exists when p | disc)."""
    a1, a2, a3, a4, a6 = E.coeffs
    if p == 2:
        for x in range(2):
            for y in range(2):
                fy = (2 * y + a1 * x + a3) % 2
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % 2
                f = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2
                if f == fy == fx == 0:
                    return x, y
        raise SingularModel(f"no singular point mod 2 on {E}")
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    # singular x is a multiple root of 4x^3 + b2 x^2 + 2 b4 x + b6 mod p
    for r, mult in roots_mod_p([b6, 2 * b4, b2, 4], p):
        if mult >= 2:
            inv2 = pow(2, -1, p)
            y = (-(a1 * r + a3) * inv2) % p
            return r, y
    raise SingularModel(f"no singular point mod {p} on {E}")


def _quadratic_double_root(a: int, b: int, c: int, p: int):
    """For a x^2 + b x + c mod p with a a unit: None if two distinct roots
    in an algebraic closure, else the double root, which lies in F_p."""
    roots = roots_mod_p([c, b, a], p)
    return roots[0][0] if roots and roots[0][1] == 2 else None


def tate_local(E: WeierstrassModel, p: int) -> LocalData:
    """Run Tate's algorithm on E at p.

    Returns reduction type, Kodaira symbol and conductor exponent for a model
    minimal at p (the input is minimized locally first if necessary).
    """
    if discriminant(E) == 0:
        raise SingularModel(str(E))
    while True:
        result = _tate_once(E, p)
        if isinstance(result, LocalData):
            return result
        # non-minimal at p: result is E moved into p^i | a_i shape; rescale it
        # by u = p and rerun
        E = transform(result, p, 0, 0, 0)


def _tate_once(E: WeierstrassModel, p: int) -> LocalData | WeierstrassModel:
    """Local data of E at p, or, when E is not minimal at p, the model that E
    was translated into, with p^i dividing a_i for i = 1, 2, 3, 4, 6."""
    n = valuation(discriminant(E), p)
    if n == 0:
        return LocalData(p, GOOD, 0, "I0", 0)

    # move the singular point to the origin
    x0, y0 = _singular_point(E, p)
    E = transform(E, 1, x0, 0, y0)
    a1, a2, a3, a4, a6 = E.coeffs
    b2 = a1 * a1 + 4 * a2

    if b2 % p != 0:
        # multiplicative: tangent directions from T^2 + a1 T - a2
        split = bool(roots_mod_p([-a2, a1, 1], p))
        red = SPLIT_MULT if split else NONSPLIT_MULT
        return LocalData(p, red, 1, f"I{n}", n)

    if _val(a6, p) < 2:
        return LocalData(p, ADDITIVE, n, "II", n)
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    if _val(b8, p) < 3:
        return LocalData(p, ADDITIVE, n - 1, "III", n)
    b6 = a3 * a3 + 4 * a6
    if _val(b6, p) < 3:
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
    roots = roots_mod_p([d, c, b, 1], p)
    max_mult = max((m for _, m in roots), default=1)

    if max_mult == 1:
        return LocalData(p, ADDITIVE, n - 4, "I0*", n)

    if max_mult == 2:
        # type I_m*: move the double root to T = 0 and loop
        alpha = next(r for r, m in roots if m == 2)
        E = transform(E, 1, p * alpha, 0, 0)
        a1, a2, a3, a4, a6 = E.coeffs
        m = 1
        k = 2
        while True:
            # Y-quadratic Y^2 + (a3/p^k) Y - a6/p^(2k)
            rho = _quadratic_double_root(1, a3 // p**k, -(a6 // p ** (2 * k)), p)
            if rho is None:
                return LocalData(p, ADDITIVE, n - 4 - m, f"I{m}*", n)
            E = transform(E, 1, 0, 0, rho * p**k)
            a1, a2, a3, a4, a6 = E.coeffs
            m += 1
            # X-quadratic (a2/p) X^2 + (a4/p^(k+1)) X + a6/p^(2k+1)
            xi = _quadratic_double_root(a2 // p, a4 // p ** (k + 1),
                                        a6 // p ** (2 * k + 1), p)
            if xi is None:
                return LocalData(p, ADDITIVE, n - 4 - m, f"I{m}*", n)
            E = transform(E, 1, xi * p**k, 0, 0)
            a1, a2, a3, a4, a6 = E.coeffs
            m += 1
            k += 1
            assert m <= n, "I_n* loop failed to terminate"

    # triple root: translate it to T = 0
    alpha = next(r for r, m in roots if m == 3)
    E = transform(E, 1, p * alpha, 0, 0)
    a1, a2, a3, a4, a6 = E.coeffs

    # Y^2 + (a3/p^2) Y - a6/p^4
    rho = _quadratic_double_root(1, a3 // p**2, -(a6 // p**4), p)
    if rho is None:
        return LocalData(p, ADDITIVE, n - 6, "IV*", n)
    E = transform(E, 1, 0, 0, rho * p**2)
    a1, a2, a3, a4, a6 = E.coeffs

    if _val(a4, p) < 4:
        return LocalData(p, ADDITIVE, n - 7, "III*", n)
    if _val(a6, p) < 6:
        return LocalData(p, ADDITIVE, n - 8, "II*", n)
    return E


def conductor(E: WeierstrassModel) -> Factorization:
    """Conductor of E as a factorization, from local Tate data."""
    Emin, _, disc = minimal_model(E)
    return conductor_from_local([tate_local(Emin, p) for p in disc.support])


def conductor_from_local(data: list[LocalData]) -> Factorization:
    """The conductor from the Tate data at every bad prime."""
    return Factorization(1, tuple(sorted((ld.prime, ld.conductor_exponent)
                                         for ld in data if ld.conductor_exponent)))
