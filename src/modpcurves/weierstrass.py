"""Long Weierstrass models over Q: invariants and minimal models.

A curve is the integer quintuple [a1,a2,a3,a4,a6] of
y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6.
Global minimization is Laska-Kraus-Connell: strip 12th powers from the
discriminant subject to Kraus' integrality conditions at 2 and 3, then
rebuild the reduced model from (c4, c6).
"""

from typing import NamedTuple

from .arith import Error, Factorization, factor, int_literals, valuation


class SingularModel(Error):
    pass


class WeierstrassModel(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @property
    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self) -> str:
        return "[%d,%d,%d,%d,%d]" % self.coeffs


def parse_curve(text: str) -> WeierstrassModel:
    """Parse the bracket literal "[a1,a2,a3,a4,a6]" (whitespace tolerated)."""
    t = text.strip()
    coeffs = int_literals(t[1:-1], 5) if t[:1] == "[" and t[-1:] == "]" else None
    if coeffs is None:
        raise ValueError(f"not a curve literal: {text!r}")
    return WeierstrassModel(*coeffs)


def b_invariants(E: WeierstrassModel) -> tuple[int, int, int]:
    """(b2, b4, b6) of E."""
    a1, a2, a3, a4, a6 = E
    return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6


def c4_c6(E: WeierstrassModel) -> tuple[int, int]:
    """(c4, c6) of E, a singular model included."""
    b2, b4, b6 = b_invariants(E)
    return b2 * b2 - 24 * b4, -b2**3 + 36 * b2 * b4 - 216 * b6


def c_invariants(E: WeierstrassModel) -> tuple[int, int, int]:
    """(c4, c6, disc) of E, all that Tate's algorithm, minimization and
    curve-info read; a singular model raises SingularModel."""
    c4, c6 = c4_c6(E)
    disc = (c4**3 - c6**2) // 1728
    assert 1728 * disc == c4**3 - c6**2
    if disc == 0:
        raise SingularModel(str(E))
    return c4, c6, disc


def transform(E: WeierstrassModel, u: int, r: int, s: int, t: int) -> WeierstrassModel:
    """Apply (x, y) -> (u^2 x + r, u^3 y + u^2 s x + t); u may be rational only
    in the sense that all new coefficients must come out integral."""
    a1, a2, a3, a4, a6 = E.coeffs
    A1 = a1 + 2 * s
    A2 = a2 - s * a1 + 3 * r - s * s
    A3 = a3 + r * a1 + 2 * t
    A4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
    A6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1
    new = []
    for k, A in ((1, A1), (2, A2), (3, A3), (4, A4), (6, A6)):
        q, rem = divmod(A, u**k)
        if rem:
            raise ValueError(f"transformation (u={u},r={r},s={s},t={t}) not integral")
        new.append(q)
    return WeierstrassModel(*new)


def _kraus_ok(c4: int, c6: int) -> bool:
    """Kraus: (c4, c6) comes from an integral model iff v3(c6) != 2 and
    (c6 = -1 mod 4, or 16 | c4 and c6 = 0 or 8 mod 32)."""
    ok3 = c6 == 0 or valuation(c6, 3) != 2
    ok2 = c6 % 4 == 3 or (c4 % 16 == 0 and c6 % 32 in (0, 8))
    return ok3 and ok2


def _model_from_c4c6(c4: int, c6: int) -> WeierstrassModel:
    """Connell's reconstruction of the reduced model (a1, a3 in {0, 1},
    a2 in {-1, 0, 1}) with given invariants.  Every integral model has
    c6 = -b2 (mod 12), since b2 = a1^2 (mod 4), and the reduced one has the
    b2 of that class in [-5, 6]; (c4, c6) of no integral model raise
    SingularModel."""
    b2 = (5 - c6) % 12 - 5
    b4 = (b2 * b2 - c4) // 24
    b6 = (36 * b2 * b4 - b2**3 - c6) // 216
    a1, a3 = b2 % 2, b6 % 2
    E = WeierstrassModel(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
    if c4_c6(E) != (c4, c6):
        raise SingularModel(f"no integral model with c4={c4}, c6={c6}")
    return E


def minimal_model(E: WeierstrassModel) -> tuple[WeierstrassModel, tuple[int, int, int, int],
                                                Factorization]:
    """Globally minimal model Emin, the transformation (u, r, s, t) onto it and
    the signed factorization of disc(Emin).

    u^12 * disc(Emin) == disc(E); idempotent on minimal models.  disc(E) is
    factored once and disc(Emin) is read off it, so a caller needs no second
    factor call for the bad primes of Emin or their valuations.
    """
    c4, c6, disc = c_invariants(E)
    factored = factor(disc)
    u = 1
    min_factors = []
    for p, e in factored.factors:
        d = e // 12
        if c4 != 0:
            d = min(d, valuation(c4, p) // 4)
        if c6 != 0:
            d = min(d, valuation(c6, p) // 6)
        if p in (2, 3):
            while d > 0 and not _kraus_ok(c4 // p ** (4 * d), c6 // p ** (6 * d)):
                d -= 1
        u *= p**d
        if e > 12 * d:
            min_factors.append((p, e - 12 * d))
    c4m, c6m = c4 // u**4, c6 // u**6
    Emin = _model_from_c4c6(c4m, c6m)
    # recover (r, s, t) exactly
    s, rem = divmod(u * Emin.a1 - E.a1, 2)
    assert rem == 0
    r, rem = divmod(u * u * Emin.a2 - E.a2 + s * E.a1 + s * s, 3)
    assert rem == 0
    t, rem = divmod(u**3 * Emin.a3 - E.a3 - r * E.a1, 2)
    assert rem == 0
    assert transform(E, u, r, s, t) == Emin
    return Emin, (u, r, s, t), Factorization(factored.sign, tuple(min_factors))

