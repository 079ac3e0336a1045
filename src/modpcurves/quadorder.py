"""Exact arithmetic in real quadratic orders and the level-raising obstruction.

The order is Z[omega] with omega = (1 + sqrt(d))/2 when d = 1 mod 4 and
omega = sqrt(d) otherwise (d squarefree, d > 1).  Elements are integer pairs
(a, b) meaning a + b*omega; no floating point anywhere.

For an eigenvalue a_ell living in such an order, the obstruction

    A(ell) = (a_ell^2 - (1+ell)^2) * prod_{i^2 < 4*ell} (a_ell - i)

vanishes mod p exactly when a_ell mod p could match an elliptic curve's
trace at ell (good reduction forces a Hasse-interval lift, multiplicative
reduction forces +-(1+ell)).  When a_ell is irrational, A(ell) != 0 and only
the primes dividing its norm can support such a match.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import factor, is_prime, legendre_symbol


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n).factors)


@dataclass(frozen=True)
class QuadraticOrderElement:
    d: int  # squarefree, > 1
    a: int
    b: int  # element a + b*omega

    def __post_init__(self):
        if self.d < 2 or not _is_squarefree(self.d):
            raise ValueError(f"d = {self.d} is not a squarefree integer > 1")

    @property
    def half_basis(self) -> bool:
        return self.d % 4 == 1

    def _same(self, other) -> None:
        assert isinstance(other, QuadraticOrderElement) and other.d == self.d

    def __add__(self, other):
        if isinstance(other, int):
            other = QuadraticOrderElement(self.d, other, 0)
        self._same(other)
        return QuadraticOrderElement(self.d, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        if isinstance(other, int):
            other = QuadraticOrderElement(self.d, other, 0)
        self._same(other)
        return QuadraticOrderElement(self.d, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QuadraticOrderElement(self.d, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadraticOrderElement(self.d, self.a * other, self.b * other)
        self._same(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if self.half_basis:
            # omega^2 = omega + (d - 1)/4
            m = (self.d - 1) // 4
            return QuadraticOrderElement(self.d,
                                         a1 * a2 + b1 * b2 * m,
                                         a1 * b2 + b1 * a2 + b1 * b2)
        # omega^2 = d
        return QuadraticOrderElement(self.d,
                                     a1 * a2 + b1 * b2 * self.d,
                                     a1 * b2 + b1 * a2)

    __rmul__ = __mul__

    def conjugate(self):
        if self.half_basis:
            # omega-bar = 1 - omega
            return QuadraticOrderElement(self.d, self.a + self.b, -self.b)
        return QuadraticOrderElement(self.d, self.a, -self.b)

    def norm(self) -> int:
        n = self * self.conjugate()
        assert n.b == 0
        return n.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self):
        unit = "(1+sqrt(%d))/2" % self.d if self.half_basis else "sqrt(%d)" % self.d
        return f"{self.a} + {self.b}*{unit}"


def order_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


@dataclass(frozen=True)
class ObstructionReport:
    ell: int
    a_ell: QuadraticOrderElement
    A_value: QuadraticOrderElement
    norm: int
    obstructed_primes: frozenset
    degenerate: bool


def hasse_interval(ell: int) -> range:
    """Integers i with i^2 < 4*ell (exact comparison, no square roots)."""
    m = isqrt(4 * ell - 1)
    return range(-m, m + 1)


def compute_obstruction(a_ell: QuadraticOrderElement, ell: int) -> ObstructionReport:
    """A(ell) and the prime support of its norm.

    A(ell) = (a^2 - (1+ell)^2) * prod over the Hasse interval of (a - i); a
    mod-p match with an elliptic curve trace at ell requires p to divide
    N(A(ell)).  If a_ell is rational the product can vanish, and then the
    report is degenerate and names no prime."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    A = a_ell * a_ell - (1 + ell) ** 2
    for i in hasse_interval(ell):
        A = A * (a_ell - i)
    degenerate = A.is_zero()
    norm = A.norm()
    primes = frozenset() if degenerate else frozenset(factor(abs(norm)).support)
    return ObstructionReport(ell, a_ell, A, norm, primes, degenerate)


GOOD_POSSIBLE = "good-reduction-possible"
MULT_POSSIBLE = "multiplicative-possible"
IMPOSSIBLE = "impossible"


def curve_eligibility(a_ell_mod_p: int, ell: int, p: int) -> str:
    """Could any elliptic curve have trace = a_ell_mod_p (mod p) at ell?

    Good reduction needs a lift inside the Hasse interval; multiplicative
    needs +-(1 + ell) mod p (additive needs 0, which the Hasse interval
    already contains)."""
    r = a_ell_mod_p % p
    if any(i % p == r for i in hasse_interval(ell)):
        return GOOD_POSSIBLE
    if r == (1 + ell) % p or r == (-1 - ell) % p:
        return MULT_POSSIBLE
    return IMPOSSIBLE


def reciprocity_cover(p: int, candidates: tuple[int, ...]) -> int:
    """Some d among the candidates with (d | p) = +1.

    Exists for the candidates (2, 5, 10) because the quadratic residue
    symbol is multiplicative: (2|p)(5|p) = (10|p), so the three cannot all
    be -1."""
    assert is_prime(p) and p > 11 and p % 2 and p % 5
    for d in candidates:
        if legendre_symbol(d, p) == 1:
            return d
    raise AssertionError(f"no quadratic residue among {candidates} mod {p}")
