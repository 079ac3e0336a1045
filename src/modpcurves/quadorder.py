"""Real quadratic orders and the level-raising obstruction.

The order is Z[omega] with omega = (1 + sqrt(d))/2 when d = 1 mod 4 and
omega = sqrt(d) otherwise (d squarefree, d > 1).  Elements are integer pairs
(a, b) meaning a + b*omega; no floating point anywhere.

For an eigenvalue a_ell living in such an order, the obstruction

    A(ell) = (a_ell^2 - (1+ell)^2) * prod_{i^2 < 4*ell} (a_ell - i)

vanishes mod p exactly when a_ell mod p could match an elliptic curve's
trace at ell (good reduction forces a Hasse-interval lift, multiplicative
reduction forces +-(1+ell)).  Only the primes dividing N(A(ell)) can support
such a match.  The norm is multiplicative and N(a_ell - X) = m(X) with
m(X) = X^2 - Tr(a_ell)*X + N(a_ell), so

    N(A(ell)) = m(1+ell) * m(-1-ell) * prod_{i^2 < 4*ell} m(i),

a product of O(sqrt(ell)) small integers that are factored one by one;
A(ell) itself is never multiplied out.  Z[omega] is a domain, so A(ell) = 0
exactly when some m(i) = 0, which needs a rational a_ell equal to one of
those i; the report is then degenerate and names no prime.
"""

from math import isqrt
from typing import NamedTuple

from .arith import Factorization, factor, is_prime, legendre_symbol


class QuadraticOrderElement(NamedTuple):
    d: int  # squarefree, > 1
    a: int
    b: int  # element a + b*omega

    @classmethod
    def checked(cls, d: int, a: int, b: int) -> "QuadraticOrderElement":
        """a + b*omega for a d from outside; raises ValueError unless d is a
        squarefree integer > 1."""
        return cls(checked_d(d), a, b)

    @property
    def half_basis(self) -> bool:
        return self.d % 4 == 1

    def trace(self) -> int:
        # omega + omega-bar is 1 when d = 1 mod 4, else 0
        return 2 * self.a + self.b if self.half_basis else 2 * self.a

    def norm(self) -> int:
        # omega * omega-bar is -(d - 1)/4 when d = 1 mod 4, else -d
        a, b = self.a, self.b
        if self.half_basis:
            return a * a + a * b - (self.d - 1) // 4 * b * b
        return a * a - self.d * b * b


def checked_d(d: int) -> int:
    """d, for a d from outside; raises ValueError unless d is a squarefree
    integer > 1."""
    if d < 2 or any(e > 1 for _, e in factor(d).factors):
        raise ValueError(f"d = {d} is not a squarefree integer > 1")
    return d


def order_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


class ObstructionReport(NamedTuple):
    norm: Factorization | None  # N(A(ell)); None when A(ell) = 0
    obstructed_primes: frozenset
    degenerate: bool


def hasse_interval(ell: int) -> range:
    """Integers i with i^2 < 4*ell (exact comparison, no square roots)."""
    m = isqrt(4 * ell - 1)
    return range(-m, m + 1)


def compute_obstruction(a_ell: QuadraticOrderElement, ell: int) -> ObstructionReport:
    """The factored norm of A(ell) and its prime support.

    A mod-p match with an elliptic curve trace at ell requires p to divide
    N(A(ell)), the product of m(i) = N(a_ell - i) over i = +-(1+ell) and the
    Hasse interval.  If some m(i) is 0 then A(ell) = 0: the report is
    degenerate, names no prime and factors nothing."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    t, n = a_ell.trace(), a_ell.norm()
    values = [i * i - t * i + n for i in (1 + ell, -1 - ell, *hasse_interval(ell))]
    if 0 in values:
        return ObstructionReport(None, frozenset(), True)
    sign, exponents = 1, {}
    for m in values:
        f = factor(m)
        sign *= f.sign
        for p, e in f.factors:
            exponents[p] = exponents.get(p, 0) + e
    norm = Factorization(sign, tuple(sorted(exponents.items())))
    return ObstructionReport(norm, frozenset(norm.support), False)


GOOD_POSSIBLE = "good-reduction-possible"
MULT_POSSIBLE = "multiplicative-possible"
IMPOSSIBLE = "impossible"


def curve_eligibility(a_ell_mod_p: int, ell: int, p: int) -> str:
    """Could any elliptic curve have trace = a_ell_mod_p (mod p) at ell?

    Good reduction needs a lift inside the Hasse interval; multiplicative
    needs +-(1 + ell) mod p (additive needs 0, which the Hasse interval
    already contains).  Raises ValueError for an ell or p that is not
    prime."""
    for name, q in (("ell", ell), ("p", p)):
        if not is_prime(q):
            raise ValueError(f"{name} = {q} is not prime")
    r = a_ell_mod_p % p
    if any(i % p == r for i in hasse_interval(ell)):
        return GOOD_POSSIBLE
    if r == (1 + ell) % p or r == (-1 - ell) % p:
        return MULT_POSSIBLE
    return IMPOSSIBLE


def reciprocity_cover(p: int, candidates: tuple[int, ...]) -> int | None:
    """The first d among the candidates with (d | p) = +1, or None; p is an
    odd prime, which is not checked.

    For the candidates (2, 5, 10) there is one at every odd prime p != 5,
    because the quadratic residue symbol is multiplicative: (2|p)(5|p) =
    (10|p), so the three cannot all be -1."""
    for d in candidates:
        if legendre_symbol(d, p) == 1:
            return d
    return None
