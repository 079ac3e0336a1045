"""Exact integer arithmetic shared by every module.

Factorization (trial division by the primes below 10^3, then Brent-cycle
Pollard rho on every composite cofactor; every reported prime passes
is_prime: deterministic Miller-Rabin on the fewest bases that suffice below
3.3 * 10^24, BPSW above), p-adic valuations, Legendre and Jacobi symbols (by
reciprocity, with no modular exponentiation), the multiple root mod p of a
polynomial of degree at most 3, and the bit sieve that the Mordell search
and the index-form solver share: a periodic pattern tiled over the box by
doubling shift-or steps, and the positions of the surviving bits.
Everything works on arbitrary-precision ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt


class IncompleteFactorization(Exception):
    """A composite cofactor resisted splitting within the effort bound."""

    def __init__(self, cofactor: int):
        self.cofactor = cofactor
        super().__init__(f"could not split composite cofactor {cofactor}")


# Miller-Rabin to the first k of these bases is deterministic below psi_k,
# the least strong pseudoprime to all k of them (OEIS A014233: Jaeschke,
# Math. Comp. 61, 1993; Sorenson-Webster, Math. Comp. 86, 2017, for psi_12
# and psi_13); above psi_13, is_prime runs BPSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first k of the bases 2..41, k the least with
    n < psi_k, deterministic below psi_13 ~ 3.3 * 10^24 (two bases below
    1373653); above it, Baillie-PSW: a strong test to base 2 and a strong
    Lucas test.  No composite passing BPSW is known."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for k, psi in enumerate(_PSI, 1):
        if n < psi:
            return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES[:k])
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Miller-Rabin to base a, with n - 1 = d * 2^s and d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: D the first of
    5, -7, 9, -11, ... with (D|n) = -1, P = 1, Q = (1 - D)/4 (n odd, not
    divisible by a prime below 43)."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while (j := legendre_symbol(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(v):
        v %= n
        return (v + n if v % 2 else v) // 2

    # U_k, V_k, Q^k mod n for k = 1, then up the bits of d (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


_PRIMES_1K = _small_primes(1000)


def primes_below(limit: int) -> list[int]:
    """Ascending list of primes < limit."""
    if limit <= 1001:
        return [p for p in _PRIMES_1K if p < limit]
    return [p for p in _small_primes(limit - 1)]


@dataclass(frozen=True)
class Factorization:
    """Signed factored integer: sign * prod(p^e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        assert self.sign in (1, -1)
        last = 1
        for p, e in self.factors:
            assert p > last and e >= 1, (p, e)
            last = p

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1" if self.sign == 1 else "-1"
        body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        return body if self.sign == 1 else "-" + body


def _pollard_rho(n: int, budget: int) -> int | None:
    """Brent-cycle rho on composite odd n.  Returns a nontrivial factor, or
    None if the iteration budget runs out first (factors of size p take on
    the order of sqrt(p) iterations)."""
    used = 0
    c = 1
    while used < budget:
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        # Brent: batch gcds
        q = 1
        m = 128
        r = 1
        while d == 1 and used < budget:
            x = y
            for _ in range(r):
                y = f(y)
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = f(y)
                    q = q * abs(x - y) % n
                d = gcd(q, n)
                k += m
            used += 2 * r
            r *= 2
        if d == n:
            # backtrack
            d = 1
            y = ys
            while d == 1:
                y = f(y)
                d = gcd(abs(x - y), n)
        if 1 < d < n:
            return d
        c += 1
    return None


# rho iterations allowed per composite part: enough for prime factors up to
# roughly _RHO_BUDGET^2
_RHO_BUDGET = 10**7


def factor(n: int) -> Factorization:
    """Complete prime factorization of a nonzero integer.

    Trial division by the primes below 10^3; every part below 10^6 of the
    cofactor is then prime, and a larger composite part is split with Pollard
    rho at an iteration budget of _RHO_BUDGET.  Every reported prime passes
    is_prime.  Raises IncompleteFactorization with the remaining cofactor if
    the budget runs out on a composite.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out: dict[int, int] = {}
    for p in _PRIMES_1K:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # a part below 10^6 = 1000^2 with no prime factor below 10^3 is prime
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < 10**6 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, _RHO_BUDGET)
        if d is None:
            raise IncompleteFactorization(m)
        stack.append(d)
        stack.append(m // d)
    factors = tuple(sorted(out.items()))
    return Factorization(sign, factors)


def valuation(n: int, p: int) -> int:
    """Largest e with p^e | n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def legendre_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity; at a prime
    n it is the Legendre symbol.  Values -1, 0, +1."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def multiple_root(coeffs: list[int], p: int) -> tuple[int, int] | None:
    """The root of multiplicity m >= 2 in F_p, as (r, m), of the polynomial
    with the given ascending coefficients, or None if it has none; its degree
    is at most 3 and its leading coefficient a unit mod p.

    Such a root is unique and lies in F_p.  For p > 3 it is read off
    gcd(g, g') in closed form: for monic g = x^3 + b x^2 + c x + d,
    g - (x/3 + b/9) g' = ((2/9)(3c - b^2)) x + (9d - bc)/9, so 3c = b^2 and
    9d = bc give the triple root -b/3, and otherwise the one candidate is the
    root of that remainder, a double root when g' vanishes there.  For
    p <= 3 every element of F_p is tried."""
    inv = pow(coeffs[-1], -1, p)
    g = [c * inv % p for c in coeffs]
    if p <= 3:
        for r in range(p):
            m = _multiplicity(g, r, p)
            if m >= 2:
                return r, m
        return None
    if len(g) == 3:  # x^2 + b x + c: double root -b/2 when b^2 = 4c
        c, b, _ = g
        return (-b * pow(2, -1, p) % p, 2) if (b * b - 4 * c) % p == 0 else None
    if len(g) < 4:
        return None
    d, c, b, _ = g
    lin, const = 3 * c - b * b, 9 * d - b * c
    if lin % p == 0:
        return (-b * pow(3, -1, p) % p, 3) if const % p == 0 else None
    r = -const * pow(2 * lin, -1, p) % p
    return (r, 2) if (3 * r * r + 2 * b * r + c) % p == 0 else None


# ------------------------------------------------------------- bit sieves
#
# A sieve over n consecutive integers is one int with bit i for the i-th of
# them; each modulus clears its excluded classes with one AND.

def tile(pattern: int, period: int, nbits: int) -> int:
    """The period-bit pattern repeated over nbits bits, as one int: bit i is
    bit i mod period of pattern for every i < nbits.  Shift-or steps double
    the width while it fits, and one last step shifts by what is left, so
    the result ends at the first multiple of period >= nbits: fewer than
    nbits + period bits, which the caller ANDs into a mask of nbits bits.
    The cost grows with nbits, and with log(nbits / period) Python steps."""
    total = period * -(-nbits // period)
    if total <= 0:
        return 0
    mask, width = pattern, period
    while 2 * width <= total:
        mask |= mask << width
        width *= 2
    if width < total:
        mask |= mask << (total - width)
    return mask


# byte b -> 1 when b != 0, and the positions of the 1 bits of b
_NONZERO = bytes([0]) + bytes([1]) * 255
_BYTE_BITS = tuple(tuple(k for k in range(8) if b >> k & 1) for b in range(256))


def set_bits(n: int) -> list[int]:
    """Ascending positions of the 1 bits of n >= 0: one to_bytes, then
    bytes.find over the nonzero bytes, so the cost is linear in the width
    of n however many bits are set."""
    packed = n.to_bytes((n.bit_length() + 7) // 8, "little")
    flags = packed.translate(_NONZERO)
    out = []
    j = flags.find(1)
    while j >= 0:
        base = 8 * j
        out.extend(base + k for k in _BYTE_BITS[packed[j]])
        j = flags.find(1, j + 1)
    return out
