"""Cubic fields: discriminants, integral bases, index forms, index equations.

A field is Q[u]/(u^3 + a u^2 + b u + c).  Every order containing Z[u] has a
unique reduced Hermite basis 1, e2 = (s + u)/m, e3 = (t + v u + u^2)/n with
m | n, 0 <= s < m, 0 <= v < n/m and 0 <= t < n, and its index form is
f(x, y) = m n F(x/m + v y/n, y/n), where F = (1, -2a, a^2 + b, c - ab) is the
index form of Z[u] on (u, u^2).  The maximal order grows from Z[u] one prime
q with q^2 | disc(poly) at a time, by the criterion for cubic rings
(Davenport-Heilbronn; Belabas, Math. Comp. 66 (1997), section 3).  If
f = 0 mod q, the order is Z + q O' for a larger order O', which has the
basis 1, (e2 - k2)/q, (e3 - k3)/q.  Otherwise the order is q-maximal unless
f has a multiple root in P^1(F_q), and then only the element alpha at that
root can enlarge it, to (alpha - k)/q when that is integral.  Each k is the
triple root mod q of a characteristic polynomial.  Everything is exact
integer arithmetic; the basis is kept as (s, m, t, v, n).  The index-equation
solver keeps only the targets v that the congruence sieve allows; for each
it sieves the lines y = const of the box with one integer, a bit per y, by
the residues of the form mod small primes q: the pattern of v mod q is one
bytes.translate of a fixed row of the classes v y^-3 mod q by a flag table
of the image of F(t, 1) mod q, tiled over the box by arith.tile as the
Mordell search sieves x.  Each line with surviving targets is split once
into pieces where the form is monotone (critical points from isqrt), and
_bisect, which the reducibility test shares, finds each target's roots.
"""

import re
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import (Error, Factorization, factor, int_literals, is_prime,
                    multiple_root, set_bits, sorted_primes, tile)


class ReduciblePolynomial(Error):
    pass


class DiscriminantNotMinusPrime(Error):
    pass


class CubicField(NamedTuple):
    defining_poly: tuple[int, int, int]  # (a, b, c) of x^3 + a x^2 + b x + c
    poly_discriminant: int
    field_discriminant: int
    index_of_generator: int
    # (s, m, t, v, n) of the basis 1, (s + u)/m, (t + v u + u^2)/n
    hermite_basis: tuple[int, int, int, int, int]


class IndexForm(NamedTuple):
    coefficients: tuple[int, int, int, int]  # A x^3 + B x^2 y + C x y^2 + D y^3

    def __call__(self, x: int, y: int) -> int:
        A, B, C, D = self.coefficients
        return A * x**3 + B * x * x * y + C * x * y * y + D * y**3

    def discriminant(self) -> int:
        A, B, C, D = self.coefficients
        return (18 * A * B * C * D - 4 * B**3 * D + B * B * C * C
                - 4 * A * C**3 - 27 * A * A * D * D)


def parse_cubic(text: str) -> tuple[int, int, int]:
    """Accept "(a, b, c)", with both parentheses or none, or a monic
    polynomial like "x^3 - x^2 - 2*x + 27": signed terms c*x^k (c and the
    '*' optional, k <= 3), only x taking an exponent, spaces never between
    two digits.  Anything else raises ValueError naming the text."""
    t = text.strip()
    inner = t[1:-1] if t[:1] == "(" and t[-1:] == ")" else t
    abc = int_literals(inner, 3)
    if abc is not None:
        return abc  # type: ignore[return-value]
    # a space between digits becomes "?", which no term reads
    s = re.sub(r"(?<=\d) +(?=\d)", "?", t).replace(" ", "").replace("**", "^")
    if s[:1] not in ("+", "-"):
        s = "+" + s
    coeffs = [0, 0, 0, 0]
    # one term per sign; the piece before the first sign is empty
    for term in re.split(r"(?=[+-])", s)[1:]:
        m = re.fullmatch(r"([+-])(\d*)(?:(?<=\d)\*(?=x))?(x(?:\^(\d+))?)?", term)
        if not m or not (m[2] or m[3]) or int(m[4] or 0) > 3:
            raise ValueError(f"not a cubic (a, b, c) or polynomial in x: {text!r}")
        k = int(m[4]) if m[4] else (1 if m[3] else 0)
        coeffs[k] += int(m[2] or 1) * (-1 if m[1] == "-" else 1)
    if coeffs[3] != 1:
        raise ValueError(f"not a monic cubic: {text!r}")
    return coeffs[2], coeffs[1], coeffs[0]


# ---------------------------------------------------------------- field ops

def _mul_mod(x, y, poly):
    """Product of two elements (coords on 1, u, u^2) mod u^3 + a u^2 + b u + c."""
    a, b, c = poly
    x0, x1, x2 = x
    y0, y1, y2 = y
    # raw degree-4 coefficients
    z = [x0 * y0,
         x0 * y1 + x1 * y0,
         x0 * y2 + x1 * y1 + x2 * y0,
         x1 * y2 + x2 * y1,
         x2 * y2]
    # u^4 = -a u^3 - b u^2 - c u;  u^3 = -a u^2 - b u - c
    z[3] += -a * z[4]
    z[2] += -b * z[4]
    z[1] += -c * z[4]
    z[2] += -a * z[3]
    z[1] += -b * z[3]
    z[0] += -c * z[3]
    return (z[0], z[1], z[2])


def _det3(B):
    a, b, c = B[0]
    d, e, f = B[1]
    g, h, i = B[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _charpoly(x, d: int, poly) -> list[int] | None:
    """Ascending coefficients of the characteristic polynomial of x/d (x on
    1, u, u^2 in integers, d > 0), or None when one is not an integer, that
    is when x/d is not an algebraic integer."""
    M = [_mul_mod(x, e, poly) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    trace = M[0][0] + M[1][1] + M[2][2]
    minors = (M[0][0] * M[1][1] - M[0][1] * M[1][0] + M[0][0] * M[2][2]
              - M[0][2] * M[2][0] + M[1][1] * M[2][2] - M[1][2] * M[2][1])
    scaled = (-_det3(M), minors * d, -trace * d * d)
    if any(c % d**3 for c in scaled):
        return None
    return [c // d**3 for c in scaled] + [1]


def _triple_root(x, d: int, q: int, poly) -> int | None:
    """k with charpoly(x/d) = (X - k)^3 mod q, or None; x/d is integral."""
    root = multiple_root(_charpoly(x, d, poly), q)
    return root[0] if root and root[1] == 3 else None


def _form_coefficients(poly, m: int, v: int, n: int) -> tuple[int, int, int, int]:
    """Index form on e2 = (s + u)/m, e3 = (t + v u + u^2)/n (m | n), up to
    sign: m n F(x/m + v y/n, y/n) = F(w x + v y, y) / (n w) with w = n/m, where
    F = (1, -2a, a^2 + b, c - ab) is the index form of Z[u] on (u, u^2)."""
    a, b, c = poly
    F1, F2, F3 = -2 * a, a * a + b, c - a * b
    w = n // m
    # coefficients of F(X + v Y, Y), scaled by X -> w X
    num = (w**3,
           (3 * v + F1) * w**2,
           (3 * v * v + 2 * F1 * v + F2) * w,
           ((v + F1) * v + F2) * v + F3)
    assert all(x % (n * w) == 0 for x in num), (poly, m, v, n)
    return tuple(x // (n * w) for x in num)


def _maximal_order(poly, disc: int) -> tuple[int, int, int, int, int]:
    """(s, m, t, v, n) with 1, (s + u)/m, (t + v u + u^2)/n a basis of the
    maximal order of Q[u]/(poly), reduced: 0 <= s < m, 0 <= v < n/m,
    0 <= t < n; disc is the discriminant of poly."""
    s, m, t, v, n = 0, 1, 0, 0, 1
    for q, e in factor(disc).factors:
        if e < 2:
            continue
        while True:
            w = n // m
            e2, e3 = (s, 1, 0), (t, v, 1)  # times m and n
            A, B, C, D = _form_coefficients(poly, m, v, n)
            if A % q == B % q == C % q == D % q == 0:
                # O = Z + q O' for an order O', so e2 and e3 lie in Z + q O'
                k2 = _triple_root(e2, m, q, poly)
                k3 = _triple_root(e3, n, q, poly)
                assert k2 is not None and k3 is not None, (poly, q)
                s, m, t, n = s - k2 * m, m * q, t - k3 * n, n * q
            else:
                # O is not q-maximal only if f has a multiple root mod q in
                # P^1(F_q), and then only the element at it can enlarge O
                x0 = None  # the root (1 : 0), when q | A and q | B
                if A % q or B % q:
                    root = multiple_root([D, C, B, A] if A % q else [D, C, B], q)
                    if root is None:
                        break
                    x0 = root[0]
                alpha, d = (e2, m) if x0 is None else (
                    (x0 * s * w + t, x0 * w + v, 1), n)
                k = _triple_root(alpha, d, q, poly)
                if k is None or _charpoly((alpha[0] - k * d, alpha[1], alpha[2]),
                                          d * q, poly) is None:
                    break
                if x0 is None:
                    s, m = s - k * m, m * q
                else:
                    t, v, n = alpha[0] - k * n, alpha[1], n * q
            assert n % m == 0, (poly, q)
            s, w = s % m, n // m
            t, v = (t - v // w * s * w) % n, v % w
    return s, m, t, v, n


def analyze_cubic(poly) -> CubicField:
    """Field data of the cubic x^3 + a x^2 + b x + c: discriminants, index,
    integral basis in reduced Hermite form."""
    a, b, c = poly
    # a monic cubic is reducible over Q iff it has an integer root r, and r
    # divides c; the least one is named
    if c == 0:
        raise ReduciblePolynomial("root at 0")
    for lo, hi, step in _monotone_pieces(1, a, b, 1, -abs(c), abs(c)):
        r = _bisect(1, a, b, c, lo, hi, step, 0)
        if r is not None:
            raise ReduciblePolynomial(f"rational root {r}")
    # the discriminant of the monic cubic is that of the binary form (1, a, b, c)
    disc = IndexForm((1, a, b, c)).discriminant()
    assert disc != 0
    basis = _maximal_order((a, b, c), disc)
    index = basis[1] * basis[4]  # m n
    field_disc, rem = divmod(disc, index * index)
    assert rem == 0
    return CubicField((a, b, c), disc, field_disc, index, basis)


def index_form(K: CubicField) -> IndexForm:
    """Binary cubic with |f(x, y)| = index of x*e2 + y*e3 in the maximal
    order (basis 1 = e1, e2, e3), in closed form from the Hermite basis."""
    _, m, _, v, n = K.hermite_basis
    A, B, C, D = _form_coefficients(K.defining_poly, m, v, n)
    if A < 0 or (A == 0 and D < 0):
        A, B, C, D = -A, -B, -C, -D
    form = IndexForm((A, B, C, D))
    assert form.discriminant() == K.field_discriminant, (form, K)
    return form


def s3_serre_conductor(K: CubicField) -> Factorization:
    """Odd part of |Delta_K| (with multiplicity): the prime-to-2 conductor of
    the associated S3 mod-2 representation."""
    fac = factor(abs(K.field_discriminant))
    odd = tuple((p, e) for p, e in fac.factors if p != 2)
    return Factorization(1, odd)


def mordell_reduction(K: CubicField) -> int:
    """k = 432*N for a field of prime discriminant -N: elements of index
    N^(3n) correspond to S-integral points on Y^2 = X^3 + k, through the
    scaling [324*c4/N^(2n), 5832*c6/N^(3n)]."""
    N = -K.field_discriminant
    if not is_prime(N):
        raise DiscriminantNotMinusPrime(str(K.field_discriminant))
    return 2**4 * 3**3 * N


# ------------------------------------------------------- index equation

class SieveReport(NamedTuple):
    residues: dict  # modulus 2 and 9 -> sorted tuple of attainable residues
    surviving_exponents: dict  # prime -> sorted tuple of exponents <= 11
    conclusions: tuple[str, ...]


def _attainable_residues(form: IndexForm, m: int):
    """f(x, y) mod m over the pairs with gcd(x, y, m) = 1, m a prime power:
    one of x, y is then a unit u, so f(x, y) = u^3 f(t, 1) or u^3 f(1, t),
    and (t, 1), (1, t) are such pairs for every t."""
    cubes = {u**3 % m for u in range(m) if gcd(u, m) == 1}
    values = {form(t, 1) for t in range(m)} | {form(1, t) for t in range(m)}
    return {c * v % m for c in cubes for v in values}


_CAP = 11  # the largest exponent congruence_sieve decides


def _describe(S, p):
    if not S:
        return f"no exponent of {p} is allowed: equation impossible"
    if S == {0}:
        return f"exponent of {p} forced to 0"
    if len(S) == _CAP + 1:
        return f"exponent of {p} unconstrained"
    for k in range(1, _CAP):
        residues = {e % k for e in S}
        if all((e in S) == (e % k in residues) for e in range(_CAP + 1)):
            rs = ",".join(str(r) for r in sorted(residues))
            return f"exponent of {p} = {rs} (mod {k})"
    return f"exponent of {p} in {sorted(S)} (pattern unresolved up to {_CAP})"


def congruence_sieve(form: IndexForm, allowed_primes) -> SieveReport:
    """Which exponents e <= 11 of each allowed prime p occur in some exponent
    vector of |f(x,y)| = prod p^e that survives the residue tests mod 2 and
    mod 9, for coprime (x, y).

    The tests see t = prod p^e only through t mod L, L = 18, so each prime
    contributes its classes p^e mod L, and e survives exactly when p^e * r
    passes for some product r of the other primes' classes.  The primes
    are read by arith.sorted_primes under the name "primes": an entry 1 is
    ignored, and any other that is not a prime raises ValueError."""
    primes = sorted_primes(allowed_primes, "primes")
    moduli = (2, 9)
    residues = {m: _attainable_residues(form, m) for m in moduli}
    L = lcm(*moduli)
    passing = {t for t in range(L)
               if all(t % m in residues[m] or -t % m in residues[m] for m in moduli)}
    classes = [{pow(p, e, L) for e in range(_CAP + 1)} for p in primes]

    def products(sets):
        out = {1 % L}
        for s in sets:
            out = {a * b % L for a in out for b in s}
        return out

    surviving = {}
    for i, p in enumerate(primes):
        others = products(classes[:i] + classes[i + 1:])
        surviving[p] = {e for e in range(_CAP + 1)
                        if any(pow(p, e, L) * r % L in passing for r in others)}
    conclusions = tuple(_describe(surviving[p], p) for p in primes)
    return SieveReport({m: tuple(sorted(residues[m])) for m in moduli},
                       {p: tuple(sorted(surviving[p])) for p in primes},
                       conclusions)


def _monotone_pieces(A, B, C, y, lo, hi):
    """Integer intervals covering [lo, hi] on each of which
    g(x) = A x^3 + B y x^2 + C y^2 x + D y^3 (A > 0, y > 0) is strictly
    monotone, as (l, r, step) with step = 1 if g increases, -1 if it falls.

    g' vanishes at y (-B -+ sqrt(d)) / (3A) with d = B^2 - 3AC; their floors
    are taken exactly, with the ceiling square root for the smaller one."""
    d = B * B - 3 * A * C
    if d <= 0:
        return [(lo, hi, 1)]
    s = isqrt(d * y * y)
    s_up = s if s * s == d * y * y else s + 1
    k1 = (-B * y - s_up) // (3 * A)  # floor of the smaller critical point
    k2 = (-B * y + s) // (3 * A)  # floor of the larger one
    pieces = ((lo, min(k1, hi), 1), (max(k1 + 1, lo), min(k2, hi), -1),
              (max(k2 + 1, lo), hi, 1))
    return [p for p in pieces if p[0] <= p[1]]


def _bisect(A, B, C, D, lo: int, hi: int, step: int, v: int) -> int | None:
    """The x in [lo, hi] with g(x) = v, or None, for g(x) = A x^3 + B x^2 +
    C x + D strictly monotone on [lo, hi] (rising if step = 1, falling if
    -1): it bisects h = step * (g - v), which rises, when h(lo) <= 0 <= h(hi),
    evaluating h by Horner inline, with no call per step."""
    if step < 0:
        A, B, C, D = -A, -B, -C, v - D
    else:
        D -= v
    if ((A * lo + B) * lo + C) * lo + D > 0 or ((A * hi + B) * hi + C) * hi + D < 0:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if ((A * mid + B) * mid + C) * mid + D < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo if ((A * lo + B) * lo + C) * lo + D == 0 else None


# y-sieve primes of solve_index_equation, chosen by timing: adding 37..47
# sped up the small boxes and the -2063 box at 10^4, dropping 29, 31 slowed both
_Y_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# per y-sieve prime q, row vq: the class vq y^-3 mod q of each unit y < q,
# then q + vq for y = q; the inverse cubes translated by w -> vq w mod q, read
# at 0, vq, 2 vq, .. of q copies of 0..q-1 (nothing, so all 0, for vq = 0)
_Y_SIEVE_ROWS = [(q, [inv.translate(mul[:q * vq:vq or 1].ljust(256, b"\0")) + bytes([q + vq])
                      for vq in range(q)])
                 for q, inv, mul in ((q, bytes([pow(y, -3, q) for y in range(1, q)]),
                                      bytes(range(q)) * q) for q in _Y_SIEVE_PRIMES)]


def _y_flags(q: int, rows, A: int, Ft) -> bytearray:
    """Translate table of the y-sieve mod q for a form with F(t, 1) = Ft[t]:
    ASCII 1 at the image of F(t, 1) mod q and at q + A c mod q for each unit
    cube c (row A mod q but its last byte).  Row vq translated, reversed and
    read in base 2 has bit y - 1 for each y in [1, q] kept for v = vq."""
    flags = bytearray(b"0" * 256)
    for f in Ft[:q]:
        flags[f % q] = 49
    for w in rows[A % q][:-1]:
        flags[q + w] = 49
    return flags


def solve_index_equation(K: CubicField, allowed_primes, search_bound: int):
    """All (x, y) with max(|x|,|y|) <= search_bound and |f(x, y)| supported
    on allowed_primes, plus the congruence sieve report.

    Coprime pairs are found directly; since f(dx, dy) = d^3 f(x, y), the
    non-primitive solutions are exactly the allowed-prime-smooth multiples
    of coprime ones and are appended by scaling.  Returns (solutions,
    report): solutions are (x, y, |f(x,y)|) triples.  Raises ValueError for
    a negative bound; congruence_sieve raises it for an entry of
    allowed_primes that is neither 1 nor a prime, and ignores an entry 1.

    Besides the y = 0 edge (+-1, 0), a coprime solution with y > 0 is
    f(x, y) = v for a signed target v = +-prod p^e that passes the residue
    tests mod 2 and mod 9.  For each such v, the y in [1, bound] are sieved
    as one integer, bit j for y = j + 1, by each prime q <= 47; the mask of
    each (q, v mod q) is built once per call, by one translate (_y_flags).
    Each surviving line y = const is split into monotone pieces once, and
    bisected for each target that survives on it.  The sieve drops no
    coprime solution (x, y) of f(x, y) = v: if q does not divide y, then
    f(x, y) = y^3 f(x/y, 1), so v y^-3 mod q lies in the image of f(t, 1)
    mod q; if q divides y, then q does not divide x, and v = A x^3 (mod q)
    for a unit x.  The pairs it does drop are not coprime, and those come
    from the scaling step.  The points (0, +-1) need no edge of their own:
    line y = 1 holds x = 0 and survives for v = D = f(0, 1)."""
    if search_bound < 0:
        raise ValueError(f"search bound {search_bound} is negative")
    form = index_form(K)
    A, B, C, D = form.coefficients
    report = congruence_sieve(form, allowed_primes)
    primes = list(report.surviving_exponents)
    Bnd = search_bound
    maxval = (abs(A) + abs(B) + abs(C) + abs(D)) * Bnd**3
    # enumerate targets supported on the allowed primes, up to maxval, which
    # bounds every |f(x, y)| in the box
    targets = [1]
    for p in primes:
        grown = []
        for t in targets:
            while t <= maxval:
                grown.append(t)
                t *= p
        targets = grown
    targets.sort()
    sols = set()
    # keep a signed target only if every modulus can attain it: coprime
    # (x, y) have gcd(x, y, m) = 1, so f(x, y) mod m lies in residues[m]
    mod2, mod9 = set(report.residues[2]), set(report.residues[9])
    values = [v for t in targets for v in (t, -t) if v % 9 in mod9 and v % 2 in mod2]

    # the y = 0 edge: f(+-1, 0) = +-A, a target when |A| <= maxval
    if Bnd and abs(A) in targets:
        sols.update(((1, 0, abs(A)), (-1, 0, abs(A))))
    # per y-sieve prime q its rows, flags and masks by v mod q; targets by line
    Ft = [((A * t + B) * t + C) * t + D for t in range(_Y_SIEVE_PRIMES[-1])]
    tables = [(q, rows, _y_flags(q, rows, A, Ft), [None] * q) for q, rows in _Y_SIEVE_ROWS]
    box = (1 << Bnd) - 1
    lines: dict[int, list[int]] = {}
    for v in values:
        live = box
        for q, rows, flags, masks in tables:
            if not live:
                break
            vq = v % q
            mask = masks[vq]
            if mask is None:
                mask = masks[vq] = tile(int(rows[vq].translate(flags)[::-1], 2), q, Bnd)
            live &= mask
        for j in set_bits(live):
            lines.setdefault(j + 1, []).append(v)
    # a root x on line y has f(x, y) = v, |v| a target, and |x|, y <= Bnd
    for y, vs in lines.items():
        pieces = _monotone_pieces(A, B, C, y, -Bnd, Bnd)
        By, Cy, Dy = B * y, C * y * y, D * y**3
        for v in vs:
            for lo, hi, step in pieces:
                x = _bisect(A, By, Cy, Dy, lo, hi, step, v)
                if x is not None and gcd(x, y) == 1:
                    sols.add((x, y, abs(v)))
                    sols.add((-x, -y, abs(v)))
    # smooth multiples of coprime solutions: f(dx, dy) = d^3 f(x, y); every
    # smooth d <= Bnd <= maxval is a target
    scaled = set()
    for x, y, v in sols:
        for d in targets[1:]:
            if d * max(abs(x), abs(y)) > Bnd:
                break
            scaled.add((d * x, d * y, v * d**3))
    return sorted(sols | scaled), report
