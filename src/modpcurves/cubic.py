"""Cubic fields: discriminants, integral bases, index forms, index equations.

A field is Q[u]/(u^3 + a u^2 + b u + c).  The maximal order is found by
testing each prime q with q^2 | disc(poly): Dedekind's criterion decides
q-maximality of Z[u] instantly, and when it fails the order is enlarged via
the ring of multipliers of the q-radical until stable (the degree-3 case of
Round 2).  Everything is exact: Fractions and ints, no floating point at
all.  The index-equation solver keeps only the targets that the congruence
sieve allows, splits each line y = const into pieces where the form is
monotone (critical points from isqrt), and bisects for integer roots.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import Factorization, factor


class ReduciblePolynomial(Exception):
    pass


class DiscriminantNotMinusPrime(Exception):
    pass


Vec = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class CubicField:
    defining_poly: tuple[int, int, int]  # (a, b, c) of x^3 + a x^2 + b x + c
    poly_discriminant: int
    field_discriminant: int
    index_of_generator: int
    integral_basis: tuple[Vec, Vec, Vec]  # coords on 1, u, u^2


@dataclass(frozen=True)
class IndexForm:
    coefficients: tuple[int, int, int, int]  # A x^3 + B x^2 y + C x y^2 + D y^3

    def __call__(self, x: int, y: int) -> int:
        A, B, C, D = self.coefficients
        return A * x**3 + B * x * x * y + C * x * y * y + D * y**3

    def discriminant(self) -> int:
        A, B, C, D = self.coefficients
        return (18 * A * B * C * D - 4 * B**3 * D + B * B * C * C
                - 4 * A * C**3 - 27 * A * A * D * D)


def cubic_discriminant(a: int, b: int, c: int) -> int:
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def parse_cubic(text: str) -> tuple[int, int, int]:
    """Accept "(a, b, c)" or a polynomial like "x^3 - x^2 - 2*x + 27"."""
    t = text.strip()
    m = re.fullmatch(r"\(?\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)?", t)
    if m:
        return tuple(int(g) for g in m.groups())  # type: ignore[return-value]
    s = t.replace(" ", "").replace("**", "^").replace("*", "")
    coeffs = {3: 0, 2: 0, 1: 0, 0: 0}
    for sgn, num, var, exp in re.findall(r"([+-]?)(\d*)(x?)(?:\^(\d+))?", s):
        if not num and not var:
            continue
        k = int(exp) if exp else (1 if var else 0)
        n = int(num) if num else 1
        coeffs[k] += -n if sgn == "-" else n
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


def _hnf_lower(rows: list[list[int]]) -> list[list[int]]:
    """Lower-triangular Hermite form (pivot = last nonzero column) for a
    full-rank set of rows in Z^3."""
    rows = [list(r) for r in rows]
    basis: list[list[int]] = []
    for col in (2, 1, 0):
        pool = [r for r in rows if any(r[: col + 1])]
        # gcd-reduce entries in `col` across the pool
        while True:
            nz = [r for r in pool if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            for r in nz[1:]:
                q = r[col] // piv[col]
                for j in range(3):
                    r[j] -= q * piv[j]
        nz = [r for r in pool if r[col]]
        assert nz, "rank deficient"
        piv = nz[0]
        if piv[col] < 0:
            piv = [-v for v in piv]
        basis.append(piv)
        rows = [r for r in pool if r is not nz[0]] + [r for r in rows if r not in pool]
        rows = [r for r in rows if r[col] == 0 or r is piv]
        # kill the col entries of every other row
        for r in rows:
            if r is piv or r[col] == 0:
                continue
            q = r[col] // piv[col]
            for j in range(3):
                r[j] -= q * piv[j]
        rows = [r for r in rows if r is not piv]
    basis.reverse()  # now rows for cols 0,1,2
    # reduce off-pivot entries
    for i in range(3):
        for j in range(i):
            q = basis[i][j] // basis[j][j]
            for k in range(3):
                basis[i][k] -= q * basis[j][k]
    return basis


def _structure_constants(basis: list[Vec], poly):
    """mult[i][j] = coords of basis_i * basis_j on the given basis (must be
    integral if the basis spans a ring)."""
    import itertools

    # inverse of the basis matrix (3x3 Fractions), basis rows on power basis
    B = [list(v) for v in basis]
    inv = _mat_inv(B)
    table = {}
    for i, j in itertools.product(range(3), repeat=2):
        prod = _mul_mod(basis[i], basis[j], poly)
        coords = _vec_mat(prod, inv)
        table[i, j] = coords
    return table


def _mat_inv(B):
    """Inverse of a 3x3 Fraction matrix via adjugate."""
    a, b, c = B[0]
    d, e, f = B[1]
    g, h, i = B[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert det != 0
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return [[Fraction(x) / det for x in row] for row in adj]


def _vec_mat(v, M):
    return tuple(sum(Fraction(v[k]) * M[k][j] for k in range(3)) for j in range(3))


def _maximal_order(poly) -> list[Vec]:
    """Basis (rows, power-basis coords) of the maximal order of Q[u]/(f)."""
    a, b, c = poly
    disc = cubic_discriminant(a, b, c)
    one = Fraction(1)
    basis: list[Vec] = [(one, one * 0, one * 0),
                        (one * 0, one, one * 0),
                        (one * 0, one * 0, one)]
    for q, e in factor(disc).factors:
        if e < 2:
            continue
        basis = _q_maximize(basis, q, poly)
    return basis


def _q_maximize(basis: list[Vec], q: int, poly) -> list[Vec]:
    while True:
        table = _structure_constants(basis, poly)
        # integral structure constants expected
        for v in table.values():
            assert all(x.denominator == 1 for x in v), "basis is not a ring"
        # Frobenius power map x -> x^(q^e), q^e >= 3, on O/qO
        e = 1
        while q**e < 3:
            e += 1
        frob = []
        for i in range(3):
            x = tuple(1 if j == i else 0 for j in range(3))  # coords on basis
            y = x
            for _ in range(e):
                y = _pow_q(y, q, table)
            frob.append([int(t) % q for t in y])
        rad_vectors = _left_kernel_mod_q(frob, q)
        # J = radical: generated by rad vectors and q*O (coords on basis)
        jrows = [[q if j == i else 0 for j in range(3)] for i in range(3)]
        jrows += [[v[j] % q for j in range(3)] for v in rad_vectors]
        J = _hnf_lower(jrows)
        # multiplier ring: y in O with y*J subset q*J  ->  O' = O + (1/q) ker
        Jinv = _mat_inv([[Fraction(x) for x in row] for row in J])
        sys_rows = []
        for i in range(3):  # y = basis_i coordinate direction
            col = []
            for jr in J:
                prod = [sum(jr[k] * int(table[i, k][m]) for k in range(3))
                        for m in range(3)]
                jcoords = _vec_mat(prod, Jinv)
                assert all(t.denominator == 1 for t in jcoords)
                col.extend(int(t) % q for t in jcoords)
            sys_rows.append(col)
        # kernel of the 3 x 3|J| system (vectors v with sum v_i sys_rows[i] = 0 mod q)
        ker = _left_kernel_mod_q(sys_rows, q)
        if not ker:
            return basis
        new_rows = [[q if j == i else 0 for j in range(3)] for i in range(3)]
        new_rows += [[v[j] % q for j in range(3)] for v in ker]
        H = _hnf_lower(new_rows)
        enlarged = [tuple(Fraction(H[i][j], q) for j in range(3)) for i in range(3)]
        # back to power-basis coordinates
        new_basis = []
        for row in enlarged:
            coords = tuple(sum(row[k] * basis[k][j] for k in range(3))
                           for j in range(3))
            new_basis.append(coords)
        if new_basis == basis:
            return basis
        basis = new_basis


def _left_kernel_mod_q(rows, q):
    """Basis of the vectors v mod q with sum_i v_i * rows[i] = 0 mod q."""
    k, n = len(rows), len(rows[0])
    aug = [[x % q for x in row] + [1 if j == i else 0 for j in range(k)]
           for i, row in enumerate(rows)]
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, k) if aug[i][col]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = pow(aug[r][col], -1, q)
        aug[r] = [(x * inv) % q for x in aug[r]]
        for i in range(k):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[r])]
        r += 1
        if r == k:
            break
    return [row[n:] for row in aug[r:]]


def _pow_q(x, q, table):
    """x^q in the algebra with the given structure constants (x int coords)."""
    result = None
    base = x
    e = q
    # repeated squaring via table multiplication
    def mul(u, v):
        out = [0, 0, 0]
        for i in range(3):
            if not u[i]:
                continue
            for j in range(3):
                if not v[j]:
                    continue
                t = table[i, j]
                for m in range(3):
                    out[m] += u[i] * v[j] * int(t[m])
        return tuple(out)

    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def analyze_cubic(poly) -> CubicField:
    """Field data of the cubic x^3 + a x^2 + b x + c: discriminants, index,
    integral basis in Hermite form."""
    a, b, c = poly
    disc = cubic_discriminant(a, b, c)
    # monic cubic is reducible over Q iff it has an integer root
    if c == 0:
        raise ReduciblePolynomial("root at 0")
    for d in range(1, isqrt(abs(c)) + 1):
        if c % d == 0:
            for r in {d, -d, abs(c) // d, -(abs(c) // d)}:
                if r**3 + a * r * r + b * r + c == 0:
                    raise ReduciblePolynomial(f"rational root {r}")
    assert disc != 0
    basis = _maximal_order((a, b, c))
    det = _det3(basis)
    index = abs(Fraction(1) / det)
    assert index.denominator == 1
    index = int(index)
    field_disc, rem = divmod(disc, index * index)
    assert rem == 0
    return CubicField((a, b, c), disc, field_disc, index,
                      (basis[0], basis[1], basis[2]))


def _det3(B):
    a, b, c = B[0]
    d, e, f = B[1]
    g, h, i = B[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def index_form(K: CubicField) -> IndexForm:
    """Binary cubic with |f(x, y)| = index of x*e2 + y*e3 in the maximal
    order (basis 1 = e1, e2, e3), from the basis multiplication table."""
    basis = [list(v) for v in K.integral_basis]
    table = _structure_constants([tuple(v) for v in basis], K.defining_poly)
    p = table[1, 1]  # e2^2
    qq = table[1, 2]  # e2 e3
    r = table[2, 2]  # e3^2
    p1, p2 = int(p[1]), int(p[2])
    q1, q2 = int(qq[1]), int(qq[2])
    r1, r2 = int(r[1]), int(r[2])
    A, B, C, D = p2, 2 * q2 - p1, r2 - 2 * q1, -r1
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


@dataclass(frozen=True)
class MordellReduction:
    k: int
    N: int
    scaling: str


def mordell_reduction(K: CubicField, N: int | None = None, n: int = 1) -> MordellReduction:
    """For a field of prime discriminant -N: elements of index N^(3n)
    correspond to S-integral points on Y^2 = X^3 + 432*N."""
    from .arith import is_prime

    if N is None:
        N = -K.field_discriminant
    if K.field_discriminant != -N or not is_prime(N):
        raise DiscriminantNotMinusPrime(str(K.field_discriminant))
    k = 2**4 * 3**3 * N
    scaling = f"[324*c4/{N}^{{2n}}, 5832*c6/{N}^{{3n}}] with n = {n}"
    return MordellReduction(k, N, scaling)


# ------------------------------------------------------- index equation

@dataclass(frozen=True)
class SieveReport:
    moduli: tuple[int, ...]
    residues: dict  # modulus -> sorted tuple of attainable residues
    surviving_exponents: dict  # prime -> sorted tuple of exponents <= cap
    conclusions: tuple[str, ...]
    exponent_cap: int


def _attainable_residues(form: IndexForm, m: int):
    vals = set()
    for x in range(m):
        for y in range(m):
            if gcd(gcd(x, y), m) == 1:
                vals.add(form(x, y) % m)
    return vals


def _describe(S, cap, p):
    if not S:
        return f"no exponent of {p} is allowed: equation impossible"
    if S == {0}:
        return f"exponent of {p} forced to 0"
    if len(S) == cap + 1:
        return f"exponent of {p} unconstrained"
    for k in range(1, cap):
        residues = {e % k for e in S}
        if all((e in S) == (e % k in residues) for e in range(cap + 1)):
            rs = ",".join(str(r) for r in sorted(residues))
            return f"exponent of {p} = {rs} (mod {k})"
    return f"exponent of {p} in {sorted(S)} (pattern unresolved up to {cap})"


def congruence_sieve(form: IndexForm, allowed_primes, moduli=(2, 9),
                     exponent_cap: int = 11) -> SieveReport:
    """Which exponents e <= exponent_cap of each allowed prime p occur in
    some exponent vector of |f(x,y)| = prod p^e that survives the residue
    tests mod each modulus, for coprime (x, y).

    The tests see t = prod p^e only through t mod L, L = lcm(moduli), so
    each prime contributes its classes p^e mod L, and e survives exactly
    when p^e * r passes for some product r of the other primes' classes."""
    primes = sorted(allowed_primes)
    residues = {m: _attainable_residues(form, m) for m in moduli}
    L = lcm(*moduli)
    passing = {t for t in range(L)
               if all(t % m in residues[m] or -t % m in residues[m] for m in moduli)}
    classes = [{pow(p, e, L) for e in range(exponent_cap + 1)} for p in primes]

    def products(sets):
        out = {1 % L}
        for s in sets:
            out = {a * b % L for a in out for b in s}
        return out

    surviving = {}
    for i, p in enumerate(primes):
        others = products(classes[:i] + classes[i + 1:])
        surviving[p] = {e for e in range(exponent_cap + 1)
                        if any(pow(p, e, L) * r % L in passing for r in others)}
    conclusions = tuple(_describe(surviving[p], exponent_cap, p) for p in primes)
    return SieveReport(tuple(moduli),
                       {m: tuple(sorted(residues[m])) for m in moduli},
                       {p: tuple(sorted(surviving[p])) for p in primes},
                       conclusions, exponent_cap)


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


def solve_index_equation(K: CubicField, allowed_primes, search_bound: int,
                         moduli=(2, 9)):
    """All (x, y) with max(|x|,|y|) <= search_bound and |f(x, y)| supported
    on allowed_primes, plus the congruence sieve report.

    Coprime pairs are found directly; since f(dx, dy) = d^3 f(x, y), the
    non-primitive solutions are exactly the allowed-prime-smooth multiples
    of coprime ones and are appended by scaling.  Returns (solutions,
    report): solutions are (x, y, |f(x,y)|) triples."""
    form = index_form(K)
    A, B, C, D = form.coefficients
    report = congruence_sieve(form, allowed_primes, moduli=moduli)
    Bnd = search_bound
    maxval = (abs(A) + abs(B) + abs(C) + abs(D)) * Bnd**3
    # enumerate targets supported on the allowed primes, up to maxval
    targets = [1]
    for p in sorted(allowed_primes):
        grown = []
        for t in targets:
            while t <= maxval:
                grown.append(t)
                t *= p
        targets = grown
    targets = sorted(set(targets))
    sols = set()

    def record(x, y):
        if max(abs(x), abs(y)) <= Bnd and gcd(x, y) == 1:
            v = form(x, y)
            if v != 0 and _supported(abs(v), allowed_primes):
                sols.add((x, y, abs(v)))

    # keep a signed target only if every modulus can attain it: coprime
    # (x, y) have gcd(x, y, m) = 1, so f(x, y) mod m lies in residues[m]
    allowed = {m: set(r) for m, r in report.residues.items()}
    values = sorted(v for t in targets for v in (t, -t)
                    if all(v % m in allowed[m] for m in report.moduli))

    # y = 0 and x = 0 edges
    for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        record(x, y)
    for y in range(1, Bnd + 1):
        By, Cyy, Dyyy = B * y, C * y * y, D * y**3

        def g(x):
            return ((A * x + By) * x + Cyy) * x + Dyyy

        for lo, hi, step in _monotone_pieces(A, B, C, y, -Bnd, Bnd):
            ends = sorted((g(lo), g(hi)))
            for v in values[bisect_left(values, ends[0]):bisect_right(values, ends[1])]:
                # least x in [lo, hi] with step * g(x) >= step * v
                a, b = lo, hi
                while a < b:
                    mid = (a + b) // 2
                    if step * g(mid) < step * v:
                        a = mid + 1
                    else:
                        b = mid
                if g(a) == v:
                    record(a, y)
                    record(-a, -y)
    # smooth multiples of coprime solutions: f(dx, dy) = d^3 f(x, y)
    scaled = set()
    for x, y, v in sols:
        d = 2
        while d * max(abs(x), abs(y)) <= Bnd:
            if _supported(d, allowed_primes):
                scaled.add((d * x, d * y, v * d**3))
            d += 1
    return sorted(sols | scaled), report


def _supported(n: int, primes) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1
