import random
from fractions import Fraction

import pytest

from modpcurves import tate, weierstrass
from modpcurves.arith import factor
from modpcurves.cubic import CubicField, _det3, _mul_mod
from modpcurves.verify import verify_all
from modpcurves.weierstrass import (SingularModel, WeierstrassModel, c_invariants,
                                    minimal_model, parse_curve)

# curves of known conductor (classical small-conductor models)
SMALL_CONDUCTOR = [
    ("[0,-1,1,-10,-20]", 11),
    ("[1,0,1,4,-6]", 14),
    ("[1,1,1,-10,-10]", 15),
    ("[1,-1,1,-1,-14]", 17),
    ("[0,1,0,4,4]", 20),
    ("[0,-1,0,-4,4]", 24),
    ("[0,0,1,0,-7]", 27),
    ("[0,0,0,4,0]", 32),
    ("[0,0,0,0,1]", 36),
    ("[0,0,1,-1,0]", 37),
    ("[1,-1,0,-2,-1]", 49),
]

# the fixture battery: model, conductor as (prime, exponent) pairs
FIXTURE_CONDUCTORS = [
    ("[1,1,0,-22,-812]", ((2, 1), (3, 1), (353, 1))),
    ("[1,0,1,-80,-275]", ((7, 1), (67, 1))),
    ("[1,0,1,-89,316]", ((2, 1), (5, 1), (11, 1))),
    ("[0,1,0,-9,-21]", ((2, 3), (3, 1), (113, 1))),
    ("[0,1,0,-14,-27]", ((2, 2), (3, 1), (13, 1), (41, 1))),
    ("[0,0,0,-13,-24]", ((2, 5), (19, 1), (89, 1))),
    ("[0,-6,0,-136,-408]", ((2, 6), (17, 1), (103, 1))),
    ("[0,0,0,29,-123]", ((2, 4), (17, 1), (103, 1))),
    ("[0,-3,0,-16,51]", ((2, 4), (7, 1), (281, 1))),
    ("[0,-1,0,-17,-27]", ((2, 3), (3, 1), (13, 2))),
    ("[0,0,0,-43,-117]", ((2, 3), (5, 1), (2063, 1))),
    ("[0,-1,0,-2,27]", ((2, 4), (3, 1), (2063, 1))),
    ("[0,0,0,0,-26]", ((2, 6), (3, 2), (13, 2))),
    ("[1,1,1,-2,16]", ((353, 1),)),
    ("[1,1,1,-66,-270]", ((3, 1), (353, 1))),
    ("[1,-1,0,-594,6691]", ((3, 2), (353, 1))),
    ("[1,-1,0,-63,-176]", ((3, 2), (353, 1))),
    ("[0,0,1,3,4]", ((3, 3), (353, 1))),
    ("[0,0,1,-87891,-10029164]", ((3, 3), (353, 1))),
    ("[0,0,1,27,-115]", ((3, 3), (353, 1))),
    ("[0,0,1,-791019,270787421]", ((3, 3), (353, 1))),
    ("[1,-1,1,-2162,-38150]", ((3, 4), (353, 1))),
    ("[1,-1,0,-240,1493]", ((3, 4), (353, 1))),
    ("[0,1,1,-12,-21]", ((67, 1),)),
    ("[0,0,1,-2,2]", ((5, 1), (67, 1))),
    ("[0,0,1,-50,281]", ((5, 2), (67, 1))),
    ("[0,-1,1,-13,23]", ((5, 2), (67, 1))),
    ("[0,-1,1,-308,-1982]", ((5, 2), (67, 1))),
    ("[0,1,1,-333,2244]", ((5, 2), (67, 1))),
]

ALL_CURVES = [t for t, _ in SMALL_CONDUCTOR] + [t for t, _ in FIXTURE_CONDUCTORS]

FIXTURE_CUBICS = [
    ((-1, -9, 21), -1356),
    ((-1, 8, 19), -1599),
    ((-1, 1, -24), -1691),
    ((-1, -6, 27), -1751),
    ((-1, 2, 25), -1967),
    ((-1, 9, -27), -2028),
    ((-1, -2, 27), -2063),
]


@pytest.fixture(scope="session")
def full_report():
    """The packaged fixture report, computed once for the whole session."""
    return verify_all()


def spy(monkeypatch, module, name):
    """Wrap module.name for the test; the returned list gets the tuple of
    positional arguments of each call, in call order."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture
def minimal_model_runs(monkeypatch):
    """The factor calls of minimal_model so far, one per run, from an empty
    record cache."""
    tate._record.cache_clear()
    return spy(monkeypatch, weierstrass, "factor")


@pytest.fixture
def rng():
    return random.Random(20260823)


def seeded_models(rng, count, box):
    """The first count nonsingular models that rng draws with coefficients
    uniform in [-box, box]; a singular draw is skipped."""
    models = []
    while len(models) < count:
        E = WeierstrassModel(*(rng.randint(-box, box) for _ in range(5)))
        try:
            c_invariants(E)
        except SingularModel:
            continue
        models.append(E)
    return models


def brute_force_count(E, ell):
    """#E(F_ell) of the reduction of the long model E, counted over all
    ell^2 affine pairs plus the point at infinity; a singular point of the
    reduction counts once, so at a bad ell, ell + 1 minus the count is 1, -1
    or 0 for a split node, a nonsplit node or a cusp.  Independent of the
    residue tables."""
    a1, a2, a3, a4, a6 = (a % ell for a in E.coeffs)
    count = 1
    for x in range(ell):
        b = (a1 * x + a3) % ell
        rhs = (((x + a2) * x + a4) * x + a6) % ell
        count += [(y * y + b * y) % ell for y in range(ell)].count(rhs)
    return count


def mat_inv(B):
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


def vec_mat(v, M):
    return tuple(sum(Fraction(v[k]) * M[k][j] for k in range(3)) for j in range(3))


def fraction_basis(K: CubicField):
    """The integral basis 1, (s + u)/m, (t + v u + u^2)/n of K, as Fraction
    coordinates on 1, u, u^2."""
    s, m, t, v, n = K.hermite_basis
    return ((Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(s, m), Fraction(1, m), Fraction(0)),
            (Fraction(t, n), Fraction(v, n), Fraction(1, n)))


def element_index(K: CubicField, x: int, y: int) -> int:
    """Independent oracle: |O_K : Z[theta]| for theta = x*e2 + y*e3 via the
    determinant of (1, theta, theta^2) expressed on the integral basis."""
    basis = fraction_basis(K)
    e1, e2, e3 = basis
    theta = tuple(x * e2[j] + y * e3[j] for j in range(3))
    theta2 = _mul_mod(theta, theta, K.defining_poly)
    inv = mat_inv([list(v) for v in basis])
    rows = [vec_mat(v, inv) for v in ((Fraction(1), Fraction(0), Fraction(0)),
                                      theta, theta2)]
    d = _det3(rows)
    assert d.denominator == 1
    return abs(int(d))


def curves():
    return [parse_curve(t) for t in ALL_CURVES]


class NotSquarefree(Exception):
    pass


def quadratic_twist(E, d):
    """Oracle: the minimal model of the twist of E by the squarefree integer
    d, minimized from (0, 0, 0, -27 d^2 c4, -54 d^3 c6)."""
    if d == 0:
        raise NotSquarefree("d = 0")
    for p, e in factor(d).factors:
        if e >= 2:
            raise NotSquarefree(f"{d} is divisible by {p}^2")
    c4, c6, _ = c_invariants(E)
    twisted = WeierstrassModel(0, 0, 0, -27 * d * d * c4, -54 * d**3 * c6)
    return minimal_model(twisted)[0]
