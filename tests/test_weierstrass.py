import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NotSquarefree, curves, quadratic_twist, seeded_models
from modpcurves.arith import factor, valuation
from modpcurves.tate import GOOD, tate_local
from modpcurves.weierstrass import (SingularModel, WeierstrassModel, _model_from_c4c6,
                                    c4_c6, c_invariants, minimal_model, parse_curve,
                                    transform)

coeff = st.integers(min_value=-50, max_value=50)
models = st.builds(WeierstrassModel, coeff, coeff, coeff, coeff, coeff)


def test_parse_curve():
    E = parse_curve("[1, 1, 0, -22, -812]")
    assert E.coeffs == (1, 1, 0, -22, -812)
    with pytest.raises(ValueError):
        parse_curve("[1,2,3]")


def test_invariants_identity_bulk(rng):
    # 10^4 random integral models: 1728 * Delta = c4^3 - c6^2
    for E in seeded_models(rng, 10**4, 200):
        c4, c6, disc = c_invariants(E)
        assert 1728 * disc == c4**3 - c6**2


def test_model_from_c4c6_is_reduced_or_raises(rng):
    # the minimal model of a seeded curve is the reduced model of its (c4, c6):
    # a1, a3 in {0, 1} and a2 in {-1, 0, 1}
    for E in seeded_models(rng, 500, 200):
        Emin = minimal_model(E)[0]
        assert Emin.a1 in (0, 1) and Emin.a3 in (0, 1) and Emin.a2 in (-1, 0, 1), E
        assert _model_from_c4c6(*c4_c6(Emin)) == Emin
    # (c4, c6) of no integral model: those of X0(11) off by one, or by one
    # step of the congruences c4 = b2^2 (mod 24) and c6 = -b2 (mod 12)
    c4, c6 = c4_c6(parse_curve("[0,-1,1,-10,-20]"))
    for bad in ((c4, c6 + 1), (c4 + 1, c6), (c4 + 24, c6), (c4, c6 + 12)):
        with pytest.raises(SingularModel, match="^no integral model with"):
            _model_from_c4c6(*bad)


@given(models)
@settings(max_examples=200, deadline=None)
def test_invariants_identity_hypothesis(E):
    try:
        c4, c6, disc = c_invariants(E)
    except SingularModel:
        return
    assert 1728 * disc == c4**3 - c6**2


def test_singular_model_raises():
    with pytest.raises(SingularModel):
        c_invariants(parse_curve("[0,0,0,0,0]"))
    # c4_c6 reads a singular model, the cusp and the node y^2 = x^3 + x^2;
    # c_invariants does not
    for E, c in (("[0,0,0,0,0]", (0, 0)), ("[0,1,0,0,0]", (16, -64))):
        assert c4_c6(parse_curve(E)) == c
        with pytest.raises(SingularModel):
            c_invariants(parse_curve(E))


@given(models, st.integers(min_value=1, max_value=3),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_transform_scales_discriminant(E, u, r, s, t):
    try:
        c_invariants(E)[2]
    except SingularModel:
        return
    try:
        F = transform(E, u, r, s, t)
    except ValueError:
        return  # u-scaling demands divisibility; not every model qualifies
    assert c_invariants(E)[2] == u**12 * c_invariants(F)[2]


def test_minimal_model_known():
    E = parse_curve("[0,-6,0,-136,-408]")
    Emin, (u, r, s, t), _ = minimal_model(E)
    assert Emin.coeffs == (0, 0, 0, -148, -696)
    assert c_invariants(E)[2] == u**12 * c_invariants(Emin)[2]


def test_minimal_model_idempotent():
    for text in ("[1,1,0,-22,-812]", "[0,0,0,29,-123]", "[0,0,1,-1,0]"):
        E = parse_curve(text)
        Emin, _, _ = minimal_model(E)
        again, (u, r, s, t), _ = minimal_model(Emin)
        assert again == Emin and (u, r, s, t) == (1, 0, 0, 0)


def test_minimal_model_undoes_scaling():
    E = parse_curve("[0,-1,1,-10,-20]")  # already minimal
    blown = transform(E, 1, 6, 2, 9)
    blown = WeierstrassModel(*(c * u for c, u in
                               zip(blown.coeffs, (6, 36, 216, 1296, 46656))))
    Emin, _, _ = minimal_model(blown)
    assert c_invariants(Emin)[2] == c_invariants(E)[2]
    assert minimal_model(Emin)[0] == minimal_model(E)[0]


def test_minimal_discriminant_factorization(rng):
    # the conftest curves, and each blown up by u: moved by a seeded (r, s, t),
    # then a_i -> a_i u^i, so disc(F) = u^12 disc(E) and u^12 must drop out
    # of the returned factorization again
    models = []
    for E in curves():
        models.append(E)
        for u in (2, 3, 6):
            moved = transform(E, 1, rng.randint(-9, 9), rng.randint(-9, 9),
                              rng.randint(-9, 9))
            models.append(WeierstrassModel(*(a * u**i for a, i
                                             in zip(moved.coeffs, (1, 2, 3, 4, 6)))))
    for F in models:
        Emin, _, disc = minimal_model(F)
        assert disc == factor(c_invariants(Emin)[2]), F
        assert all(e > 0 for _, e in disc.factors), F
        # a model minimal at p has bad reduction at every p dividing its discriminant
        for p in disc.support:
            assert tate_local(Emin, p).reduction != GOOD, (F, p)


def test_kraus_conditions_on_minimal_models():
    # v3(c6) != 2 and the 2-adic condition hold for every minimal model
    for text in ("[1,1,0,-22,-812]", "[0,0,0,-13,-24]", "[0,0,0,0,-26]",
                 "[0,1,0,4,4]", "[0,0,1,0,-7]"):
        Emin, _, _ = minimal_model(parse_curve(text))
        c4, c6, _ = c_invariants(Emin)
        if c6 != 0:
            assert valuation(c6, 3) != 2
        ok2 = c6 % 4 == 3 or (c4 % 16 == 0 and c6 % 32 in (0, 8))
        assert ok2


def test_quadratic_twist_invariants():
    E = parse_curve("[0,0,0,-1,1]")
    for d in (-1, 2, 5, -7):
        Ed = quadratic_twist(E, d)
        (c4e, _, de), (c4d, _, dd) = c_invariants(minimal_model(E)[0]), c_invariants(Ed)
        # same j-invariant c4^3 / Delta
        assert c4e**3 * dd == c4d**3 * de
    with pytest.raises(NotSquarefree):
        quadratic_twist(E, 4)


def test_twist_by_one_is_isomorphic():
    E, _, _ = minimal_model(parse_curve("[1,1,0,-22,-812]"))
    assert minimal_model(quadratic_twist(E, 1))[0] == minimal_model(E)[0]
