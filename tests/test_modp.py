import time

import pytest

from conftest import seeded_models, spy
from modpcurves import frobenius, modp, tate
from modpcurves.arith import factor, primes_below
from modpcurves.frobenius import DEFAULT_COUNT_BOUND, PrimeTooLarge, ap, count_points
from modpcurves.modp import (BAD_CONVENTION, GOOD_Q, IRREDUCIBLE,
                             RAMIFIED_SKIP, UNDETERMINED,
                             CharacteristicMismatch, NotSemistableOutsideP,
                             compare_reps, is_reducible_semistable,
                             serre_conductor_semistable, sturm_bound,
                             trace_vector)
from modpcurves.tate import MinimalCurve, conductor
from modpcurves.weierstrass import WeierstrassModel, parse_curve


def _trace_at(tv, ell):
    """(trace, quality) of tv at ell, or None if tv has no entry there."""
    return next(((t, q) for l, t, q in tv.entries if l == ell), None)


def test_serre_conductor_values():
    cases = [("[1,1,0,-22,-812]", 3, ((353, 1),)),
             ("[1,0,1,-80,-275]", 5, ((67, 1),)),
             ("[1,0,1,-89,316]", 7, ((5, 1), (11, 1)))]
    for text, p, want in cases:
        sd = serre_conductor_semistable(parse_curve(text), p)
        assert sd.serre_conductor.factors == want


def test_serre_conductor_notes_record_drops():
    sd = serre_conductor_semistable(parse_curve("[1,1,0,-22,-812]"), 3)
    dropped = {ell for ell, note in sd.ramification_notes if "dropped" in note}
    assert dropped == {2}  # v_2(Delta) = 18, divisible by 3


def test_serre_conductor_requires_semistable():
    with pytest.raises(NotSemistableOutsideP) as exc:
        serre_conductor_semistable(parse_curve("[0,0,0,0,1]"), 5)
    assert exc.value.ell in (2, 3)


def test_trace_vector_2118():
    tv = trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 37)
    traces = [t for _, t, _ in tv.entries]
    assert traces == [0, 1, 2, 1, 1, 0, 1, 0, 0, 1, 0]
    ell2 = _trace_at(tv, 2)
    assert ell2 == (0, BAD_CONVENTION)  # a_2 * (1 + 2) = -3 = 0 mod 3
    assert _trace_at(tv, 5) == (1, GOOD_Q)
    assert _trace_at(tv, 3) is None  # residue characteristic excluded


def test_trace_vector_ramified_skip():
    # at 353, v(Delta) = 1 is not divisible by 3: ramified, skipped
    tv = trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 353)
    assert _trace_at(tv, 353)[1] == RAMIFIED_SKIP
    assert "353:*" in tv.serialize()


def test_trace_vector_serialize():
    tv = trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 7)
    assert tv.serialize() == "p=3; 2:0 5:1 7:2"


def test_compare_reps_mismatch_at_two():
    A = trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 37)
    B = trace_vector(parse_curve("[1,1,1,-2,16]"), 3, 37)
    assert compare_reps(A, B) == ("mismatch", 2)


def test_compare_reps_match_self():
    A = trace_vector(parse_curve("[1,1,1,-2,16]"), 3, 37)
    assert compare_reps(A, A) == "match-up-to-bound"


def test_compare_reps_isogenous_match():
    # 11a1 and 11a3 are isogenous: identical trace vectors mod 7
    A = trace_vector(parse_curve("[0,-1,1,-10,-20]"), 7, 100)
    B = trace_vector(parse_curve("[0,-1,1,0,0]"), 7, 100)
    assert compare_reps(A, B) == "match-up-to-bound"


def test_compare_reps_characteristic_mismatch():
    A = trace_vector(parse_curve("[1,1,1,-2,16]"), 3, 19)
    B = trace_vector(parse_curve("[1,1,1,-2,16]"), 5, 19)
    with pytest.raises(CharacteristicMismatch):
        compare_reps(A, B)


def test_irreducibility():
    assert is_reducible_semistable(parse_curve("[1,1,0,-22,-812]"), 3, 100) \
        == IRREDUCIBLE
    assert is_reducible_semistable(parse_curve("[1,0,1,-80,-275]"), 5, 100) \
        == IRREDUCIBLE
    # X0(11) has a rational 5-torsion point: reducible mod 5, never ruled out
    assert is_reducible_semistable(parse_curve("[0,-1,1,-10,-20]"), 5, 500) \
        == UNDETERMINED


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_irreducibility_rejects_a_p_that_is_not_prime(p):
    with pytest.raises(ValueError, match=f"p = {p} is not prime"):
        is_reducible_semistable(parse_curve("[1,1,0,-22,-812]"), p, 100)


def test_irreducibility_rejects_a_negative_bound():
    # an empty range would read as undetermined for a curve irreducible mod 3
    E = parse_curve("[1,1,0,-22,-812]")
    with pytest.raises(ValueError, match="bound -5 is negative"):
        is_reducible_semistable(E, 3, -5)
    assert is_reducible_semistable(E, 3, 0) == UNDETERMINED


def test_trace_vector_rejects_a_negative_bound():
    E = parse_curve("[1,1,0,-22,-812]")
    with pytest.raises(ValueError, match="bound -1 is negative"):
        trace_vector(E, 3, -1)
    # no prime is at most 0 or 1: an empty window, not an error
    assert trace_vector(E, 3, 0).entries == trace_vector(E, 3, 1).entries == ()


def compare_oracle(A, B):
    """compare_reps from its definition: the first ell of A, in A's order,
    that B lists too, skipped on neither side, with different traces."""
    other = {l: (t, q) for l, t, q in B.entries}
    for l, t, q in A.entries:
        if l in other and RAMIFIED_SKIP not in (q, other[l][1]) and t != other[l][0]:
            return ("mismatch", l)
    return "match-up-to-bound"


def test_compare_reps_against_its_definition_on_seeded_windows(rng):
    # seeded vectors mod 5: equal windows, windows of one length that list
    # different ell, and unequal windows, with skips on either side and
    # traces that mostly agree; compare_reps walks the two sorted lists in
    # step, the oracle looks each ell up
    def vector(ells, like=()):
        entries = []
        for i, l in enumerate(ells):
            q = rng.choice([GOOD_Q] * 6 + [BAD_CONVENTION, RAMIFIED_SKIP])
            t = like[i][1] if i < len(like) and rng.random() < 0.95 else rng.randrange(5)
            entries.append((l, 0 if q == RAMIFIED_SKIP else t, q))
        return modp.TraceVector(5, tuple(entries))

    ells = [l for l in primes_below(200) if l != 5]
    seen = {"same": 0, "shifted": 0, "unequal": 0, "mismatch": 0, "match": 0}
    for _ in range(300):
        n = rng.randrange(1, len(ells))
        A = vector(ells[:n])
        if rng.random() < 0.5:
            B, kind = vector(ells[:n], A.entries), "same"
        elif rng.random() < 0.5:
            # the same length, one ell swapped for the next prime
            cut = rng.randrange(n)
            B, kind = vector(ells[:cut] + ells[cut + 1:n + 1], A.entries), "shifted"
        else:
            B, kind = vector(ells[:rng.randrange(1, len(ells))], A.entries), "unequal"
        for X, Y in ((A, B), (B, A)):
            want = compare_oracle(X, Y)
            assert compare_reps(X, Y) == want, (X, Y)
            seen[kind] += 1
            seen["match" if want == "match-up-to-bound" else "mismatch"] += 1
    assert min(seen.values()) >= 100, seen


def test_irreducibility_stops_counting_at_its_witness(monkeypatch):
    # X0(11) mod 3: a_2 = -2 and -2 - 1 - 2 = -5 is not 0 mod 3, so ell = 2
    # is a witness: the 301 good ell to 2000 are asked for in one traces
    # call, and only the count at 2 is drawn from it
    E = parse_curve("[0,-1,1,-10,-20]")
    drawn = []

    def counted(model, ells):
        for ell, t in zip(ells, frobenius.traces(model, ells)):
            drawn.append(ell)
            yield t

    monkeypatch.setattr(modp, "traces", counted)
    calls = spy(monkeypatch, modp, "traces")
    assert is_reducible_semistable(E, 3, 2000) == IRREDUCIBLE
    assert [len(ells) for _, ells in calls] == [301] and drawn == [2]
    # mod 5 (a rational 5-torsion point) there is no witness: every good ell
    # below 100 is drawn once, in order
    calls.clear(), drawn.clear()
    assert is_reducible_semistable(E, 5, 100) == UNDETERMINED
    good = [l for l in primes_below(101) if l not in (5, 11)]
    assert [ells for _, ells in calls] == [good] and drawn == good


def test_sturm_bound():
    assert sturm_bound(factor(11)) == 2
    assert sturm_bound(factor(1)) == 1
    assert sturm_bound(factor(2118)) == 708


def test_one_record_runs_tate_once_per_bad_prime(monkeypatch):
    # the conductor-2118 curve has bad primes 2, 3, 353; at p = 5 every
    # function below asks for the local data at each of them
    calls = spy(monkeypatch, tate, "tate_local")
    C = MinimalCurve(parse_curve("[1,1,0,-22,-812]"))
    assert calls == []
    trace_vector(C, 5, 400)
    serre_conductor_semistable(C, 5)
    conductor(C)
    assert sorted(p for _, p in calls) == [2, 3, 353]


def _outcome(f, *args):
    try:
        return f(*args)
    except NotSemistableOutsideP as exc:
        return ("not semistable", exc.ell)


def test_record_and_bare_model_agree(rng):
    # seeded models, additive ones among them, through every entry point
    # that takes either a WeierstrassModel or its MinimalCurve
    for E in seeded_models(rng, 40, 30):
        C = MinimalCurve(E)
        for ell in (2, 3, 5, 7, 11, 13):
            assert ap(E, ell) == ap(C, ell), (E, ell)
        assert conductor(E) == conductor(C), E
        for p in (3, 5):
            assert trace_vector(E, p, 60) == trace_vector(C, p, 60), (E, p)
            assert (_outcome(serre_conductor_semistable, E, p)
                    == _outcome(serre_conductor_semistable, C, p)), (E, p)
            assert (is_reducible_semistable(E, p, 60)
                    == is_reducible_semistable(C, p, 60)), (E, p)


def test_bare_model_is_read_once_across_the_fingerprint(monkeypatch, minimal_model_runs):
    # the three mod-p readings of one bare model share one record: one
    # minimal model and factorization, one Tate run per bad prime but p
    calls = spy(monkeypatch, tate, "tate_local")
    E = parse_curve("[1,1,0,-22,-812]")
    trace_vector(E, 3, 500)
    serre_conductor_semistable(E, 3)
    is_reducible_semistable(E, 3, 100)
    assert len(minimal_model_runs) == 1
    assert sorted(p for _, p in calls) == [2, 353]


def test_cold_and_warm_records_agree(rng):
    # j = 0, j = 1728 and seeded models, additive primes among them: each
    # reading from an empty record cache equals the same reading once every
    # reading has filled the record in
    models = [WeierstrassModel(0, 0, 0, 0, k) for k in (1, -2, 7, -26, 37)]
    models += [WeierstrassModel(0, 0, 0, k, 0) for k in (-1, 2, -11, 5, 3)]
    models += seeded_models(rng, 20, 30)
    readings = [lambda E, p=p: trace_vector(E, p, 60) for p in (3, 5)]
    readings += [lambda E, p=p: _outcome(serre_conductor_semistable, E, p) for p in (3, 5)]
    readings += [lambda E, p=p: is_reducible_semistable(E, p, 60) for p in (3, 5)]
    readings.append(conductor)
    additive = 0
    for E in models:
        cold = []
        for read in readings:
            tate._record.cache_clear()
            cold.append(read(E))
        assert [read(E) for read in readings] == cold, E
        additive += any(type(r) is tuple and r[0] == "not semistable" for r in cold)
    assert additive >= 10


def test_trace_vector_past_the_counting_bound_fails_fast():
    # 1000003 is the first prime above DEFAULT_COUNT_BOUND, and good here
    E = parse_curve("[0,-1,1,-10,-20]")
    start = time.perf_counter()
    with pytest.raises(PrimeTooLarge, match="ell = 1000003 exceeds counting bound 1000000"):
        trace_vector(E, 5, DEFAULT_COUNT_BOUND + 3)
    assert time.perf_counter() - start < 1
    # a witness below the bound still answers without raising
    assert is_reducible_semistable(E, 3, DEFAULT_COUNT_BOUND + 3) == IRREDUCIBLE


def test_counting_bound_checked_before_counting_and_lazily(monkeypatch):
    # with the bound lowered to 50: 53 is the first prime above it and good
    # for X0(11), which is reducible mod 5 (a rational 5-torsion point), so
    # no ell is a witness mod 5, while mod 3 one comes before 50
    E = parse_curve("[0,-1,1,-10,-20]")
    monkeypatch.setattr(modp, "DEFAULT_COUNT_BOUND", 50)
    with monkeypatch.context() as m:
        m.setattr(modp, "traces", lambda *args: pytest.fail("counted"))
        with pytest.raises(PrimeTooLarge, match="ell = 53 "):
            trace_vector(E, 5, 60)
    assert is_reducible_semistable(E, 3, 60) == IRREDUCIBLE
    with pytest.raises(PrimeTooLarge, match="ell = 53 "):
        is_reducible_semistable(E, 5, 60)
    # an ell above the bound that is skipped (353: multiplicative, ramified
    # mod 3) is not counted, so it raises nothing
    monkeypatch.setattr(modp, "DEFAULT_COUNT_BOUND", 350)
    tv = trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 353)
    assert _trace_at(tv, 353) == (0, RAMIFIED_SKIP)


def test_bad_ell_above_the_counting_bound_gets_its_trace(monkeypatch):
    # y^2 + xy = x^3 + q^3 has c4 = 1, so every bad prime is multiplicative,
    # and v_q(Delta) = 3: mod 3, q is unramified and its entry is a_q (1 + q)
    # with a_q = 1 (the node y^2 + xy = x^3 has rational tangents). Nothing
    # is counted at q, so q = 1000003, above DEFAULT_COUNT_BOUND, raises
    # nothing; the good ell below it are not what this checks, so their
    # counts are stubbed out
    q = 1000003
    E = WeierstrassModel(1, 0, 0, 0, q**3)
    assert q > DEFAULT_COUNT_BOUND and tate.minimal_curve(E).disc.exponent(q) == 3
    with monkeypatch.context() as m:
        m.setattr(modp, "traces", lambda model, ells: iter([0] * len(ells)))
        tv = trace_vector(E, 3, q)
    assert _trace_at(tv, q) == ((1 + q) % 3, BAD_CONVENTION)
    # the same with every count real: the counting bound lowered to 1000, so
    # nothing at or above 2^10 is counted; bad 1009 (v = 3) gets a_1009 from
    # Tate's algorithm, checked against a count on the model, and good 1013
    # still raises before any count
    monkeypatch.setattr(modp, "DEFAULT_COUNT_BOUND", 1000)
    monkeypatch.setattr(frobenius, "DEFAULT_COUNT_BOUND", 1000)
    E = WeierstrassModel(1, 0, 0, 0, 1009**3)
    a = 1009 + 1 - count_points(E, 1009)
    assert a in (1, -1)
    tv = trace_vector(E, 3, 1012)
    assert _trace_at(tv, 1009) == (a * 1010 % 3, BAD_CONVENTION)
    assert _trace_at(tv, 997)[1] == GOOD_Q
    with monkeypatch.context() as m:
        m.setattr(modp, "traces", lambda *args: pytest.fail("counted"))
        with pytest.raises(PrimeTooLarge, match="ell = 1013 "):
            trace_vector(E, 3, 1013)
