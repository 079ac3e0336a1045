"""Mod-p fingerprints of curves: trace vectors, Serre conductors, comparisons.

A trace vector records Trace(rhobar(Frob_ell)) mod p for primes ell up to a
bound.  At a good prime this is a_ell mod p.  At a multiplicative prime where
the mod-p representation is unramified (p | v_ell(Delta_min)) the Frobenius
eigenvalues are a_ell and ell * a_ell, so the trace is a_ell * (1 + ell); a
ramified multiplicative prime and every additive prime is skipped.
"""

from bisect import bisect_right
from typing import NamedTuple

from .arith import Error, Factorization, is_prime, primes_below
from .frobenius import DEFAULT_COUNT_BOUND, PrimeTooLarge, ap, traces
from .tate import ADDITIVE, MinimalCurve, minimal_curve
from .weierstrass import WeierstrassModel

GOOD_Q = "good"
BAD_CONVENTION = "bad-prime-convention"
RAMIFIED_SKIP = "ramified-skip"

IRREDUCIBLE = "irreducible"
UNDETERMINED = "undetermined"


class NotSemistableOutsideP(Error):
    def __init__(self, ell: int):
        self.ell = ell
        super().__init__(f"additive reduction at {ell}: semistable rule does not apply")


class CharacteristicMismatch(Error):
    pass


class TraceVector(NamedTuple):
    p: int
    entries: tuple[tuple[int, int, str], ...]  # (ell, trace mod p, quality)

    def serialize(self) -> str:
        body = " ".join(f"{l}:{t}" if q != RAMIFIED_SKIP else f"{l}:*"
                        for l, t, q in self.entries)
        return f"p={self.p}; {body}"


class SerreData(NamedTuple):
    p: int
    serre_conductor: Factorization
    ramification_notes: tuple[tuple[int, str], ...]


def _curve_and_bad_primes(E: WeierstrassModel | MinimalCurve, p: int,
                          bound: int) -> tuple[MinimalCurve, dict]:
    """The record of E and its bad primes, each with v(disc), for a prime p
    and a bound >= 0; ValueError otherwise."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if bound < 0:
        raise ValueError(f"bound {bound} is negative")
    C = minimal_curve(E)
    return C, dict(C.disc.factors)


def trace_vector(E: WeierstrassModel | MinimalCurve, p: int, bound: int) -> TraceVector:
    """Trace vector of E mod p over the primes ell <= bound, ell != p.  Good
    ell are read in one traces pass over the curve; PrimeTooLarge is raised
    before any count if some good ell is above DEFAULT_COUNT_BOUND (a bad
    ell is read off Tate's algorithm at any size), and ValueError for a
    negative bound."""
    C, bad = _curve_and_bad_primes(E, p, bound)
    ells = [ell for ell in primes_below(bound + 1) if ell != p]
    good = [ell for ell in ells if ell not in bad]
    above = good[bisect_right(good, DEFAULT_COUNT_BOUND):]
    if above:
        raise PrimeTooLarge(above[0])
    entries = [(ell, t % p, GOOD_Q) for ell, t in zip(good, traces(C.model, good))]
    if len(good) < len(ells):
        # skipped: additive, or multiplicative and ramified mod p; else
        # unramified multiplicative, with eigenvalues a_ell and ell * a_ell
        entries += [(ell, 0, RAMIFIED_SKIP) if C.local(ell).reduction == ADDITIVE or v % p
                    else (ell, ap(C, ell) * (1 + ell) % p, BAD_CONVENTION)
                    for ell, v in bad.items() if ell != p and ell <= bound]
        entries.sort()
    return TraceVector(p, tuple(entries))


def serre_conductor_semistable(E: WeierstrassModel | MinimalCurve, p: int) -> SerreData:
    """Prime-to-p Serre conductor under the semistable-outside-p hypothesis.

    A multiplicative prime ell != p survives in N(rhobar) exactly when
    p does not divide v_ell(Delta_min)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    C = minimal_curve(E)
    kept = []
    notes = []
    for ell, v in C.disc.factors:
        if ell == p:
            notes.append((ell, "residue characteristic, excluded by definition"))
            continue
        if C.local(ell).reduction == ADDITIVE:
            raise NotSemistableOutsideP(ell)
        if v % p == 0:
            notes.append((ell, f"dropped: p | v_{ell}(Delta) = {v}"))
        else:
            kept.append((ell, 1))
            notes.append((ell, f"kept: v_{ell}(Delta) = {v} not divisible by {p}"))
    return SerreData(p, Factorization(1, tuple(kept)), tuple(notes))


def is_reducible_semistable(E: WeierstrassModel | MinimalCurve, p: int, bound: int) -> str:
    """Sufficient irreducibility test: some good ell <= bound with
    a_ell != 1 + ell mod p rules out the reducible case.  Counting stops at
    the first such ell, so PrimeTooLarge is raised only when no good ell
    below DEFAULT_COUNT_BOUND is one.  ValueError for a negative bound."""
    C, bad = _curve_and_bad_primes(E, p, bound)
    good = [ell for ell in primes_below(bound + 1) if ell != p and ell not in bad]
    a_ell = traces(C.model, good)
    for ell in good:
        if ell > DEFAULT_COUNT_BOUND:
            raise PrimeTooLarge(ell)
        if (next(a_ell) - 1 - ell) % p != 0:
            return IRREDUCIBLE
    return UNDETERMINED


def compare_reps(A: TraceVector, B: TraceVector):
    """Compare two trace vectors on their common non-skipped window.

    Returns "match-up-to-bound" or ("mismatch", ell) at the smallest
    disagreeing prime."""
    if A.p != B.p:
        raise CharacteristicMismatch(f"p = {A.p} vs {B.p}")
    # trace_vector lists the entries by ascending ell: walk B alongside A
    rest, j, n = B.entries, 0, len(B.entries)
    for l, t, q in A.entries:
        while j < n and rest[j][0] < l:
            j += 1
        if j == n:
            break
        lb, tb, qb = rest[j]
        if lb == l and t != tb and q != RAMIFIED_SKIP and qb != RAMIFIED_SKIP:
            return ("mismatch", l)
    return "match-up-to-bound"


def sturm_bound(level: Factorization) -> int:
    """Weight-2 comparison horizon floor([SL2(Z):Gamma0(N)] / 6), min 1, for
    the factored level N."""
    index = level.value()
    for q in level.support:
        index = index // q * (q + 1)
    return max(index // 6, 1)
