"""Fixture-driven verification: recompute every expectation and report.

Each fixture record maps to one or more checks.  A check compares an exact
computed value against the recorded expectation; external-claim records are
listed but never computed (they document results from tools like mwrank or
exhaustive published tables that a bounded desk run cannot reproduce).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .arith import primes_below
from .cubic import (analyze_cubic, congruence_sieve, index_form, parse_cubic,
                    s3_serre_conductor, solve_index_equation)
from .fixtures import (Record, default_fixture_dir, load_fixture_file,
                       parse_factorization, parse_int_list, parse_pair)
from .frobenius import ap
from .modp import is_reducible_semistable, serre_conductor_semistable, trace_vector
from .mordell import search_mordell
from .quadorder import (QuadraticOrderElement, compute_obstruction,
                        curve_eligibility, order_discriminant,
                        reciprocity_cover)
from .tate import MinimalCurve, conductor
from .weierstrass import minimal_model, parse_curve

PASS = "pass"
FAIL = "fail"
EXTERNAL = "external-claim"
SKIPPED = "skipped"

_SMALL_PRIMES_TO_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    expected: str
    computed: str
    status: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, EXTERNAL: 0, SKIPPED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    def render(self) -> str:
        lines = []
        width = max((len(c.check_id) for c in self.checks), default=0)
        for c in self.checks:
            lines.append(f"[{c.status:>14}] {c.check_id:<{width}} {c.description}")
            if c.status == FAIL:
                lines.append(f"{'':>17} expected {c.expected} ; computed {c.computed}")
        counts = self.counts
        lines.append("summary: %d pass, %d fail, %d external-claim, %d skipped"
                     % (counts[PASS], counts[FAIL], counts[EXTERNAL], counts[SKIPPED]))
        return "\n".join(lines)


def _eq_check(rec: Record, description, expected, computed) -> Check:
    status = PASS if expected == computed else FAIL
    return Check(rec.check_id, description, str(expected), str(computed), status)


def _check_field(rec: Record):
    poly = parse_cubic(rec.require("poly"))
    K = analyze_cubic(poly)
    yield _eq_check(rec, f"field disc of {poly}",
                    int(rec.require("disc")), K.field_discriminant)
    form = index_form(K)
    x, y = parse_pair(rec.require("witness"))
    yield _eq_check(rec, f"index of witness {(x, y)} in field {K.field_discriminant}",
                    int(rec.require("index")), abs(form(x, y)))
    yield _eq_check(rec, f"odd Serre conductor of field {K.field_discriminant}",
                    parse_factorization(rec.require("serre")), s3_serre_conductor(K))


def _check_curve(rec: Record):
    E = parse_curve(rec.require("model"))
    yield _eq_check(rec, f"conductor of {rec.require('model')}",
                    parse_factorization(rec.require("conductor")), conductor(E))


def _check_curve_disc(rec: Record):
    _, _, disc = minimal_model(parse_curve(rec.require("model")))
    yield _eq_check(rec, f"minimal discriminant of {rec.require('model')}",
                    parse_factorization(rec.require("disc")), disc)


def _check_serre(rec: Record):
    E = parse_curve(rec.require("model"))
    p = int(rec.require("p"))
    sd = serre_conductor_semistable(E, p)
    yield _eq_check(rec, f"mod-{p} Serre conductor of {rec.require('model')}",
                    parse_factorization(rec.require("serre")), sd.serre_conductor)


def _check_irreducible(rec: Record):
    E = parse_curve(rec.require("model"))
    got = is_reducible_semistable(E, int(rec.require("p")), int(rec.require("bound")))
    yield _eq_check(rec, f"irreducibility of {rec.require('model')} mod {rec.require('p')}",
                    rec.require("expect"), got)


def _check_tracerow(rec: Record):
    E = parse_curve(rec.require("model"))
    p = int(rec.require("p"))
    bound = int(rec.require("bound"))
    want = parse_int_list(rec.require("row"))
    tv = trace_vector(E, p, bound)
    got = []
    for ell in _SMALL_PRIMES_TO_37:
        if ell > bound:
            break
        got.append(None if ell == p else tv.trace_at(ell)[0])
    yield _eq_check(rec, f"trace row of {rec.require('model')} mod {p}", want, got)


def _check_modrow(rec: Record):
    C = MinimalCurve(parse_curve(rec.require("model")))
    p = int(rec.require("p"))
    want = parse_int_list(rec.require("row"))
    ells = _SMALL_PRIMES_TO_37[: len(want)]
    got = [None if ell == p else ap(C, ell) % p for ell in ells]
    yield _eq_check(rec, f"a_ell mod {p} row of {rec.require('model')}", want, got)
    yield _eq_check(rec, f"conductor of {rec.require('model')} is level {rec.require('level')}",
                    int(rec.require("level")), conductor(C).value())
    yield _eq_check(rec, f"a_2 of {rec.require('model')} nonzero mod {p}",
                    True, ap(C, 2) % p != 0)


def _check_a2row(rec: Record):
    C = MinimalCurve(parse_curve(rec.require("model")))
    p = int(rec.require("p"))
    yield _eq_check(rec, f"a_2 mod {p} of {rec.require('model')}",
                    int(rec.require("a2")), ap(C, 2) % p)
    yield _eq_check(rec, f"conductor of {rec.require('model')} is level {rec.require('level')}",
                    int(rec.require("level")), conductor(C).value())


def _check_tracecheck(rec: Record):
    E = parse_curve(rec.require("model"))
    p = int(rec.require("p"))
    ell = int(rec.require("ell"))
    tv = trace_vector(E, p, ell)
    yield _eq_check(rec, f"trace of {rec.require('model')} mod {p} at {ell}",
                    int(rec.require("value")), tv.trace_at(ell)[0])


def _check_sieve(rec: Record):
    K = analyze_cubic(parse_cubic(rec.require("poly")))
    prime = int(rec.require("prime"))
    primes = {int(t) for t in rec.require("primes").split(",")}
    report = congruence_sieve(index_form(K), primes)
    conclusion = next(c for c in report.conclusions if f"of {prime} " in c)
    yield _eq_check(rec, f"sieve conclusion for prime {prime}",
                    rec.require("conclusion"), conclusion)


def _check_indexsolve(rec: Record):
    K = analyze_cubic(parse_cubic(rec.require("poly")))
    primes = {int(t) for t in rec.require("primes").split(",")}
    sols, _ = solve_index_equation(K, primes, int(rec.require("bound")))
    yield _eq_check(rec, f"index equation solutions for field {K.field_discriminant}",
                    rec.require("expect"),
                    "empty" if not sols else str(sols))


def _check_mordell(rec: Record):
    k = int(rec.require("k"))
    S = {int(t) for t in rec.require("S").split(",")}
    pts = search_mordell(k, S, int(rec.require("height")), int(rec.require("expbound")))
    yield _eq_check(rec, f"S-integral points on Y^2 = X^3 + {k} in box",
                    rec.require("expect"),
                    "empty" if not pts else str(pts))


def _check_obstruct(rec: Record):
    d = int(rec.require("d"))
    a, b = parse_pair(rec.require("a"))
    ell = int(rec.require("ell"))
    report = compute_obstruction(QuadraticOrderElement.checked(d, a, b), ell)
    subset = {int(t) for t in rec.require("subset").split(",")}
    yield _eq_check(rec, f"obstructed primes at level {rec.require('level')} within {sorted(subset)}",
                    True, report.obstructed_primes <= subset and not report.degenerate)


def _check_order(rec: Record):
    d = int(rec.require("d"))
    yield _eq_check(rec, f"discriminant of Z[omega] for d = {d}",
                    int(rec.require("order_disc")), order_discriminant(d))


def _check_reciprocity(rec: Record):
    pmin, pmax = int(rec.require("pmin")), int(rec.require("pmax"))
    candidates = tuple(int(t) for t in rec.require("candidates").split(","))
    missing = []
    for p in primes_below(pmax + 1):
        if p < pmin or p in (2, 5):
            continue
        try:
            reciprocity_cover(p, candidates)
        except AssertionError:
            missing.append(p)
    yield _eq_check(rec, f"quadratic-residue cover {candidates} for primes in "
                    f"[{pmin}, {pmax}]", [], missing)


def _check_eligibility(rec: Record):
    got = curve_eligibility(int(rec.require("residue")), int(rec.require("ell")),
                            int(rec.require("p")))
    yield _eq_check(rec, f"eligibility of residue {rec.require('residue')} at "
                    f"ell = {rec.require('ell')} mod {rec.require('p')}",
                    rec.require("expect"), got)


_HANDLERS = {
    "field": _check_field,
    "curve": _check_curve,
    "curve_disc": _check_curve_disc,
    "serre": _check_serre,
    "irreducible": _check_irreducible,
    "tracerow": _check_tracerow,
    "modrow": _check_modrow,
    "a2row": _check_a2row,
    "tracecheck": _check_tracecheck,
    "sieve": _check_sieve,
    "indexsolve": _check_indexsolve,
    "mordell": _check_mordell,
    "obstruct": _check_obstruct,
    "order": _check_order,
    "reciprocity": _check_reciprocity,
    "eligibility": _check_eligibility,
}


def verify_records(records) -> VerificationReport:
    checks = []
    for rec in records:
        if rec.kind == "external":
            checks.append(Check(rec.check_id, rec.require("claim"), "", "", EXTERNAL))
            continue
        handler = _HANDLERS.get(rec.kind)
        if handler is None:
            checks.append(Check(rec.check_id, f"unknown record kind {rec.kind!r}",
                                "", "", SKIPPED))
            continue
        checks.extend(handler(rec))
    checks.sort(key=lambda c: (c.check_id, c.description))
    return VerificationReport(tuple(checks))


def verify_file(path) -> VerificationReport:
    return verify_records(load_fixture_file(path))


def verify_all(fixture_dir=None) -> VerificationReport:
    base = Path(fixture_dir) if fixture_dir else default_fixture_dir()
    records = []
    for path in sorted(base.glob("*.txt")):
        records.extend(load_fixture_file(path))
    return verify_records(records)
