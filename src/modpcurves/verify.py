"""Fixture-driven verification: recompute every expectation and report.

Each fixture record maps to one or more checks.  A check compares an exact
computed value against the recorded expectation; external-claim records are
listed but never computed (they document results from tools like mwrank or
exhaustive published tables that a bounded desk run cannot reproduce).
"""

from pathlib import Path
from typing import NamedTuple

from .arith import Error, is_prime, primes_below
from .cubic import (analyze_cubic, congruence_sieve, index_form, parse_cubic,
                    s3_serre_conductor, solve_index_equation)
from .fixtures import (FixtureError, default_fixture_dir,
                       load_fixture_file, parse_factorization, parse_int_list,
                       parse_int_set, parse_pair)
from .modp import (RAMIFIED_SKIP, is_reducible_semistable, serre_conductor_semistable,
                   trace_vector)
from .mordell import search_mordell
from .quadorder import (QuadraticOrderElement, checked_d, compute_obstruction,
                        curve_eligibility, order_discriminant,
                        reciprocity_cover)
from .tate import conductor as curve_conductor, minimal_curve
from .weierstrass import parse_curve

PASS = "pass"
FAIL = "fail"
EXTERNAL = "external-claim"

class Check(NamedTuple):
    check_id: str
    description: str
    expected: str
    computed: str
    status: str


class VerificationReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, EXTERNAL: 0}
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
        lines.append("summary: %d pass, %d fail, %d external-claim"
                     % (counts[PASS], counts[FAIL], counts[EXTERNAL]))
        return "\n".join(lines)


def _eq_check(description, expected, computed) -> tuple[str, str, str, str]:
    status = PASS if expected == computed else FAIL
    return description, str(expected), str(computed), status


def _check_external(claim):
    yield claim, "", "", EXTERNAL


def _check_field(poly, disc, witness, index, serre):
    poly = parse_cubic(poly)
    K = analyze_cubic(poly)
    yield _eq_check(f"field disc of {poly}", int(disc), K.field_discriminant)
    form = index_form(K)
    x, y = parse_pair(witness)
    yield _eq_check(f"index of witness {(x, y)} in field {K.field_discriminant}",
                    int(index), abs(form(x, y)))
    yield _eq_check(f"odd Serre conductor of field {K.field_discriminant}",
                    parse_factorization(serre), s3_serre_conductor(K))


def _check_curve(model, conductor):
    E = parse_curve(model)
    yield _eq_check(f"conductor of {model}", parse_factorization(conductor),
                    curve_conductor(E))


def _check_curve_disc(model, disc):
    got = minimal_curve(parse_curve(model)).disc
    yield _eq_check(f"minimal discriminant of {model}", parse_factorization(disc), got)


def _check_serre(model, p, serre):
    E = parse_curve(model)
    p = int(p)
    sd = serre_conductor_semistable(E, p)
    yield _eq_check(f"mod-{p} Serre conductor of {model}",
                    parse_factorization(serre), sd.serre_conductor)


def _check_irreducible(model, p, bound, expect):
    got = is_reducible_semistable(parse_curve(model), int(p), int(bound))
    yield _eq_check(f"irreducibility of {model} mod {p}", expect, got)


def _trace_row(model, p, ells: list[int]):
    """(C, p, row): the minimal curve of the model, p as an int and the
    traces mod p of C at ells, in the trace-vector convention of modp and
    None at ell = p, at an ell that is not prime and at a ramified or
    additive ell, read off one trace vector up to the last ell."""
    C = minimal_curve(parse_curve(model))
    p = int(p)
    traces = {ell: tr for ell, tr, quality in trace_vector(C, p, max(ells[-1], 0)).entries
              if quality != RAMIFIED_SKIP}
    return C, p, [traces.get(ell) for ell in ells]


def _entry(trace, ell: int, p: int) -> int:
    """A trace of a row that a check needs; None, at ell = p, at an ell that
    is not prime or at a ramified or additive ell, raises ValueError."""
    if trace is None and is_prime(ell) and ell != p:
        raise ValueError(f"ell = {ell} is ramified or additive mod p = {p}")
    if trace is None:
        raise ValueError(f"ell = {ell} is not a prime other than p = {p}")
    return trace


def _check_tracerow(bound, row, model, p):
    bound = int(bound)
    want = parse_int_list(row, "row")
    ells = primes_below(bound + 1)
    if len(want) != len(ells):
        raise ValueError(f"row has {len(want)} entries for the {len(ells)} "
                         f"primes up to bound {bound}")
    _, p, got = _trace_row(model, p, ells)
    yield _eq_check(f"trace row of {model} mod {p}", want, got)


def _check_modrow(row, model, p, level):
    want = parse_int_list(row, "row")
    ells = primes_below(38)
    if len(want) > len(ells):
        raise ValueError(f"row has {len(want)} entries for the {len(ells)} "
                         f"primes up to 37")
    C, p, got = _trace_row(model, p, ells[:len(want)])
    a2 = _entry(got[0], 2, p)
    yield _eq_check(f"a_ell mod {p} row of {model}", want, got)
    yield _eq_check(f"conductor of {model} is level {level}",
                    int(level), curve_conductor(C).value())
    yield _eq_check(f"a_2 of {model} nonzero mod {p}", True, a2 != 0)


def _check_a2row(model, p, a2, level):
    C, p, (got,) = _trace_row(model, p, [2])
    yield _eq_check(f"a_2 mod {p} of {model}", int(a2), _entry(got, 2, p))
    yield _eq_check(f"conductor of {model} is level {level}",
                    int(level), curve_conductor(C).value())


def _check_tracecheck(ell, model, p, value):
    ell = int(ell)
    _, p, (trace,) = _trace_row(model, p, [ell])
    yield _eq_check(f"trace of {model} mod {p} at {ell}", int(value), _entry(trace, ell, p))


def _check_sieve(poly, prime, primes, conclusion):
    K = analyze_cubic(parse_cubic(poly))
    prime = int(prime)
    report = congruence_sieve(index_form(K), parse_int_set(primes, "primes"))
    sieved = list(report.surviving_exponents)
    if prime not in sieved:
        raise ValueError(f"prime = {prime} is not among primes = {sieved}")
    yield _eq_check(f"sieve conclusion for prime {prime}",
                    conclusion, report.conclusions[sieved.index(prime)])


def _check_indexsolve(poly, primes, bound, expect):
    K = analyze_cubic(parse_cubic(poly))
    primes = parse_int_set(primes, "primes")
    sols, _ = solve_index_equation(K, primes, int(bound))
    yield _eq_check(f"index equation solutions for field {K.field_discriminant}",
                    expect, "empty" if not sols else str(sols))


def _check_mordell(k, S, height, expbound, expect):
    k = int(k)
    S = parse_int_set(S, "S")
    pts = search_mordell(k, S, int(height), int(expbound))
    yield _eq_check(f"S-integral points on Y^2 = X^3 + {k} in box",
                    expect, "empty" if not pts else str(pts))


def _check_obstruct(d, a, ell, subset, level):
    d = int(d)
    a, b = parse_pair(a)
    ell = int(ell)
    norm = compute_obstruction(QuadraticOrderElement(checked_d(d), a, b), ell)
    subset = parse_int_set(subset, "subset")
    yield _eq_check(f"obstructed primes at level {level} within {sorted(subset)}",
                    True, norm is not None and subset.issuperset(norm.support))


def _check_order(d, order_disc):
    d = checked_d(int(d))
    yield _eq_check(f"discriminant of Z[omega] for d = {d}",
                    int(order_disc), order_discriminant(d))


def _check_reciprocity(pmin, pmax, candidates):
    pmin, pmax = int(pmin), int(pmax)
    candidates = tuple(sorted(parse_int_set(candidates, "candidates")))
    primes = [p for p in primes_below(pmax + 1) if p >= pmin and p not in (2, 5)]
    if not primes:
        raise ValueError(f"[{pmin}, {pmax}] holds no prime other than 2 and 5")
    missing = [p for p in primes if reciprocity_cover(p, candidates) is None]
    yield _eq_check(f"quadratic-residue cover {candidates} for primes in "
                    f"[{pmin}, {pmax}]", [], missing)


def _check_eligibility(residue, ell, p, expect):
    got = curve_eligibility(int(residue), int(ell), int(p))
    yield _eq_check(f"eligibility of residue {residue} at ell = {ell} mod {p}", expect, got)


_HANDLERS = {
    "external": _check_external,
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
    """The checks of every record, in the order of the records and, within
    a record, in the order its handler yields them.  A record's fields are
    its handler's parameters; the handler yields (description, expected,
    computed, status) for each check.  A record that cannot be checked
    raises FixtureError at its file and line: a record of an unknown kind,
    one that lacks a field its handler takes or has one it does not take
    (both found before any value is read), or one whose checks raise
    ValueError, KeyError or a package Error while they are built; the
    FixtureError keeps the type and message of the exception.  Any other
    exception is a bug and propagates unchanged."""
    checks = []
    for rec in records:
        handler = _HANDLERS.get(rec.kind)
        if handler is None:
            raise FixtureError(rec.path, rec.lineno, f"unknown record kind {rec.kind!r}")
        code = handler.__code__
        params = code.co_varnames[:code.co_argcount]
        missing = [name for name in params if name not in rec.fields]
        if missing:
            raise FixtureError(rec.path, rec.lineno, f"missing field {missing[0]!r}")
        unread = [key for key in rec.fields if key not in params]
        if unread:
            raise FixtureError(rec.path, rec.lineno,
                               f"field {unread[0]!r} is read by no {rec.kind!r} check")
        try:
            checks.extend(Check(rec.check_id, *row) for row in handler(**rec.fields))
        except (ValueError, KeyError, Error) as exc:
            raise FixtureError(rec.path, rec.lineno,
                               f"{type(exc).__name__}: {exc}") from exc
    return VerificationReport(tuple(checks))


def verify_all(path=None) -> VerificationReport:
    """Verify the fixture file at path, or every *.txt file of the directory
    at path in sorted order; with no path, the packaged fixtures.  A
    directory with no *.txt file raises FileNotFoundError naming it, as a
    missing path does when it is read as a file."""
    path = default_fixture_dir() if path is None else Path(path)
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"no *.txt fixture files in {path}")
    return verify_records([rec for f in files for rec in load_fixture_file(f)])
