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
from .fixtures import (FixtureError, Record, default_fixture_dir,
                       load_fixture_file, parse_factorization, parse_int_list,
                       parse_int_set, parse_pair)
from .modp import (RAMIFIED_SKIP, is_reducible_semistable, serre_conductor_semistable,
                   trace_vector)
from .mordell import search_mordell
from .quadorder import (QuadraticOrderElement, checked_d, compute_obstruction,
                        curve_eligibility, order_discriminant,
                        reciprocity_cover)
from .tate import conductor, minimal_curve
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


def _eq_check(rec: Record, description, expected, computed) -> Check:
    status = PASS if expected == computed else FAIL
    return Check(rec.check_id, description, str(expected), str(computed), status)


def _check_external(rec: Record):
    yield Check(rec.check_id, rec.require("claim"), "", "", EXTERNAL)


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
    disc = minimal_curve(parse_curve(rec.require("model"))).disc
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


def _trace_row(rec: Record, ells: list[int]):
    """(C, p, row): the minimal curve of the record's model, its p and the
    traces mod p of C at ells, in the trace-vector convention of modp and
    None at ell = p, at an ell that is not prime and at a ramified or
    additive ell, read off one trace vector up to the last ell."""
    C = minimal_curve(parse_curve(rec.require("model")))
    p = int(rec.require("p"))
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


def _check_tracerow(rec: Record):
    bound = int(rec.require("bound"))
    want = parse_int_list(rec.require("row"))
    ells = primes_below(bound + 1)
    if len(want) != len(ells):
        raise ValueError(f"row has {len(want)} entries for the {len(ells)} "
                         f"primes up to bound {bound}")
    _, p, got = _trace_row(rec, ells)
    yield _eq_check(rec, f"trace row of {rec.require('model')} mod {p}", want, got)


def _check_modrow(rec: Record):
    want = parse_int_list(rec.require("row"))
    ells = primes_below(38)
    if len(want) > len(ells):
        raise ValueError(f"row has {len(want)} entries for the {len(ells)} "
                         f"primes up to 37")
    C, p, got = _trace_row(rec, ells[:len(want)])
    a2 = _entry(got[0], 2, p)
    yield _eq_check(rec, f"a_ell mod {p} row of {rec.require('model')}", want, got)
    yield _eq_check(rec, f"conductor of {rec.require('model')} is level {rec.require('level')}",
                    int(rec.require("level")), conductor(C).value())
    yield _eq_check(rec, f"a_2 of {rec.require('model')} nonzero mod {p}", True, a2 != 0)


def _check_a2row(rec: Record):
    C, p, (a2,) = _trace_row(rec, [2])
    yield _eq_check(rec, f"a_2 mod {p} of {rec.require('model')}",
                    int(rec.require("a2")), _entry(a2, 2, p))
    yield _eq_check(rec, f"conductor of {rec.require('model')} is level {rec.require('level')}",
                    int(rec.require("level")), conductor(C).value())


def _check_tracecheck(rec: Record):
    ell = int(rec.require("ell"))
    _, p, (trace,) = _trace_row(rec, [ell])
    yield _eq_check(rec, f"trace of {rec.require('model')} mod {p} at {ell}",
                    int(rec.require("value")), _entry(trace, ell, p))


def _check_sieve(rec: Record):
    K = analyze_cubic(parse_cubic(rec.require("poly")))
    prime = int(rec.require("prime"))
    report = congruence_sieve(index_form(K), parse_int_set(rec.require("primes"), "primes"))
    sieved = list(report.surviving_exponents)
    if prime not in sieved:
        raise ValueError(f"prime = {prime} is not among primes = {sieved}")
    yield _eq_check(rec, f"sieve conclusion for prime {prime}",
                    rec.require("conclusion"), report.conclusions[sieved.index(prime)])


def _check_indexsolve(rec: Record):
    K = analyze_cubic(parse_cubic(rec.require("poly")))
    primes = parse_int_set(rec.require("primes"), "primes")
    sols, _ = solve_index_equation(K, primes, int(rec.require("bound")))
    yield _eq_check(rec, f"index equation solutions for field {K.field_discriminant}",
                    rec.require("expect"),
                    "empty" if not sols else str(sols))


def _check_mordell(rec: Record):
    k = int(rec.require("k"))
    S = parse_int_set(rec.require("S"), "S")
    pts = search_mordell(k, S, int(rec.require("height")), int(rec.require("expbound")))
    yield _eq_check(rec, f"S-integral points on Y^2 = X^3 + {k} in box",
                    rec.require("expect"),
                    "empty" if not pts else str(pts))


def _check_obstruct(rec: Record):
    d = int(rec.require("d"))
    a, b = parse_pair(rec.require("a"))
    ell = int(rec.require("ell"))
    report = compute_obstruction(QuadraticOrderElement.checked(d, a, b), ell)
    subset = parse_int_set(rec.require("subset"), "subset")
    yield _eq_check(rec, f"obstructed primes at level {rec.require('level')} within {sorted(subset)}",
                    True, report.obstructed_primes <= subset and not report.degenerate)


def _check_order(rec: Record):
    d = checked_d(int(rec.require("d")))
    yield _eq_check(rec, f"discriminant of Z[omega] for d = {d}",
                    int(rec.require("order_disc")), order_discriminant(d))


def _check_reciprocity(rec: Record):
    pmin, pmax = int(rec.require("pmin")), int(rec.require("pmax"))
    candidates = tuple(int(t) for t in rec.require("candidates").split(","))
    primes = [p for p in primes_below(pmax + 1) if p >= pmin and p not in (2, 5)]
    if not primes:
        raise ValueError(f"[{pmin}, {pmax}] holds no prime other than 2 and 5")
    missing = [p for p in primes if reciprocity_cover(p, candidates) is None]
    yield _eq_check(rec, f"quadratic-residue cover {candidates} for primes in "
                    f"[{pmin}, {pmax}]", [], missing)


def _check_eligibility(rec: Record):
    got = curve_eligibility(int(rec.require("residue")), int(rec.require("ell")),
                            int(rec.require("p")))
    yield _eq_check(rec, f"eligibility of residue {rec.require('residue')} at "
                    f"ell = {rec.require('ell')} mod {rec.require('p')}",
                    rec.require("expect"), got)


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


class _ReadFields(dict):
    """A record's fields that remember the keys read from them."""

    __slots__ = ("read",)

    def __init__(self, fields):
        super().__init__(fields)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def verify_records(records) -> VerificationReport:
    """The checks of every record, in the order of the records and, within
    a record, in the order its handler yields them.  A record that cannot
    be checked raises FixtureError at its file and line: a record of an
    unknown kind, one whose checks raise ValueError, KeyError or a package
    Error while they are built, or one with a field that its handler did
    not read; the FixtureError keeps the type and message of the exception.
    Any other exception is a bug and propagates unchanged."""
    checks = []
    for rec in records:
        handler = _HANDLERS.get(rec.kind)
        if handler is None:
            raise FixtureError(rec.path, rec.lineno, f"unknown record kind {rec.kind!r}")
        fields = _ReadFields(rec.fields)
        try:
            checks.extend(handler(rec._replace(fields=fields)))
        except FixtureError:
            raise
        except (ValueError, KeyError, Error) as exc:
            raise FixtureError(rec.path, rec.lineno,
                               f"{type(exc).__name__}: {exc}") from exc
        unread = [key for key in fields if key not in fields.read]
        if unread:
            raise FixtureError(rec.path, rec.lineno,
                               f"field {unread[0]!r} is read by no {rec.kind!r} check")
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
