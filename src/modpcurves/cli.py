"""Command-line front end.

Exit codes: 0 success, 1 computed-check failure (verify / compare mismatch),
2 usage or parse errors, and every error of the package (a subclass of
arith.Error) or of the file system.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .arith import Error, Factorization, factor
from .cubic import (DiscriminantNotMinusPrime, analyze_cubic, index_form,
                    mordell_reduction, parse_cubic, s3_serre_conductor,
                    solve_index_equation)
from .fixtures import parse_pair
from .frobenius import ap
from .modp import (compare_reps, serre_conductor_semistable, sturm_bound,
                   trace_vector)
from .mordell import scan_twisted_mordell, search_mordell
from .quadorder import QuadraticOrderElement, compute_obstruction
from .tate import conductor, minimal_curve
from .verify import verify_all
from .weierstrass import invariants, parse_curve


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(_plain(payload), sort_keys=True))
    else:
        print(text)


def _plain(obj):
    if hasattr(obj, "_asdict"):
        return _plain(obj._asdict())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


def _int_set(text: str, option: str) -> set[int]:
    """The ints of a comma-separated option value, none if it is empty; a bad
    entry raises ValueError naming the option and the entry."""
    out = set()
    for entry in text.split(",") if text else ():
        try:
            out.add(int(entry))
        except ValueError:
            raise ValueError(f"{option} entry {entry!r} is not an integer") from None
    return out


def cmd_curve_info(args) -> int:
    E = parse_curve(args.curve)
    C = minimal_curve(E)
    inv = invariants(C.model)
    locals_ = [C.local(p) for p in C.disc.support]
    N = conductor(C)
    text = [f"model:        {E}",
            f"minimal:      {C.model}   (u,r,s,t) = {C.urst}",
            f"c4, c6:       {inv.c4}, {inv.c6}",
            f"disc:         {inv.discriminant} = {C.disc}",
            f"conductor:    {N.value()} = {N}"]
    for ld in locals_:
        text.append(f"  at {ld.prime}: {ld.reduction}, {ld.kodaira}, "
                    f"f = {ld.conductor_exponent}, v(disc) = {ld.discriminant_valuation}")
    _emit(args, {"model": str(E), "minimal": str(C.model), "c4": inv.c4,
                 "c6": inv.c6, "disc": inv.discriminant, "conductor": str(N),
                 "local": locals_}, "\n".join(text))
    return 0


def cmd_ap(args) -> int:
    E = parse_curve(args.curve)
    val = ap(E, args.ell)
    _emit(args, {"ell": args.ell, "ap": val}, f"a_{args.ell} = {val}")
    return 0


def cmd_trace_table(args) -> int:
    E = parse_curve(args.curve)
    tv = trace_vector(E, args.p, args.bound)
    _emit(args, {"p": args.p, "entries": list(tv.entries)}, tv.serialize())
    return 0


def cmd_serre_conductor(args) -> int:
    E = parse_curve(args.curve)
    sd = serre_conductor_semistable(E, args.p)
    notes = "; ".join(f"{ell}: {note}" for ell, note in sd.ramification_notes)
    _emit(args, {"p": args.p, "serre_conductor": str(sd.serre_conductor),
                 "notes": list(sd.ramification_notes)},
          f"N(rhobar) = {sd.serre_conductor}  [{notes}]")
    return 0


def cmd_compare(args) -> int:
    E, F = minimal_curve(parse_curve(args.curve)), minimal_curve(parse_curve(args.other))
    A, B = trace_vector(E, args.p, args.bound), trace_vector(F, args.p, args.bound)
    if not A.entries:
        raise ValueError(f"bound {args.bound} holds no prime ell != {args.p}")
    result = compare_reps(A, B)
    if result == "match-up-to-bound":
        sturm = sturm_bound(max(conductor(E), conductor(F), key=Factorization.value))
        _emit(args, {"result": result, "sturm_bound": sturm},
              f"match up to bound {args.bound} (Sturm horizon {sturm})")
        return 0
    _, ell = result
    _emit(args, {"result": "mismatch", "ell": ell},
          f"mismatch at ell = {ell}")
    return 1


def cmd_cubic_info(args) -> int:
    K = analyze_cubic(parse_cubic(args.poly))
    form = index_form(K)
    basis = ["1"]
    for row in K.integral_basis[1:]:
        terms = []
        for coef, name in zip(row, ("1", "u", "u^2")):
            if coef:
                terms.append(f"{coef}*{name}" if coef != 1 else name)
        basis.append(" + ".join(terms))
    text = [f"poly disc:    {K.poly_discriminant}",
            f"field disc:   {K.field_discriminant} = {factor(K.field_discriminant)}",
            f"index of u:   {K.index_of_generator}",
            f"basis:        {{{', '.join(basis)}}}",
            f"index form:   {form.coefficients}",
            f"odd Serre:    {s3_serre_conductor(K)}"]
    try:
        mr = mordell_reduction(K)
        text.append(f"mordell k:    {mr.k} ({mr.scaling})")
    except DiscriminantNotMinusPrime:
        pass
    _emit(args, {"poly_disc": K.poly_discriminant,
                 "field_disc": K.field_discriminant,
                 "index": K.index_of_generator,
                 "index_form": list(form.coefficients)}, "\n".join(text))
    return 0


def cmd_index_solve(args) -> int:
    K = analyze_cubic(parse_cubic(args.poly))
    primes = _int_set(args.primes, "--primes")
    sols, report = solve_index_equation(K, primes, args.bound)
    lines = ["no solutions" if not sols else
             "; ".join(f"(x,y)=({x},{y}) index {v}" for x, y, v in sols)]
    lines.extend(f"sieve: {c}" for c in report.conclusions)
    _emit(args, {"solutions": [list(s) for s in sols],
                 "conclusions": list(report.conclusions)}, "\n".join(lines))
    return 0


def cmd_mordell(args) -> int:
    S = _int_set(args.S, "--S")
    pts = search_mordell(args.k, S, args.height, args.exponent_bound)
    if not pts:
        _emit(args, {"points": []}, "no points in box")
    else:
        _emit(args, {"points": [[P.x_num, P.y_num, P.denom] for P in pts]},
              "\n".join(f"({P.x}, {P.y})" for P in pts))
    return 0


def cmd_scan_twisted(args) -> int:
    S = _int_set(args.S, "--S")
    cases = scan_twisted_mordell(args.N, args.a_bound, args.b_bound, S,
                                 args.height, args.exponent_bound)
    hits = [(k, pts) for k, pts in cases if pts]
    lines = [f"scanned {len(cases)} curves Y^2 = X^3 +- 3^a*{args.N}^b"]
    for k, pts in hits:
        lines.append(f"k = {k}: " + ", ".join(f"({P.x}, {P.y})" for P in pts))
    if not hits:
        lines.append("no points found")
    _emit(args, {"cases": len(cases),
                 "hits": [[k, [[P.x_num, P.y_num, P.denom] for P in pts]]
                          for k, pts in hits]}, "\n".join(lines))
    return 0


def cmd_obstruct(args) -> int:
    a, b = parse_pair(args.a)
    rep = compute_obstruction(QuadraticOrderElement.checked(args.disc, a, b),
                              args.ell)
    norm = "0" if rep.degenerate else str(rep.norm)
    text = (f"N(A({args.ell})) = {norm}; "
            f"obstructed primes {sorted(rep.obstructed_primes)}"
            + ("; degenerate (rational eigenvalue)" if rep.degenerate else ""))
    _emit(args, {"norm": norm,
                 "obstructed_primes": sorted(rep.obstructed_primes),
                 "degenerate": rep.degenerate}, text)
    return 0


def cmd_verify(args) -> int:
    report = verify_all(args.path)
    _emit(args, {"checks": list(report.checks), "counts": report.counts},
          report.render())
    return 1 if report.failed else 0


def _common_options(json_default) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=json_default,
                        help="machine-readable output")
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="modpcurves",
        description="Elliptic curves, their mod-p fingerprints, and the "
                    "cubic-field / Mordell / level-raising toolkit around them.",
        parents=[_common_options(False)])
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand's copy of --json sets nothing unless given, so that a
    # --json given before the subcommand survives
    common = _common_options(argparse.SUPPRESS)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("curve-info", help="invariants, conductor, local data")
    p.add_argument("curve")
    p.set_defaults(func=cmd_curve_info)

    p = add_parser("ap", help="trace of Frobenius")
    p.add_argument("curve")
    p.add_argument("ell", type=int)
    p.set_defaults(func=cmd_ap)

    p = add_parser("trace-table", help="mod-p trace vector")
    p.add_argument("curve")
    p.add_argument("p", type=int)
    p.add_argument("--bound", type=int, default=37)
    p.set_defaults(func=cmd_trace_table)

    p = add_parser("serre-conductor", help="semistable Serre conductor")
    p.add_argument("curve")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_serre_conductor)

    p = add_parser("compare", help="compare two mod-p trace vectors")
    p.add_argument("curve")
    p.add_argument("other")
    p.add_argument("p", type=int)
    p.add_argument("--bound", type=int, default=100)
    p.set_defaults(func=cmd_compare)

    p = add_parser("cubic-info", help="cubic field data")
    p.add_argument("poly")
    p.set_defaults(func=cmd_cubic_info)

    p = add_parser("index-solve", help="index form equation search")
    p.add_argument("poly")
    p.add_argument("--primes", default="")
    p.add_argument("--bound", type=int, default=1000)
    p.set_defaults(func=cmd_index_solve)

    p = add_parser("mordell", help="S-integral points on Y^2 = X^3 + k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--S", default="")
    p.add_argument("--height", type=int, default=10**4)
    p.add_argument("--exponent-bound", type=int, default=0)
    p.set_defaults(func=cmd_mordell)

    p = add_parser("scan-twisted", help="scan Y^2 = X^3 +- 3^a N^b")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a-bound", type=int, default=5)
    p.add_argument("--b-bound", type=int, default=1)
    p.add_argument("--S", default="")
    p.add_argument("--height", type=int, default=10**4)
    p.add_argument("--exponent-bound", type=int, default=0)
    p.set_defaults(func=cmd_scan_twisted)

    p = add_parser("obstruct", help="level-raising obstruction A(ell)")
    p.add_argument("--disc", type=int, required=True,
                   help="squarefree d of the real quadratic order Z[omega]")
    p.add_argument("--a", required=True, help="a_ell as (a, b) in omega coords")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_obstruct)

    p = add_parser("verify", help="run fixture verification")
    p.add_argument("path", nargs="?", default=None,
                   help="fixture file or directory (default: the packaged fixtures)")
    p.set_defaults(func=cmd_verify)
    return parser


def _unknown_options(lead) -> list[str]:
    """The options before the subcommand, lead, that the top-level parser
    does not know, which argparse would pass over, taking the value after one
    for the subcommand.  Any other bad option is left for the full parser."""
    front = argparse.ArgumentParser(parents=[_common_options(False)],
                                    add_help=False, exit_on_error=False)
    front.add_argument("-h", "--help", action="store_true")
    try:
        return front.parse_known_args(lead)[1]
    except argparse.ArgumentError:
        return []


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # most calls start with the subcommand and build no second parser
    lead = list(itertools.takewhile(lambda token: token.startswith("-"), argv))
    try:
        unknown = _unknown_options(lead) if lead else []
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Error, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
