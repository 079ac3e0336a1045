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
from math import gcd

from .arith import Error, Factorization, factor
from .cubic import (DiscriminantNotMinusPrime, analyze_cubic, index_form,
                    mordell_reduction, parse_cubic, s3_serre_conductor,
                    solve_index_equation)
from .fixtures import parse_int_set, parse_pair
from .frobenius import ap
from .modp import (compare_reps, serre_conductor_semistable, sturm_bound,
                   trace_vector)
from .mordell import scan_twisted_mordell, search_mordell
from .quadorder import QuadraticOrderElement, checked_d, compute_obstruction
from .tate import MinimalCurve, conductor, minimal_curve
from .verify import verify_all
from .weierstrass import c_invariants, parse_curve


def _emit(args, payload: dict, render) -> None:
    """Print payload as JSON with --json, else the text render() builds.
    payload holds only dicts with str keys, lists, strs, ints, bools and
    None; render is called only when its text is printed."""
    print(json.dumps(payload, sort_keys=True) if args.json else render())


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, as str(Fraction(num, den)) has it:
    no denominator when it is 1."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}" if g != den else str(num // g)


def _point(P) -> str:
    return f"({_ratio(P.x_num, P.denom**2)}, {_ratio(P.y_num, P.denom**3)})"


def cmd_curve_info(args) -> int:
    E = parse_curve(args.curve)
    C = MinimalCurve(E)
    c4, c6, disc = c_invariants(C.model)
    locals_ = [C.local(p) for p in C.disc.support]
    N = conductor(C)

    def render():
        text = [f"model:        {E}",
                f"minimal:      {C.model}   (u,r,s,t) = {C.urst}",
                f"c4, c6:       {c4}, {c6}",
                f"disc:         {disc} = {C.disc}",
                f"conductor:    {N.value()} = {N}"]
        for ld in locals_:
            text.append(f"  at {ld.prime}: {ld.reduction}, {ld.kodaira}, "
                        f"f = {ld.conductor_exponent}, v(disc) = {ld.discriminant_valuation}")
        return "\n".join(text)
    _emit(args, {"model": str(E), "minimal": str(C.model), "c4": c4,
                 "c6": c6, "disc": disc, "conductor": str(N),
                 "local": [ld._asdict() for ld in locals_]}, render)
    return 0


def cmd_ap(args) -> int:
    E = parse_curve(args.curve)
    val = ap(E, args.ell)
    _emit(args, {"ell": args.ell, "ap": val}, lambda: f"a_{args.ell} = {val}")
    return 0


def cmd_trace_table(args) -> int:
    E = parse_curve(args.curve)
    tv = trace_vector(E, args.p, args.bound)
    _emit(args, {"p": args.p, "entries": [list(e) for e in tv.entries]},
          tv.serialize)
    return 0


def cmd_serre_conductor(args) -> int:
    E = parse_curve(args.curve)
    sd = serre_conductor_semistable(E, args.p)

    def render():
        notes = "; ".join(f"{ell}: {note}" for ell, note in sd.ramification_notes)
        return f"N(rhobar) = {sd.serre_conductor}  [{notes}]"
    _emit(args, {"p": args.p, "serre_conductor": str(sd.serre_conductor),
                 "notes": [list(n) for n in sd.ramification_notes]}, render)
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
              lambda: f"match up to bound {args.bound} (Sturm horizon {sturm})")
        return 0
    _, ell = result
    _emit(args, {"result": "mismatch", "ell": ell},
          lambda: f"mismatch at ell = {ell}")
    return 1


def cmd_cubic_info(args) -> int:
    K = analyze_cubic(parse_cubic(args.poly))
    form = index_form(K)

    def render():
        s, m, t, v, n = K.hermite_basis
        basis = ["1"]
        for row, den in (((s, 1, 0), m), ((t, v, 1), n)):
            terms = [name if num == den else f"{_ratio(num, den)}*{name}"
                     for num, name in zip(row, ("1", "u", "u^2")) if num]
            basis.append(" + ".join(terms))
        text = [f"poly disc:    {K.poly_discriminant}",
                f"field disc:   {K.field_discriminant} = {factor(K.field_discriminant)}",
                f"index of u:   {K.index_of_generator}",
                f"basis:        {{{', '.join(basis)}}}",
                f"index form:   {form.coefficients}",
                f"odd Serre:    {s3_serre_conductor(K)}"]
        try:
            k, N = mordell_reduction(K), -K.field_discriminant
            text.append(f"mordell k:    {k} ([324*c4/{N}^{{2n}}, 5832*c6/{N}^{{3n}}] with n = 1)")
        except DiscriminantNotMinusPrime:
            pass
        return "\n".join(text)
    _emit(args, {"poly_disc": K.poly_discriminant,
                 "field_disc": K.field_discriminant,
                 "index": K.index_of_generator,
                 "index_form": list(form.coefficients)}, render)
    return 0


def cmd_index_solve(args) -> int:
    K = analyze_cubic(parse_cubic(args.poly))
    primes = parse_int_set(args.primes, "--primes")
    sols, report = solve_index_equation(K, primes, args.bound)

    def render():
        lines = ["no solutions" if not sols else
                 "; ".join(f"(x,y)=({x},{y}) index {v}" for x, y, v in sols)]
        lines.extend(f"sieve: {c}" for c in report.conclusions)
        return "\n".join(lines)
    _emit(args, {"solutions": [list(s) for s in sols],
                 "conclusions": list(report.conclusions)}, render)
    return 0


def cmd_mordell(args) -> int:
    S = parse_int_set(args.S, "--S")
    pts = search_mordell(args.k, S, args.height, args.exponent_bound)
    _emit(args, {"points": [[P.x_num, P.y_num, P.denom] for P in pts]},
          lambda: "\n".join(_point(P) for P in pts) or "no points in box")
    return 0


def cmd_scan_twisted(args) -> int:
    S = parse_int_set(args.S, "--S")
    cases = scan_twisted_mordell(args.N, args.a_bound, args.b_bound, S,
                                 args.height, args.exponent_bound)
    hits = [(k, pts) for k, pts in cases if pts]

    def render():
        lines = [f"scanned {len(cases)} curves Y^2 = X^3 +- 3^a*{args.N}^b"]
        for k, pts in hits:
            lines.append(f"k = {k}: " + ", ".join(_point(P) for P in pts))
        if not hits:
            lines.append("no points found")
        return "\n".join(lines)
    _emit(args, {"cases": len(cases),
                 "hits": [[k, [[P.x_num, P.y_num, P.denom] for P in pts]]
                          for k, pts in hits]}, render)
    return 0


def cmd_obstruct(args) -> int:
    a, b = parse_pair(args.a)
    norm = compute_obstruction(QuadraticOrderElement(checked_d(args.disc), a, b),
                               args.ell)
    degenerate = norm is None
    text, primes = ("0", []) if degenerate else (str(norm), list(norm.support))
    _emit(args, {"norm": text, "obstructed_primes": primes, "degenerate": degenerate},
          lambda: f"N(A({args.ell})) = {text}; obstructed primes {primes}"
                  + ("; degenerate (rational eigenvalue)" if degenerate else ""))
    return 0


def cmd_verify(args) -> int:
    report = verify_all(args.path)
    _emit(args, {"checks": [c._asdict() for c in report.checks],
                 "counts": report.counts}, report.render)
    return 1 if report.failed else 0


# Each subcommand once: its help line, its handler, and the name and
# add_argument keywords of each argument.  build_parser builds argparse's
# parser from it and _read reads a plain call straight off it.
SUBCOMMANDS = {
    "curve-info": ("invariants, conductor, local data", cmd_curve_info,
                   [("curve", {})]),
    "ap": ("trace of Frobenius", cmd_ap,
           [("curve", {}), ("ell", {"type": int})]),
    "trace-table": ("mod-p trace vector", cmd_trace_table,
                    [("curve", {}), ("p", {"type": int}),
                     ("--bound", {"type": int, "default": 37})]),
    "serre-conductor": ("semistable Serre conductor", cmd_serre_conductor,
                        [("curve", {}), ("p", {"type": int})]),
    "compare": ("compare two mod-p trace vectors", cmd_compare,
                [("curve", {}), ("other", {}), ("p", {"type": int}),
                 ("--bound", {"type": int, "default": 100})]),
    "cubic-info": ("cubic field data", cmd_cubic_info, [("poly", {})]),
    "index-solve": ("index form equation search", cmd_index_solve,
                    [("poly", {}), ("--primes", {"default": ""}),
                     ("--bound", {"type": int, "default": 1000})]),
    "mordell": ("S-integral points on Y^2 = X^3 + k", cmd_mordell,
                [("--k", {"type": int, "required": True}),
                 ("--S", {"default": ""}),
                 ("--height", {"type": int, "default": 10**4}),
                 ("--exponent-bound", {"type": int, "default": 0})]),
    "scan-twisted": ("scan Y^2 = X^3 +- 3^a N^b", cmd_scan_twisted,
                     [("--N", {"type": int, "required": True}),
                      ("--a-bound", {"type": int, "default": 5}),
                      ("--b-bound", {"type": int, "default": 1}),
                      ("--S", {"default": ""}),
                      ("--height", {"type": int, "default": 10**4}),
                      ("--exponent-bound", {"type": int, "default": 0})]),
    "obstruct": ("level-raising obstruction A(ell)", cmd_obstruct,
                 [("--disc", {"type": int, "required": True,
                              "help": "squarefree d of the real quadratic order Z[omega]"}),
                  ("--a", {"required": True, "help": "a_ell as (a, b) in omega coords"}),
                  ("--ell", {"type": int, "required": True})]),
    "verify": ("run fixture verification", cmd_verify,
               [("path", {"nargs": "?", "default": None,
                          "help": "fixture file or directory (default: the packaged fixtures)"})]),
}


def _common_options(json_default) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=json_default,
                        help="machine-readable output")
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of SUBCOMMANDS, built once per process: parse_args keeps
    no state in it."""
    parser = argparse.ArgumentParser(
        prog="modpcurves",
        description="Elliptic curves, their mod-p fingerprints, and the "
                    "cubic-field / Mordell / level-raising toolkit around them.",
        parents=[_common_options(False)])
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand's copy of --json sets nothing unless given, so that a
    # --json given before the subcommand survives
    common = _common_options(argparse.SUPPRESS)
    for command, (help_, func, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _front_parser() -> argparse.ArgumentParser:
    """The options that may come before the subcommand: --json and help."""
    front = argparse.ArgumentParser(parents=[_common_options(False)],
                                    add_help=False, exit_on_error=False)
    front.add_argument("-h", "--help", action="store_true")
    return front


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), except that an unknown option before
    the subcommand is named, where argparse alone would report the value
    after it as a bad subcommand."""
    parser = build_parser()
    lead = list(itertools.takewhile(lambda token: token.startswith("-"), argv))
    if lead:
        try:
            _, unknown = _front_parser().parse_known_args(lead)
        except argparse.ArgumentError:
            unknown = None
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return parser.parse_args(argv)


def _read(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) read straight off SUBCOMMANDS, or
    None unless argv is plain: exact --json tokens, a subcommand, then its
    positionals in order, its exact option names with a value (`--bound 5`
    or `--bound=5`) and --json anywhere.  Each value is converted by its
    type at every occurrence, as argparse does.  Help, an abbreviation,
    `--`, a value or positional that starts with '-', a bad value, and a
    missing or extra argument are left to argparse, which prints the help
    or the usage error."""
    lead = 0
    while argv[lead:lead + 1] == ["--json"]:
        lead += 1
    if lead == len(argv) or argv[lead] not in SUBCOMMANDS:
        return None
    command = argv[lead]
    _, func, arguments = SUBCOMMANDS[command]
    dest = {name: name.lstrip("-").replace("-", "_") for name, _ in arguments}
    values = {dest[name]: keywords.get("default") for name, keywords in arguments}
    values.update(json=lead > 0, command=command, func=func)
    positionals = [(name, kw) for name, kw in arguments if not name.startswith("-")]
    options = {name: kw for name, kw in arguments if name.startswith("-")}
    required = {name for name, kw in arguments if kw.get("required")
                or (not name.startswith("-") and kw.get("nargs") != "?")}
    tokens = iter(argv[lead + 1:])
    for token in tokens:
        if token == "--json":
            values["json"] = True
            continue
        if token.startswith("-"):
            name, eq, value = token.partition("=")
            if name not in options:
                return None
            keywords = options[name]
            if not eq:
                value = next(tokens, "-")  # a missing value is not plain
        elif positionals:
            (name, keywords), value = positionals.pop(0), token
        else:
            return None
        if value.startswith("-"):
            return None
        try:
            values[dest[name]] = keywords.get("type", str)(value)
        except ValueError:
            return None
        required.discard(name)
    return None if required else argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv) or _parse(argv)
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
