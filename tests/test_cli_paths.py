"""The two fast paths of cli.main: JSON payloads printed as they are built,
and a plain call read straight off the subcommand table, cli.SUBCOMMANDS,
with no argparse parser built.

The payloads are checked on every --json case of the golden transcripts
(scripts/cli_transcripts.py) and, for curve-info, against the recursive
converter the command line used before its payloads were plain.  The
reader, cli._read, is checked against the full argparse parser on 20,000
seeded calls of every subcommand, plain or not, and on the golden cases;
a call the reader declines, help and every usage error go to argparse and
print what the full parser prints.  The table may use only the
add_argument keywords the reader interprets."""

import argparse
import collections
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import spy
from modpcurves import cli
from modpcurves.cli import build_parser, main
from modpcurves.tate import MinimalCurve, conductor
from modpcurves.weierstrass import SingularModel, c_invariants, parse_curve

ROOT = Path(__file__).resolve().parent.parent


def _cases() -> list[list[str]]:
    path = ROOT / "scripts" / "cli_transcripts.py"
    spec = importlib.util.spec_from_file_location("cli_transcripts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for cases in module.CASES.values() for argv in cases]


CASES = _cases()
JSON_CASES = [argv for argv in CASES if "--json" in argv]


def not_plain(obj, where="payload") -> list[str]:
    """The places in obj that json.dumps would not print as they are: any
    value but a dict with str keys, a list, a str, an int, a bool or None.
    A tuple with _fields is a record, which json.dumps would turn into an
    array and so lose its field names."""
    if type(obj) is dict:
        return ([f"{where}: key {key!r}" for key in obj if type(key) is not str]
                + [bad for key, value in obj.items()
                   for bad in not_plain(value, f"{where}[{key!r}]")])
    if type(obj) is list:
        return [bad for i, value in enumerate(obj) for bad in not_plain(value, f"{where}[{i}]")]
    if type(obj) in (str, int, bool, type(None)):
        return []
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return [f"{where}: record {type(obj).__name__}"]
    return [f"{where}: {type(obj).__name__}"]


def test_scan_finds_planted_payloads_that_are_not_plain():
    record = MinimalCurve(parse_curve("[0,0,1,-1,0]")).local(37)
    payload = {"ok": [1, "a", None, True, {"b": []}], 2: 0, "pair": (1, 2),
               "record": [record], "set": {3}}
    assert not_plain(payload) == ["payload: key 2", "payload['pair']: tuple",
                                  "payload['record'][0]: record LocalData",
                                  "payload['set']: set"]


@pytest.mark.parametrize("argv", JSON_CASES, ids=" ".join)
def test_every_json_payload_is_plain(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    calls = spy(monkeypatch, cli, "_emit")
    assert main(argv) in (0, 1)
    payloads = [payload for _, payload, _ in calls]
    assert len(payloads) == 1
    assert not_plain(payloads[0]) == []
    assert json.loads(capsys.readouterr().out) == payloads[0]


def test_every_subcommand_has_a_json_case():
    assert {next(token for token in argv if not token.startswith("-"))
            for argv in JSON_CASES} == set(cli.SUBCOMMANDS)


def _plain(obj):
    """The recursive converter that cli._emit ran on every payload before
    each command built its payload plain."""
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


def _curve_info_by_plain(text: str) -> str:
    """curve-info --json as printed when its payload held the LocalData
    records and went through _plain."""
    E = parse_curve(text)
    C = MinimalCurve(E)
    c4, c6, disc = c_invariants(C.model)
    payload = {"model": str(E), "minimal": str(C.model), "c4": c4,
               "c6": c6, "disc": disc, "conductor": str(conductor(C)),
               "local": [C.local(p) for p in C.disc.support]}
    return json.dumps(_plain(payload), sort_keys=True) + "\n"


def _seeded_curves(count: int, seed: int) -> list[str]:
    """count nonsingular models, a third of them scaled by 2 or 3 so that
    they are not minimal, and some with additive reduction."""
    rng = random.Random(seed)
    curves = []
    while len(curves) < count:
        a = [rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-300, 300), rng.randint(-300, 300)]
        if rng.random() < 1 / 3:
            u = rng.choice((2, 3))
            a = [c * u**k for c, k in zip(a, (1, 2, 3, 4, 6))]
        text = "[%d,%d,%d,%d,%d]" % tuple(a)
        try:
            c_invariants(parse_curve(text))
        except SingularModel:
            continue
        curves.append(text)
    return curves


def test_curve_info_json_matches_the_recursive_converter(capsys):
    curves = _seeded_curves(200, seed=28)
    kinds = set()
    for text in curves:
        assert main(["curve-info", text, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == _curve_info_by_plain(text), text
        kinds.update(ld["reduction"] for ld in json.loads(out)["local"])
    assert kinds == {"additive", "split multiplicative", "nonsplit multiplicative"}


@pytest.fixture
def dispatched(monkeypatch):
    """The Namespace of every call main dispatches, from a subcommand table
    whose handlers only record it."""
    seen = []

    def handler(args):
        seen.append(args)
        return 0
    for command, (help_, _, arguments) in list(cli.SUBCOMMANDS.items()):
        monkeypatch.setitem(cli.SUBCOMMANDS, command, (help_, handler, arguments))
    build_parser.cache_clear()
    yield seen
    build_parser.cache_clear()


FRONT_OPTIONS = [["--json", "curve-info", "[0,0,1,-1,0]"],
                 ["--js", "verify", "tests/golden/fixtures/bad_record.txt"],
                 ["--json", "--json", "ap", "[0,-1,1,-10,-20]", "2", "--json"],
                 ["--json", "compare", "[0,-1,1,-10,-20]", "[0,0,1,-1,0]", "3", "--bound=6"],
                 ["ap", "[0,-1,1,-10,-20]", "2", "--jso"]]


@pytest.mark.parametrize("argv", CASES + FRONT_OPTIONS, ids=" ".join)
def test_main_dispatches_what_the_full_parser_parses(argv, dispatched):
    assert main(argv) == 0
    assert dispatched == [build_parser().parse_args(argv)]


def _full_parse(argv, capsys):
    """Exit code, stdout and stderr of the full parser on argv."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
    else:
        code = None
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    [], ["--json"], ["bogus"], ["--json", "bogus", "x"],
    ["-h"], ["--help"], ["--json", "-h", "verify"], ["--he", "ap"],
    ["verify", "--help"], ["ap", "-h"], ["--json", "index-solve", "-h"],
    ["ap"], ["ap", "[0,-1,1,-10,-20]"], ["mordell"], ["obstruct", "--disc", "5"],
    ["ap", "[0,-1,1,-10,-20]", "x"], ["trace-table", "[0,0,1,-1,0]", "3", "--bound"],
    ["verify", "a", "b"], ["curve-info", "[0,0,1,-1,0]", "--bogus", "1"],
    ["--json=1", "verify"], ["--json", "--bogus=3", "verify"]], ids=lambda argv: " ".join(argv) or "none")
def test_usage_errors_and_help_match_the_full_parser(argv, capsys, dispatched):
    code, out, err = _full_parse(argv, capsys)
    assert code is not None
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    assert dispatched == []
    assert (out if code == 0 else err).startswith("usage: modpcurves ")
    if code:
        assert "error: " in err


def test_an_unknown_option_before_the_subcommand_is_named(capsys, dispatched):
    # argparse alone reads the value after it as the subcommand
    assert main(["--bogus", "x", "verify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: modpcurves ")
    assert err.endswith("error: unrecognized arguments: --bogus\n")
    assert dispatched == []


# the keywords of add_argument that _read interprets; help sets nothing
READ_KEYWORDS = {"type", "default", "required", "nargs", "help"}


def uninterpreted(table) -> list[str]:
    """The arguments of a subcommand table, as `subcommand name: reason`,
    that _read would not read as argparse does: a keyword outside
    READ_KEYWORDS, an nargs but "?" or on one of several positionals (whose
    order argparse then reads differently), or a str default with a type,
    which argparse converts and _read does not."""
    bad = []
    for command, (_, _, arguments) in table.items():
        positionals = [name for name, _ in arguments if not name.startswith("-")]
        for name, keywords in arguments:
            where = f"{command} {name}"
            bad.extend(f"{where}: keyword {key}" for key in sorted(set(keywords) - READ_KEYWORDS))
            if "nargs" in keywords and (keywords["nargs"] != "?" or positionals != [name]):
                bad.append(f"{where}: nargs")
            if isinstance(keywords.get("default"), str) and "type" in keywords:
                bad.append(f"{where}: str default with a type")
    return bad


def test_scan_finds_planted_arguments_the_reader_does_not_interpret():
    table = {"a": ("", None, [("x", {"choices": ["1"]}), ("y", {"nargs": "?"}),
                              ("--z", {"type": int, "default": "3", "action": "append"})]),
             "b": ("", None, [("x", {"nargs": "*"}), ("--w", {"default": "", "help": ""})])}
    assert uninterpreted(table) == ["a x: keyword choices", "a y: nargs",
                                    "a --z: keyword action", "a --z: str default with a type",
                                    "b x: nargs"]


def test_the_table_uses_only_what_the_reader_interprets():
    assert uninterpreted(cli.SUBCOMMANDS) == []


# values an argument may get: plain ones, and ones argparse reads its own way
PLAIN_INTS = ["7", "3", "12", "0"]
PLAIN_TEXTS = ["[0,0,1,-1,0]", "x^3 - 2", "2,3", "(1,0)", "7"]
ODD_VALUES = ["-5", "--", "", " 7", "\u0663", "1_0", "x", "-", "a=b", "--json", "-h", "7 "]
ODD_OPTIONS = ["--bogus", "-h", "--help", "--", "--json=1", "--js", "-5"]


def _value(rng, keywords) -> str:
    if rng.random() < 0.15:
        return rng.choice(ODD_VALUES)
    return rng.choice(PLAIN_INTS if keywords.get("type") is int else PLAIN_TEXTS)


def _random_argv(rng) -> list[str]:
    """A call of a random subcommand: its positionals in order, mostly all
    of them, with its options, some repeated, abbreviated or unknown, as
    `--opt value` or `--opt=value`, and --json, at random places among
    them, and now and then an option before the subcommand."""
    command = rng.choice(list(cli.SUBCOMMANDS))
    _, _, arguments = cli.SUBCOMMANDS[command]
    lead = ["--json"] * rng.choice((0, 0, 1, 2))
    if rng.random() < 0.05:
        lead.insert(rng.randint(0, len(lead)), rng.choice(ODD_OPTIONS))
    chunks = [[_value(rng, keywords)] for name, keywords in arguments
              if not name.startswith("-") and rng.random() < 0.95]
    if rng.random() < 0.05:
        chunks.append([_value(rng, {})])
    options = {name: keywords for name, keywords in arguments if name.startswith("-")}
    picked = [name for name in options if rng.random() < 0.8]
    if options and rng.random() < 0.3:
        picked.append(rng.choice(list(options)))
    if rng.random() < 0.3:
        picked.append("--json")
    if rng.random() < 0.1:
        picked.append(rng.choice(ODD_OPTIONS + [name[:-1] for name in options]))
    for name in picked:
        value = _value(rng, options.get(name, {}))
        chunk = ([name] if name == "--json" or rng.random() < 0.03 else
                 rng.choice(([name, value], [f"{name}={value}"])))
        chunks.insert(rng.randint(0, len(chunks)), chunk)
    return lead + [command] + [token for chunk in chunks for token in chunk]


def test_the_reader_gives_what_argparse_parses():
    rng = random.Random(31)
    parser = build_parser()
    accepted = collections.Counter()
    for _ in range(20000):
        argv = _random_argv(rng)
        args = cli._read(argv)
        if args is not None:
            assert args == parser.parse_args(argv), argv
            accepted[args.command] += 1
    assert set(accepted) == set(cli.SUBCOMMANDS)


C37 = "[0,0,1,-1,0]"


@pytest.mark.parametrize("argv", [
    # type runs at each occurrence, so the first bound is an error
    ["trace-table", C37, "3", "--bound=x", "--bound", "7"],
    # a value -- parses as []
    ["index-solve", "x^3 - 2", "--primes=--"],
    ["ap", C37, "-5"], ["trace-table", C37, "3", "--bound", "-5"],
    ["trace-table", C37, "3", "--boun", "5"], ["verify", "--", "x"],
    ["ap", C37, "2", "-h"], ["--help", "ap"], ["--js", "verify"],
    ["curve-info", C37, "--json=1"], ["trace-table", C37, "3", "--bound"],
    ["ap", C37], ["ap", C37, "2", "3"], ["ap", C37, ""], ["mordell"],
    ["obstruct", "--disc", "5", "--a", "(1,0)"], ["bogus"], ["--json"], []],
    ids=lambda argv: " ".join(argv) or "none")
def test_the_reader_leaves_what_is_not_plain_to_argparse(argv):
    assert cli._read(argv) is None


def test_a_plain_call_builds_no_parser(monkeypatch, capsys):
    build_parser.cache_clear()
    cli._front_parser.cache_clear()
    built = spy(monkeypatch, argparse.ArgumentParser, "__init__")
    assert main(["curve-info", C37, "--json"]) == 0
    assert built == []
    assert main(["--json", "curve-info", C37, "--bogus"]) == 2
    assert built
    build_parser.cache_clear()


def test_a_plain_call_imports_no_locale():
    code = ("import sys\n"
            "from modpcurves.cli import main\n"
            f"main(['curve-info', '{C37}', '--json'])\n"
            "plain = 'locale' in sys.modules\n"
            "main(['ap'])\n"
            "print(plain, 'locale' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    # the usage error shows that the probe sees argparse import locale
    assert out.splitlines()[-1] == "False True"
