"""The two fast paths of cli.main: JSON payloads printed as they are built,
and one parse per call by the subcommand's own parser.

The payloads are checked on every --json case of the golden transcripts
(scripts/cli_transcripts.py) and, for curve-info, against the recursive
converter the command line used before its payloads were plain.  The
parse is checked against the full parser on the same cases."""

import importlib.util
import json
import random
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
            for argv in JSON_CASES} == set(build_parser().subcommands)


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
    """The Namespace of every call main dispatches, from a parser whose
    handlers only record it."""
    seen = []

    def handler(args):
        seen.append(args)
        return 0
    for name in list(vars(cli)):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, handler)
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
