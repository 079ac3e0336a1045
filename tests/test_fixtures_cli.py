import json
import sys

import pytest

from modpcurves import arith, cli, weierstrass
from modpcurves.cli import build_parser, main
from modpcurves.fixtures import (FixtureError, parse_factorization,
                                 parse_fixture_text, parse_int_list,
                                 parse_pair)
from modpcurves.fixtures import default_fixture_dir, load_fixture_file
from modpcurves.verify import (EXTERNAL, FAIL, PASS, verify_file,
                               verify_records)


def test_parse_fixture_text():
    recs = parse_fixture_text(
        "# comment only\n"
        "curve; model=[0,0,1,-1,0]; conductor=37  # trailing comment\n"
        "\n"
        "order; d=2; order_disc=8\n", path="demo.txt")
    assert [r.kind for r in recs] == ["curve", "order"]
    assert recs[0].require("model") == "[0,0,1,-1,0]"
    assert recs[0].check_id == "demo.txt:2"
    with pytest.raises(FixtureError):
        recs[1].require("model")
    with pytest.raises(FixtureError):
        parse_fixture_text("curve; no-equals-here\n", "<string>")


def test_parse_helpers():
    f = parse_factorization("-2^18*3*353")
    assert f.sign == -1 and f.factors == ((2, 18), (3, 1), (353, 1))
    # composite bases are expanded to primes
    assert parse_factorization("1967").factors == ((7, 1), (281, 1))
    assert parse_factorization("1").factors == ()
    assert parse_int_list("0,-,1,2") == [0, None, 1, 2]
    assert parse_pair("(-4, 2)") == (-4, 2)
    with pytest.raises(ValueError):
        parse_factorization("2^x")


def test_verify_empty_records():
    report = verify_records([])
    assert report.counts == {PASS: 0, FAIL: 0, EXTERNAL: 0, "skipped": 0}
    assert not report.failed


def test_verify_unknown_kind_skipped():
    recs = parse_fixture_text("mystery; a=1\n", "<string>")
    report = verify_records(recs)
    assert report.counts["skipped"] == 1


def test_verify_all_counts_and_known_failures(full_report):
    report = full_report
    counts = report.counts
    assert counts[PASS] >= 90
    # exactly the three recorded source-table values our computations dispute
    assert {c.check_id for c in report.failed} \
        == {"gl2f2_fields.txt:25", "gl2f2_fields.txt:34", "p5_level67.txt:5"}
    assert counts[EXTERNAL] == 8


def test_verify_render_deterministic():
    path = default_fixture_dir() / "quadratic_forms.txt"
    a = verify_file(path).render()
    b = verify_file(path).render()
    assert a == b
    assert a.splitlines()[-1].startswith("summary:")


def test_cli_exit_codes(capsys):
    assert main(["ap", "[0,-1,1,-10,-20]", "2"]) == 0
    assert "a_2 = -2" in capsys.readouterr().out
    # compare mismatch -> 1
    assert main(["compare", "[1,1,0,-22,-812]", "[1,1,1,-2,16]", "3"]) == 1
    # usage error -> 2
    assert main(["ap"]) == 2
    assert main(["ap", "[not-a-curve]", "2"]) == 2


@pytest.mark.parametrize("argv, message", [
    *((["ap", "[0,-1,1,-10,-20]", ell], f"ell = {ell} is not prime")
      for ell in ("0", "1", "4", "9", "1025")),
    (["trace-table", "[0,-1,1,-10,-20]", "0"], "p = 0 is not prime"),
    (["serre-conductor", "[0,-1,1,-10,-20]", "4"], "p = 4 is not prime"),
    (["compare", "[0,-1,1,-10,-20]", "[0,0,1,-1,0]", "1"], "p = 1 is not prime"),
    (["obstruct", "--disc", "4", "--a", "(1,1)", "--ell", "2"],
     "d = 4 is not a squarefree integer > 1"),
    (["obstruct", "--disc", "5", "--a", "(1,1)", "--ell", "9"], "ell = 9 is not prime"),
    (["obstruct", "--disc", "12", "--a", "(1,1)", "--ell", "2"],
     "d = 12 is not a squarefree integer > 1")])
def test_cli_rejects_a_non_prime_or_non_squarefree_argument(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_cli_reports_package_errors_and_lets_bugs_through(capsys, monkeypatch):
    assert main(["curve-info", "[0,0,0,0,0]"]) == 2
    assert capsys.readouterr().err.startswith("error: SingularModel: ")
    assert main(["verify", "no-such-fixture.txt"]) == 2
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")

    def broken(E, ell):
        raise ZeroDivisionError("planted bug")
    monkeypatch.setattr(cli, "ap", broken)
    with pytest.raises(ZeroDivisionError, match="planted bug"):
        main(["ap", "[0,-1,1,-10,-20]", "5"])


def test_cli_json_output(capsys):
    assert main(["curve-info", "[1,1,0,-22,-812]", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conductor"] == "2 * 3 * 353"
    assert main(["obstruct", "--disc", "5", "--a", "(-1,1)",
                 "--ell", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["norm"] == 275 and payload["obstructed_primes"] == [5, 11]


def test_cli_verify_single_fixture(capsys, tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text("order; d=10; order_disc=40\n")
    assert main(["verify", str(good)]) == 0
    out = capsys.readouterr().out
    assert "1 pass, 0 fail" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("order; d=10; order_disc=41\n")
    assert main(["verify", str(bad)]) == 1


def test_cli_options_before_the_subcommand(capsys, tmp_path):
    # --json and --fixtures given before the subcommand are not reset by it
    assert main(["--json", "curve-info", "[0,0,1,-1,0]"]) == 0
    assert json.loads(capsys.readouterr().out)["conductor"] == "37"
    (tmp_path / "only.txt").write_text("order; d=10; order_disc=40\n")
    assert main(["--fixtures", str(tmp_path), "verify"]) == 0
    assert "1 pass, 0 fail" in capsys.readouterr().out
    assert main(["--fixtures", str(tmp_path), "--json", "verify"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["pass"] == 1


def test_cli_reused_parser_matches_fresh_calls(capsys):
    # the parser is built once per process; a call after others gives what
    # the same call gives on a freshly built parser
    calls = [["ap", "[0,-1,1,-10,-20]", "2"],
             ["ap"],  # usage error
             ["curve-info", "[1,1,0,-22,-812]", "--json"],
             ["curve-info", "[1,1,0,-22,-812]"]]

    def run(argv):
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(argv))
    assert [rc for rc, _, _ in alone] == [0, 2, 0, 0]
    build_parser.cache_clear()
    parser = build_parser()
    assert [run(argv) for argv in calls] == alone
    assert build_parser() is parser


@pytest.fixture
def minimal_model_runs(monkeypatch):
    """The discriminants minimal_model has factored so far, one per run
    under whatever name the package binds it to."""
    runs = []
    original = weierstrass.factor

    def counted(n):
        runs.append(n)
        return original(n)

    monkeypatch.setattr(weierstrass, "factor", counted)
    return runs


def test_compare_minimalises_each_curve_once(capsys, minimal_model_runs):
    assert main(["compare", "[1,1,0,-22,-812]", "[1,1,1,-2,16]", "3"]) == 1
    assert len(minimal_model_runs) == 2


def test_verify_minimalises_each_fixture_curve_once(minimal_model_runs):
    path = default_fixture_dir() / "p3_level353.txt"
    computed = [r for r in load_fixture_file(path) if r.kind != "external"]
    assert verify_file(path).counts[PASS] > 0
    assert len(minimal_model_runs) == len(computed) == 15


@pytest.fixture
def factor_runs(monkeypatch):
    """The integers arith.factor has been asked for so far, under every
    name a module of the package binds it to."""
    runs = []
    original = arith.factor

    def counted(n, *args, **kwargs):
        runs.append(n)
        return original(n, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("modpcurves") and getattr(module, "factor", None) is original:
            monkeypatch.setattr(module, "factor", counted)
    return runs


def test_compare_mismatch_skips_the_sturm_horizon(capsys, factor_runs):
    # one factorization of each discriminant; the level is not factored
    # again for a horizon that a mismatch never prints
    assert main(["compare", "[1,1,0,-22,-812]", "[1,1,1,-2,16]", "3"]) == 1
    assert capsys.readouterr().out == "mismatch at ell = 2\n"
    assert len(factor_runs) == 2


def test_compare_match_prints_the_sturm_horizon(capsys, factor_runs):
    # 11a1 and 11a3 are 5-isogenous: the same mod-5 traces, level 11; the
    # horizon reads the level factored by conductor, not factored again
    assert main(["compare", "[0,-1,1,-10,-20]", "[0,-1,1,0,0]", "5"]) == 0
    assert capsys.readouterr().out == "match up to bound 100 (Sturm horizon 2)\n"
    assert len(factor_runs) == 2
