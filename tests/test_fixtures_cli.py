import json
import sys

import pytest

from conftest import spy
from modpcurves import arith, cli, tate, verify
from modpcurves.cli import build_parser, main
from modpcurves.fixtures import (FixtureError, parse_factorization,
                                 parse_fixture_text, parse_int_list,
                                 parse_pair)
from modpcurves.fixtures import default_fixture_dir, load_fixture_file
from modpcurves.frobenius import ap
from modpcurves.modp import trace_vector
from modpcurves.quadorder import QuadraticOrderElement, compute_obstruction
from modpcurves.verify import (EXTERNAL, FAIL, PASS, VerificationReport,
                               verify_all, verify_records)
from modpcurves.weierstrass import parse_curve


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


def test_parse_factorization_reads_a_zero_exponent_as_one():
    assert parse_factorization("11*2^0") == parse_factorization("11")
    assert parse_factorization("2^0") == parse_factorization("1")
    assert parse_factorization("-3^0*5^2").factors == ((5, 2),)
    recs = parse_fixture_text("curve; model=[0,-1,1,-10,-20]; conductor=11*2^0\n",
                              "<string>")
    assert [c.status for c in verify_records(recs).checks] == [PASS]


def test_verify_empty_records():
    report = verify_records([])
    assert report.counts == {PASS: 0, FAIL: 0, EXTERNAL: 0}
    assert not report.failed


def test_verify_unknown_kind_skipped():
    # an unknown kind is not skipped: it stops verify at its file and line
    recs = parse_fixture_text("# one comment\nmystery; a=1\n", "<string>")
    with pytest.raises(FixtureError, match=r"^<string>:2: unknown record kind 'mystery'$"):
        verify_records(recs)


ROW_353_MOD_3 = "0,-,1,2,1,1,0,1,0,0,1,0"  # ell = 2, 3, ..., 37


@pytest.mark.parametrize("last, status", [("0", PASS), ("1", FAIL)])
def test_verify_tracerow_reads_the_whole_bound(last, status):
    # a_41 = 6 = 0 mod 3: a bound above 37 adds its primes to the window
    recs = parse_fixture_text("tracerow; model=[1,1,0,-22,-812]; p=3; bound=41; "
                              f"row={ROW_353_MOD_3},{last}\n", "<string>")
    report = verify_records(recs)
    assert [(c.check_id, c.status) for c in report.checks] == [("<string>:1", status)]


def test_verify_tracerow_rejects_a_row_shorter_than_its_window():
    recs = parse_fixture_text("# bound 41 holds 13 primes\n"
                              "tracerow; model=[1,1,0,-22,-812]; p=3; bound=41; "
                              f"row={ROW_353_MOD_3}\n", "<string>")
    with pytest.raises(FixtureError, match=r"^<string>:2: ValueError: row has 12 "
                                           r"entries for the 13 primes up to bound 41$"):
        verify_records(recs)


def test_row_records_read_the_same_row_as_a_ell_mod_p():
    # verify reads the modrow and a2row rows in the trace-vector convention;
    # on the packaged records no bad ell other than p lies in the window, so
    # that row is [a_ell mod p]
    recs = [rec for path in sorted(default_fixture_dir().glob("*.txt"))
            for rec in load_fixture_file(path) if rec.kind in ("modrow", "a2row")]
    assert len(recs) == 16
    for rec in recs:
        p = int(rec.require("p"))
        C = tate.minimal_curve(parse_curve(rec.require("model")))
        width = len(parse_int_list(rec.require("row"))) if rec.kind == "modrow" else 1
        ells = [ell for ell in arith.primes_below(38)[:width] if ell != p]
        assert not set(ells) & set(C.disc.support), rec.check_id
        row = [t for _, t, _ in trace_vector(C, p, ells[-1]).entries]
        assert row == [ap(C, ell) % p for ell in ells], rec.check_id


@pytest.mark.parametrize("row, status", [("1,-,1,1,0", FAIL), ("1,-,1,1,-", PASS)])
def test_modrow_reads_a_ramified_ell_as_a_skip(row, status):
    # 11a1 mod 3: ell = 3 is p and 11 is ramified (v_11(Delta) = 5), so both
    # read as '-'; a 0 recorded at 11 is a wrong entry
    model = "[0,-1,1,-10,-20]"
    recs = parse_fixture_text(f"modrow; level=11; model={model}; p=3; row={row}\n", "<string>")
    assert {c.description: c.status for c in verify_records(recs).checks} == {
        f"a_ell mod 3 row of {model}": status,
        f"conductor of {model} is level 11": PASS,
        f"a_2 of {model} nonzero mod 3": PASS}


def test_verify_all_counts_and_known_failures(full_report):
    report = full_report
    counts = report.counts
    assert counts[PASS] >= 90
    # exactly the three recorded source-table values our computations dispute
    assert {c.check_id for c in report.failed} \
        == {"gl2f2_fields.txt:25", "gl2f2_fields.txt:34", "p5_level67.txt:5"}
    assert counts[EXTERNAL] == 8


def test_verify_reciprocity_cover_from_three():
    # 10, 2 and 5 are residues mod 3, 7 and 11; they were once reported missing
    recs = parse_fixture_text("reciprocity; pmin=3; pmax=100; candidates=2,5,10\n",
                              "<string>")
    report = verify_records(recs)
    assert report.counts[PASS] == 1 and not report.failed


def test_verify_render_deterministic():
    path = default_fixture_dir() / "quadratic_forms.txt"
    a = verify_all(path).render()
    b = verify_all(path).render()
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


def test_compare_rejects_a_window_with_no_ell(capsys):
    # the two curves differ at ell = 2, so an empty window must not read as a match
    pair = ["compare", "[1,1,0,-22,-812]", "[0,0,1,-1,0]"]
    for p, bound in ((3, 0), (3, 1), (2, 2)):
        assert main(pair + [str(p), "--bound", str(bound)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: bound {bound} holds no prime ell != {p}\n"
    assert main(pair + ["3", "--bound", "2"]) == 1
    assert capsys.readouterr().out == "mismatch at ell = 2\n"


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
    assert payload["norm"] == "5^2 * 11" and payload["obstructed_primes"] == [5, 11]


def test_cli_obstruct_prints_the_factored_norm(capsys):
    assert main(["obstruct", "--disc", "5", "--a", "(-1,1)", "--ell", "2"]) == 0
    assert capsys.readouterr().out == "N(A(2)) = 5^2 * 11; obstructed primes [5, 11]\n"
    assert main(["obstruct", "--disc", "5", "--a", "(1,0)", "--ell", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "norm": "0", "obstructed_primes": [], "degenerate": True}


@pytest.mark.parametrize("json_flag", ([], ["--json"]))
def test_cli_obstruct_at_a_large_ell(capsys, json_flag):
    # the whole product had 6,009 digits here and overflowed int-to-str
    assert main(["obstruct", "--disc", "5", "--a", "(-1,1)",
                 "--ell", "100003", *json_flag]) == 0
    rep = compute_obstruction(QuadraticOrderElement(5, -1, 1), 100003)
    primes = sorted(rep.obstructed_primes)
    expected = (json.dumps({"degenerate": False, "norm": str(rep.norm),
                            "obstructed_primes": primes}, sort_keys=True)
                if json_flag else f"N(A(100003)) = {rep.norm}; obstructed primes {primes}")
    assert capsys.readouterr().out == expected + "\n"


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
    # --json given before the subcommand is not reset by it
    assert main(["--json", "curve-info", "[0,0,1,-1,0]"]) == 0
    assert json.loads(capsys.readouterr().out)["conductor"] == "37"
    (tmp_path / "only.txt").write_text("order; d=10; order_disc=40\n")
    assert main(["verify", str(tmp_path)]) == 0
    assert "1 pass, 0 fail" in capsys.readouterr().out
    assert main(["--json", "verify", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["pass"] == 1
    # so does an abbreviation, and an unknown option there is named, where
    # argparse alone reads the value after it as the subcommand
    assert main(["--js", "verify", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["pass"] == 1
    for argv, named in ((["--bogus", "x", "verify"], "--bogus"),
                        (["--json", "--bogus=3", "verify", str(tmp_path)], "--bogus=3")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: modpcurves ")
        assert err.endswith(f"error: unrecognized arguments: {named}\n")


def test_verify_reads_a_file_a_directory_or_the_packaged_fixtures(full_report):
    # the packaged fixtures give one report by default, as a directory and
    # merged from their files one by one
    base = default_fixture_dir()
    assert verify_all(base) == full_report
    merged = [c for path in sorted(base.glob("*.txt")) for c in verify_all(path).checks]
    assert VerificationReport(tuple(merged)) == full_report


@pytest.mark.parametrize("record, message", [
    ("curv; model=[0,0,1,-1,0]; conductor=37", "unknown record kind 'curv'"),
    ("curve; model=[0,0,1,-1,0]", "missing field 'conductor'"),
    ("irreducible; model=[1,1,0,-22,-812]; p=4; bound=100; expect=irreducible",
     "ValueError: p = 4 is not prime"),
    ("curve; model=[0,0,0,0,0]; conductor=1", "SingularModel: [0,0,0,0,0]"),
    ("curve; model=[1,2,3]; conductor=1", "ValueError: not a curve literal: '[1,2,3]'"),
    ("field; poly=(0,0,-8); disc=1; witness=(1,0); index=1; serre=1",
     "ReduciblePolynomial: rational root 2"),
    ("sieve; poly=(-1,-2,27); prime=5; primes=2,2063; conclusion=x",
     "ValueError: prime = 5 is not among primes = [2, 2063]"),
    ("sieve; poly=(-1,-2,27); prime=4; primes=2,4; conclusion=x",
     "ValueError: primes entry 4 is neither 1 nor a prime"),
    ("sieve; poly=(-1,-2,27); prime=2; primes=2,x; conclusion=x",
     "ValueError: primes entry 'x' is not an integer"),
    ("mordell; k=-2; S=2, 3,; height=10; expbound=1; expect=empty",
     "ValueError: S entry '' is not an integer"),
    ("obstruct; d=5; a=(-1,1); ell=2; level=275; subset=5,11a",
     "ValueError: subset entry '11a' is not an integer"),
    ("a2row; level=20; model=[0,1,0,4,4]; p=3; a2=0",
     "ValueError: ell = 2 is ramified or additive mod p = 3"),
    ("tracecheck; model=[1,0,1,-80,-275]; p=5; ell=5; value=1",
     "ValueError: ell = 5 is not a prime other than p = 5"),
    ("tracecheck; model=[1,0,1,-80,-275]; p=5; ell=9; value=1",
     "ValueError: ell = 9 is not a prime other than p = 5"),
    ("tracecheck; model=[1,0,1,-80,-275]; p=5; ell=-3; value=1",
     "ValueError: ell = -3 is not a prime other than p = 5"),
    ("a2row; model=[1,0,1,-80,-275]; p=4; a2=1; level=469",
     "ValueError: p = 4 is not prime"),
    ("modrow; model=[1,0,1,-80,-275]; p=1; row=0,0,0; level=469",
     "ValueError: p = 1 is not prime"),
    ("modrow; level=353; model=[1,1,1,-2,16]; p=3; row=2,-,2,1,1,2,2,0,0,0,0,0,0",
     "ValueError: row has 13 entries for the 12 primes up to 37"),
    ("modrow; level=353; model=[1,1,1,-2,16]; p=2; row=-,2,2",
     "ValueError: ell = 2 is not a prime other than p = 2"),
    ("a2row; level=67; model=[0,1,1,-12,-21]; p=2; a2=0",
     "ValueError: ell = 2 is not a prime other than p = 2"),
    ("reciprocity; pmin=13; pmax=5; candidates=2,5,10",
     "ValueError: [13, 5] holds no prime other than 2 and 5"),
    ("order; d=4; order_disc=16", "ValueError: d = 4 is not a squarefree integer > 1"),
    ("order; d=1; order_disc=1", "ValueError: d = 1 is not a squarefree integer > 1"),
    ("order; d=5; d=6; order_disc=5", "repeated field 'd'"),
    ("eligibility; residue=1; ell=2; p=0; expect=impossible",
     "ValueError: p = 0 is not prime"),
    ("eligibility; residue=1; ell=9; p=4; expect=impossible",
     "ValueError: ell = 9 is not prime")])
def test_cli_verify_stops_at_a_record_it_cannot_check(capsys, tmp_path, record, message):
    # one located error line, whatever the fault of the record; the type and
    # message of the error its check raised are kept
    path = tmp_path / "bad.txt"
    path.write_text(record + "\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: FixtureError: {path}:1: {message}\n")


@pytest.mark.parametrize("record, key", [
    ("order; d=5; order_disc=5; expect=nonsense; =7", "expect"),
    ("order; d=5; order_disc=5; =7", ""),
    ("curve; model=[0,0,1,-1,0]; conductor=37; p=5", "p")])
def test_cli_verify_names_a_field_no_check_reads(capsys, tmp_path, record, key):
    # a field that the record's checks never read, the empty key too, is a
    # located error and not a silent pass; the first such field is named
    path = tmp_path / "bad.txt"
    path.write_text(record + "\n")
    assert main(["verify", str(path)]) == 2
    kind = record.split(";")[0]
    assert capsys.readouterr() == (
        "", f"error: FixtureError: {path}:1: field {key!r} is read by no {kind!r} check\n")


def test_verify_lets_a_bug_in_a_check_through(monkeypatch):
    def broken(d):
        raise TypeError("planted bug")
    monkeypatch.setattr(verify, "order_discriminant", broken)
    recs = parse_fixture_text("order; d=10; order_disc=40\n", "<string>")
    with pytest.raises(TypeError, match="planted bug"):
        verify_records(recs)


def test_cli_verify_a_path_with_no_fixtures(capsys, tmp_path):
    # a missing path, or a directory with no *.txt file, is an error naming
    # it, never an empty pass
    (tmp_path / "empty").mkdir()
    for path in (tmp_path / "nonexistent", tmp_path / "empty"):
        assert main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("argv", [["--fixtures", "x", "verify"],
                                  ["verify", "--fixtures", "x"],
                                  ["ap", "[0,-1,1,-10,-20]", "7", "--fixtures", "x"]])
def test_cli_has_no_fixtures_option(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: modpcurves ")
    assert "error: unrecognized arguments: --fixtures" in err


@pytest.mark.parametrize("argv, option", [
    (["index-solve", "x^3 - 2", "--bound", "10", "--primes"], "--primes"),
    (["mordell", "--k", "-2", "--height", "10", "--S"], "--S"),
    (["scan-twisted", "--N", "67", "--height", "10", "--S"], "--S")])
def test_cli_names_the_option_of_a_bad_list_entry(capsys, argv, option):
    for value, entry in (("2,x", "'x'"), (",3", "''")):
        assert main(argv + [value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {option} entry {entry} is not an integer\n"
    # an empty value is the empty set
    assert main(argv + [""]) == 0
    assert capsys.readouterr().err == ""


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


def test_compare_minimalises_each_curve_once(capsys, minimal_model_runs):
    assert main(["compare", "[1,1,0,-22,-812]", "[1,1,1,-2,16]", "3"]) == 1
    assert len(minimal_model_runs) == 2


def test_verify_minimalises_each_fixture_curve_once(minimal_model_runs):
    # one record per distinct model, however many records name it
    path = default_fixture_dir() / "p3_level353.txt"
    models = {parse_curve(r.require("model")) for r in load_fixture_file(path)
              if r.kind != "external"}
    assert verify_all(path).counts[PASS] > 0
    assert len(minimal_model_runs) == len(models) == 11


@pytest.fixture
def factor_runs(monkeypatch):
    """The calls of arith.factor so far, under every name a module of the
    package binds it to, from an empty record cache."""
    tate._record.cache_clear()
    original = arith.factor
    runs = spy(monkeypatch, arith, "factor")
    for name, module in list(sys.modules.items()):
        if name.startswith("modpcurves") and getattr(module, "factor", None) is original:
            monkeypatch.setattr(module, "factor", arith.factor)
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
