"""Golden transcripts of the command-line interface.

Runs each case of CASES through modpcurves.cli.main in process, from the
root of the repository, and writes tests/golden/<subcommand>.txt: one block
per case with its argv, exit code, stdout and stderr, each output line
behind "| ".  tests/test_golden.py replays every block and compares, so a
change to any output shows up as a diff of these files.

    PYTHONPATH=src python scripts/cli_transcripts.py

Paths in the cases are relative to the root of the repository, so the
transcripts name no directory of the machine they were made on.  The error
cases are errors of the package or of a value, never usage errors, whose
text argparse wraps to the width of the terminal.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from modpcurves import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

X0_11, C37, C353 = "[0,-1,1,-10,-20]", "[0,0,1,-1,0]", "[1,1,0,-22,-812]"
C469 = "[1,0,1,-80,-275]"
J0_27 = "[0,0,1,0,0]"  # y^2 + y = x^3
F2063 = "x^3 - x^2 - 2*x + 27"

CASES = {
    "curve-info": [
        ["curve-info", C353],
        ["curve-info", C353, "--json"],
        ["curve-info", "[0,0,0,29,-123]"],
        # additive primes, --json before the subcommand
        ["--json", "curve-info", "[0,0,0,29,-123]"],
        ["curve-info", "[0,0,0,0,0]"]],
    "ap": [
        ["ap", X0_11, "2"],
        ["ap", C469, "13", "--json"],
        ["ap", X0_11, "9"],
        # bad ell above the counting bound: read off Tate's algorithm, split
        ["ap", "[1,0,0,0,1000003]", "1000003"],
        # good ell above it: nothing counted, PrimeTooLarge
        ["ap", X0_11, "1000003"],
        # j = 0 above the table cap: 1031 = 2 mod 3 has a_ell = 0 with
        # nothing counted, 1033 = 1 mod 3 is counted
        ["ap", J0_27, "1031"],
        ["ap", J0_27, "1033"]],
    "trace-table": [
        ["trace-table", C353, "3", "--bound", "37"],
        ["trace-table", C469, "5", "--json"],
        ["trace-table", X0_11, "0"],
        ["trace-table", C353, "3", "--bound", "-5"],
        # j = 0, conductor 27: ell = 1 and 2 mod 3 both read the table
        ["trace-table", J0_27, "5", "--bound", "100"]],
    "serre-conductor": [
        ["serre-conductor", C353, "3"],
        ["serre-conductor", C469, "5", "--json"],
        ["serre-conductor", "[0,0,0,29,-123]", "3"]],
    "compare": [
        ["compare", X0_11, C37, "3", "--bound", "6"],
        ["compare", C353, "[1,1,1,-2,16]", "3"],
        ["compare", X0_11, "[0,-1,1,0,0]", "5", "--json"],
        ["compare", X0_11, C37, "1"],
        ["compare", C353, "[1,1,1,-2,16]", "3", "--bound", "-1"],
        ["compare", C353, C37, "3", "--bound", "1"]],
    "cubic-info": [
        ["cubic-info", F2063],
        ["cubic-info", "x^3 - 2", "--json"],
        ["cubic-info", "x^3 - 8"],
        # text the polynomial grammar does not read
        ["cubic-info", "x^3+y-2"],
        ["cubic-info", "x^3+x^4+1"],
        ["cubic-info", "x^3 + 1 2"]],
    "index-solve": [
        ["index-solve", F2063, "--primes", "2,2063", "--bound", "10000"],
        ["index-solve", "x^3 - 2", "--primes", "2,3,5,7", "--bound", "10", "--json"],
        ["index-solve", F2063, "--primes", "2,x"]],
    "mordell": [
        ["mordell", "--k", "891216", "--S", "2,3,2063", "--height", "100000",
         "--exponent-bound", "4"],
        ["mordell", "--k", "353", "--height", "500", "--json"],
        ["mordell", "--k", "0"],
        # k = 353^6: the point (0, 353^3) is found on the y side
        ["mordell", "--k", str(353**6), "--S", "353", "--exponent-bound", "1",
         "--height", "300"]],
    "scan-twisted": [
        ["scan-twisted", "--N", "353", "--a-bound", "9", "--b-bound", "2",
         "--S", "2,3,353", "--height", "10000"],
        ["scan-twisted", "--N", "353", "--a-bound", "1", "--height", "500", "--json"],
        ["scan-twisted", "--N", "0"],
        ["scan-twisted", "--N", "353", "--a-bound", "-1"],
        ["scan-twisted", "--N", "353", "--b-bound", "0"]],
    "obstruct": [
        ["obstruct", "--disc", "5", "--a", "(-1,1)", "--ell", "2"],
        ["obstruct", "--disc", "5", "--a", "(1,0)", "--ell", "2", "--json"],
        ["obstruct", "--disc", "4", "--a", "(1,1)", "--ell", "2"]],
    "verify": [
        ["verify"],
        ["--json", "verify"],
        ["verify", "src/modpcurves/fixtures/quadratic_forms.txt"],
        ["verify", "tests/golden/fixtures/bad_record.txt"],
        ["verify", "tests/golden/fixtures/missing.txt"]],
}


def transcript(argv: list[str]) -> str:
    """The block of one case: argv, exit code, stdout and stderr of
    cli.main(argv) run in the current directory, and a blank line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = [f"argv: {json.dumps(argv)}", f"exit: {code}"]
    for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        lines.append(f"{name}:")
        lines.extend(f"| {line}" for line in text.splitlines())
        if text and not text.endswith("\n"):
            lines.append("(no newline at end)")
    return "\n".join(lines) + "\n\n"


def main() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for subcommand, cases in CASES.items():
        path = GOLDEN / f"{subcommand}.txt"
        path.write_text("".join(transcript(argv) for argv in cases))
        print(f"wrote {path.relative_to(ROOT)} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
