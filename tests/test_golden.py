"""Replay the golden CLI transcripts under tests/golden/, written by
scripts/cli_transcripts.py: every case must give the same exit code,
stdout and stderr through cli.main, in process, from the root of the
repository."""

import json

import pytest

from conftest import ROOT, load_repo_file
from modpcurves import cli

GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.txt"))


def test_every_subcommand_has_a_transcript():
    assert [path.stem for path in GOLDEN] == sorted(cli.SUBCOMMANDS)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_transcript_replays(path, monkeypatch):
    monkeypatch.chdir(ROOT)
    transcript = load_repo_file("scripts/cli_transcripts.py").transcript
    text = path.read_text()
    argvs = [json.loads(line[len("argv: "):]) for line in text.splitlines()
             if line.startswith("argv: ")]
    assert argvs
    assert "".join(transcript(argv) for argv in argvs) == text
