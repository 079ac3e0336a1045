"""Replay the golden CLI transcripts under tests/golden/, written by
scripts/cli_transcripts.py: every case must give the same exit code,
stdout and stderr through cli.main, in process, from the root of the
repository."""

import importlib.util
import json
from pathlib import Path

import pytest

from modpcurves import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.txt"))


def _load_script():
    path = ROOT / "scripts" / "cli_transcripts.py"
    spec = importlib.util.spec_from_file_location("cli_transcripts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_subcommand_has_a_transcript():
    assert [path.stem for path in GOLDEN] == sorted(cli.SUBCOMMANDS)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_transcript_replays(path, monkeypatch):
    monkeypatch.chdir(ROOT)
    transcript = _load_script().transcript
    text = path.read_text()
    argvs = [json.loads(line[len("argv: "):]) for line in text.splitlines()
             if line.startswith("argv: ")]
    assert argvs
    assert "".join(transcript(argv) for argv in argvs) == text
