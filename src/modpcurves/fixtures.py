"""Line-oriented fixture files: one record per line, '#' comments.

Record grammar:  type; key=value; key=value; ...  (each key at most once)
Values are parsed lazily by the consumer; this module only tokenizes and
offers helpers for the common value shapes (factorizations like "-2^18*3*353",
integer lists and sets, pairs like "(-1,1)"); curve literals and cubic
triples are parsed by weierstrass.parse_curve and cubic.parse_cubic.
"""

import os
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .arith import Error, Factorization, factor_product, int_literals


class FixtureError(Error):
    def __init__(self, path, lineno, message):
        self.path, self.lineno = path, lineno
        super().__init__(f"{path}:{lineno}: {message}")


class Record(NamedTuple):
    kind: str
    fields: dict
    path: str
    lineno: int

    @property
    def check_id(self) -> str:
        return f"{os.path.basename(self.path)}:{self.lineno}"


def parse_fixture_text(text: str, path: str) -> list[Record]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        kind = parts[0]
        fields = {}
        for part in parts[1:]:
            if not part:
                continue
            if "=" not in part:
                raise FixtureError(path, lineno, f"expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            if key in fields:
                raise FixtureError(path, lineno, f"repeated field {key!r}")
            fields[key] = value.strip()
        records.append(Record(kind, fields, path, lineno))
    return records


def load_fixture_file(path) -> list[Record]:
    path = Path(path)
    return parse_fixture_text(path.read_text(), str(path))


def default_fixture_dir() -> Path:
    return Path(str(resources.files("modpcurves") / "fixtures"))


def parse_factorization(text: str) -> Factorization:
    """Parse "-2^18*3*353" (or "1" / "-1") into a Factorization: an optional
    sign, then pieces n or n^e joined by '*', with spaces anywhere.  Bases
    need not be prime ("1967" = 7 * 281) and p^0 is 1.  Text with no piece
    ("", "-") raises ValueError naming it, as any bad piece does."""
    t = text.replace(" ", "")
    sign, body = (-1, t[1:]) if t[:1] == "-" else (1, t)
    terms = [(sign, 1)]  # factor(-1) is the sign -1 with no prime
    for piece in body.split("*"):
        base, caret, exp = piece.partition("^")
        if not base.isdecimal() or caret and not exp.isdecimal():
            raise ValueError(f"bad factorization piece {piece!r} in {text!r}")
        terms.append((int(base), int(exp) if caret else 1))
    return factor_product(terms)


def _int_entry(entry: str, name: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"{name} entry {entry!r} is not an integer") from None


def parse_int_list(text: str, name: str) -> list:
    """The entries of a comma list in order, '-' read as a skip marker
    (None); a bad entry raises ValueError naming the field and the entry."""
    return [None if entry.strip() == "-" else _int_entry(entry, name)
            for entry in text.split(",")]


def parse_int_set(text: str, name: str) -> set[int]:
    """The ints of a comma list, none if it is empty; a bad entry raises
    ValueError naming the option or field name and the entry."""
    return {_int_entry(entry, name) for entry in text.split(",")} if text else set()


def parse_pair(text: str) -> tuple[int, int]:
    t = text.strip()
    pair = int_literals(t[1:-1], 2) if t[:1] == "(" and t[-1:] == ")" else None
    if pair is None:
        raise ValueError(f"bad pair {text!r}")
    return pair
