"""Line-oriented fixture files: one record per line, '#' comments.

Record grammar:  type; key=value; key=value; ...  (each key at most once)
Values are parsed lazily by the consumer; this module only tokenizes and
offers helpers for the common value shapes (factorizations like "-2^18*3*353",
integer lists, curve literals, cubic triples).
"""

import os
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .arith import Error, Factorization, factor, int_literals


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

    def require(self, key: str) -> str:
        if key not in self.fields:
            raise FixtureError(self.path, self.lineno, f"missing field {key!r}")
        return self.fields[key]


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
    """Parse "-2^18*3*353" (or "1" / "-1") into a Factorization."""
    t = text.replace(" ", "")
    sign = 1
    if t.startswith("-"):
        sign, t = -1, t[1:]
    if t in ("", "1"):
        return Factorization(sign, ())
    counts: dict = {}
    for piece in t.split("*"):
        base, caret, exp = piece.partition("^")
        if not base.isdecimal() or caret and not exp.isdecimal():
            raise ValueError(f"bad factorization piece {piece!r} in {text!r}")
        base, exp = int(base), int(exp) if caret else 1
        # bases need not be prime in fixture text (e.g. "1967" = 7 * 281)
        for p, e in factor(base).factors:
            counts[p] = counts.get(p, 0) + e * exp
    # p^0 is 1
    return Factorization(sign, tuple(sorted((p, e) for p, e in counts.items() if e)))


def parse_int_list(text: str) -> list:
    """Comma list of integers with '-' allowed as a skip marker (None)."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        out.append(None if piece == "-" else int(piece))
    return out


def parse_int_set(text: str, name: str) -> set[int]:
    """The ints of a comma list, none if it is empty; a bad entry raises
    ValueError naming the option or field name and the entry."""
    out = set()
    for entry in text.split(",") if text else ():
        try:
            out.add(int(entry))
        except ValueError:
            raise ValueError(f"{name} entry {entry!r} is not an integer") from None
    return out


def parse_pair(text: str) -> tuple[int, int]:
    t = text.strip()
    pair = int_literals(t[1:-1], 2) if t[:1] == "(" and t[-1:] == ")" else None
    if pair is None:
        raise ValueError(f"bad pair {text!r}")
    return pair
