"""What the command line and the fixtures read and print.

The literal parsers read with str methods: weierstrass.parse_curve,
fixtures.parse_pair, the (a, b, c) form of cubic.parse_cubic and the
pieces of fixtures.parse_factorization.  Each is checked against the
regular expression it replaced, on seeded literals with Unicode digits and
whitespace and on random edits of them.  The command line prints basis
coefficients and point coordinates from integers; each text is checked
against str(Fraction(...))."""

import re
from fractions import Fraction
from math import gcd

import pytest

from conftest import fraction_basis
from modpcurves import cli
from modpcurves.arith import Factorization, factor
from modpcurves.cli import main
from modpcurves.cubic import ReduciblePolynomial, analyze_cubic, parse_cubic
from modpcurves.fixtures import parse_factorization, parse_pair
from modpcurves.mordell import search_mordell
from modpcurves.weierstrass import parse_curve

# decimal digits of four scripts, which both re's \d and str.isdecimal take,
# and the superscript 2, which neither takes
DIGITS = "0123456789" * 3 + "٣३３²"
# whitespace that re's \s and str.strip both take
SPACES = " " * 6 + "\t\n\r\x0b\x0c\x1c\x85\xa0 　"
ALPHABET = DIGITS + SPACES + "-+,()[]^*_xu"


def _number(rng) -> str:
    digits = "".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 4)))
    return rng.choice(("", "", "-")) + digits


def _spaces(rng) -> str:
    return "".join(rng.choice(SPACES) for _ in range(rng.choice((0, 0, 0, 1, 2))))


def _edit(rng, text: str) -> str:
    """text with up to three random insertions, deletions or replacements."""
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i, c = rng.randrange(len(text) + 1), rng.choice(ALPHABET)
        text = rng.choice((text[:i] + c + text[i:], text[:i] + text[i + 1:],
                           text[:i] + c + text[i + 1:]))
    return text


def _literals(rng, count: int, brackets: tuple[str, ...], cases: int) -> list[str]:
    """Seeded comma literals of count - 1 to count + 1 numbers, in one of
    brackets, with whitespace around every token, then edited."""
    out = []
    for _ in range(cases):
        n = rng.choice((count, count, count, count - 1, count + 1))
        body = ",".join(_spaces(rng) + _number(rng) + _spaces(rng) for _ in range(n))
        pair = rng.choice(brackets)
        out.append(_edit(rng, _spaces(rng) + pair[:1] + body + pair[1:] + _spaces(rng)))
    return out


def _outcome(parse, text: str):
    try:
        return tuple(parse(text))
    except ValueError:
        return ValueError


def _old_curve(text: str):
    m = re.fullmatch(r"\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,"
                     r"\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*", text)
    if not m:
        raise ValueError(text)
    return tuple(int(g) for g in m.groups())


def _old_pair(text: str):
    m = re.fullmatch(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", text.strip())
    if not m:
        raise ValueError(text)
    return int(m.group(1)), int(m.group(2))


def _old_cubic_triple(text: str):
    """The (a, b, c) branch of parse_cubic as its pattern read it, or None
    where parse_cubic went on to read a polynomial."""
    t = text.strip()
    inner = t[1:-1] if t[:1] == "(" and t[-1:] == ")" else t
    m = re.fullmatch(r"\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*", inner)
    return tuple(int(g) for g in m.groups()) if m else None


def _old_factorization(text: str):
    t = text.replace(" ", "")
    sign = 1
    if t.startswith("-"):
        sign, t = -1, t[1:]
    counts: dict = {}
    for piece in t.split("*"):
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", piece)
        if not m:
            raise ValueError(piece)
        base, exp = int(m.group(1)), int(m.group(2) or 1)
        for p, e in factor(base).factors:
            counts[p] = counts.get(p, 0) + e * exp
    return Factorization(sign, tuple(sorted((p, e) for p, e in counts.items() if e)))


@pytest.mark.parametrize("parse, old, count, brackets", [
    (parse_curve, _old_curve, 5, ("[]", "[]", "()", "")),
    (parse_pair, _old_pair, 2, ("()", "()", "[]", "")),
])
def test_literal_parsers_accept_what_their_patterns_accepted(rng, parse, old, count, brackets):
    texts = _literals(rng, count, brackets, 4000)
    outcomes = [_outcome(old, t) for t in texts]
    # the seeded texts reach both sides
    assert 500 < sum(o is not ValueError for o in outcomes) < 3500
    for text, want in zip(texts, outcomes):
        assert _outcome(parse, text) == want, text


def test_parse_cubic_reads_triples_as_its_pattern_did(rng):
    texts = _literals(rng, 3, ("()", "()", "", "[]"), 4000)
    texts += ["x^3 - x^2 - 2*x + 27", "(x^3 + 2)", "x^3+1,2", "1, 2, x^3"]
    accepted = 0
    for text in texts:
        want = _old_cubic_triple(text)
        if want is not None:
            accepted += 1
            assert parse_cubic(text) == want, text
        else:
            # what the pattern refused is read as a polynomial, which has
            # no comma
            assert "," not in text or _outcome(parse_cubic, text) is ValueError, text
    assert 500 < accepted < 3500


def test_parse_factorization_reads_pieces_as_its_pattern_did(rng):
    texts = []
    for _ in range(3000):
        pieces = [_number(rng).lstrip("-")[:3] + rng.choice(("", "", "^" + _number(rng)[-2:]))
                  for _ in range(rng.randint(1, 3))]
        texts.append(_edit(rng, rng.choice(("", "-", " -")) + "*".join(pieces)))
    outcomes = [_outcome(_old_factorization, t) for t in texts]
    assert 500 < sum(o is not ValueError for o in outcomes) < 2500
    for text, want in zip(texts, outcomes):
        assert _outcome(parse_factorization, text) == want, text


def _fraction_basis_text(K) -> str:
    """The basis line of cubic-info as it was printed from Fraction rows."""
    basis = ["1"]
    for row in fraction_basis(K)[1:]:
        terms = []
        for coef, name in zip(row, ("1", "u", "u^2")):
            if coef:
                terms.append(f"{coef}*{name}" if coef != 1 else name)
        basis.append(" + ".join(terms))
    return f"basis:        {{{', '.join(basis)}}}"


def test_cli_prints_basis_coefficients_and_points_as_fraction_does(rng, capsys):
    for _ in range(2000):
        g = rng.choice((1, 1, 2, 3, 4, 9, 16, 27, 101))
        num, den = g * rng.randint(-10**6, 10**6), g * rng.randint(1, 10**4)
        assert cli._ratio(num, den) == str(Fraction(num, den)), (num, den)
    fields = []
    while len(fields) < 60:
        k = rng.choice((1, 2, 3, 4, 6, 9))
        a, b, c = (rng.randint(-20, 20) for _ in range(3))
        try:
            fields.append(analyze_cubic((k * a, k * k * b, k**3 * c)))
        except ReduciblePolynomial:
            continue
    coefficients = [(num, den) for s, m, t, v, n in (K.hermite_basis for K in fields)
                    for num, den in ((s, m), (1, m), (t, n), (v, n), (1, n))]
    # some coefficients are not in lowest terms
    assert sum(1 < gcd(num, den) < den for num, den in coefficients) > 20
    for num, den in coefficients:
        assert cli._ratio(num, den) == str(Fraction(num, den)), (num, den)
    for K in [K for K in fields if K.index_of_generator > 1][:20]:
        assert main(["cubic-info", str(K.defining_poly)]) == 0
        assert _fraction_basis_text(K) in capsys.readouterr().out.splitlines(), K
    points = [P for k in rng.sample(range(-300, 300), 40) if k
              for P in search_mordell(k, {2, 3}, 300, 2)]
    assert sum(P.denom > 1 for P in points) > 5
    for P in points:
        want = f"({Fraction(P.x_num, P.denom**2)}, {Fraction(P.y_num, P.denom**3)})"
        assert cli._point(P) == want, P
