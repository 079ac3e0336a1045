"""The package's records: immutable named tuples, so that importing the
package needs neither `dataclasses` nor what it loads (`inspect`, `ast`),
with a repr, equality and hash given by their fields in declared order.
Their fields are annotated with types, not strings, and no record holds a
`Fraction`: importing the package loads no `fractions`, `decimal` or
`numbers`."""

import os
import subprocess
import sys
from pathlib import Path
from typing import ForwardRef

import pytest

from modpcurves import (arith, cubic, fixtures, modp, mordell, quadorder, tate,
                        verify, weierstrass)
from modpcurves.cubic import analyze_cubic, congruence_sieve, index_form, parse_cubic
from modpcurves.fixtures import parse_fixture_text
from modpcurves.modp import serre_conductor_semistable, trace_vector
from modpcurves.mordell import search_mordell
from modpcurves.quadorder import QuadraticOrderElement
from modpcurves.tate import minimal_curve
from modpcurves.verify import verify_all
from modpcurves.weierstrass import parse_curve

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (arith, cubic, fixtures, modp, mordell, quadorder, tate, verify, weierstrass)


def _samples():
    """One record of each class, from the package's own computations, with
    its class's field names in declared order."""
    E = parse_curve("[1,1,0,-22,-812]")
    K = analyze_cubic(parse_cubic("x^3 - x^2 - 2*x + 27"))
    form = index_form(K)
    report = verify_all(SRC / "modpcurves" / "fixtures" / "quadratic_forms.txt")
    return [
        (arith.factor(-360), ("sign", "factors")),
        (E, ("a1", "a2", "a3", "a4", "a6")),
        (parse_fixture_text("curve; model=[0,0,1,-1,0]", "t.txt")[0],
         ("kind", "fields", "path", "lineno")),
        (minimal_curve(E).local(353), ("prime", "reduction", "conductor_exponent",
                                       "kodaira", "discriminant_valuation")),
        (trace_vector(E, 3, 20), ("p", "entries")),
        (serre_conductor_semistable(E, 3), ("serre_conductor", "ramification_notes")),
        (search_mordell(1, set(), 10, 0)[0], ("x_num", "y_num", "denom")),
        (K, ("defining_poly", "poly_discriminant", "field_discriminant",
             "index_of_generator", "hermite_basis")),
        (form, ("coefficients",)),
        (congruence_sieve(form, {2, 2063}), ("residues", "surviving_exponents",
                                             "conclusions")),
        (QuadraticOrderElement(5, -1, 1), ("d", "a", "b")),
        (report.checks[0], ("check_id", "description", "expected", "computed", "status")),
        (report, ("checks",)),
    ]


SAMPLES = _samples()
IDS = [type(rec).__name__ for rec, _ in SAMPLES]


def test_every_record_class_has_a_sample():
    classes = {obj for m in MODULES for obj in vars(m).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and hasattr(obj, "_fields") and obj.__module__ == m.__name__
               and not obj.__name__.startswith("_")}
    assert {type(rec) for rec, _ in SAMPLES} == classes


@pytest.mark.parametrize("rec, names", SAMPLES, ids=IDS)
def test_record_is_immutable(rec, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec, names", SAMPLES, ids=IDS)
def test_record_repr_lists_fields_in_declared_order(rec, names):
    body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in names)
    assert repr(rec) == f"{type(rec).__name__}({body})"


@pytest.mark.parametrize("rec, names", SAMPLES, ids=IDS)
def test_equal_records_hash_equal(rec, names):
    twin = type(rec)(**{name: getattr(rec, name) for name in names})
    assert twin == rec and twin is not rec
    if any(isinstance(getattr(rec, name), dict) for name in names):
        # a dict field makes the record unhashable, as it makes a tuple
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)


@pytest.mark.parametrize("rec, names", SAMPLES, ids=IDS)
def test_record_fields_are_annotated_with_types_not_strings(rec, names):
    """NamedTuple compiles a string annotation into a ForwardRef, one
    compile() per field at import, so the record modules annotate with
    evaluated types."""
    annotations = {}
    for cls in type(rec).__mro__:
        annotations.update(vars(cls).get("__annotations__", {}))
    assert set(names) <= set(annotations)
    assert not [name for name, a in annotations.items() if isinstance(a, (str, ForwardRef))]


def test_import_loads_no_dataclasses_inspect_or_ast():
    names = sorted(f"modpcurves.{p.stem}" for p in (SRC / "modpcurves").glob("*.py")
                   if p.stem != "__init__")
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import modpcurves, {', '.join(names)}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    added = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.split())
    assert set(names) <= added
    assert not added & {"dataclasses", "inspect", "ast", "fractions", "decimal", "numbers"}
