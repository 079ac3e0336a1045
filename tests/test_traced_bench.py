"""The benchmark's traced mode (perfbench/spans.py) against the package.

spans.Tracer wraps the functions named in spans.TRACED at every module
binding of them.  A rename or move in the package would make the traced
benchmark run fail or miss a layer, so these tests pin the names and check
that install/uninstall leave every binding as it was.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import modpcurves
from modpcurves.weierstrass import parse_curve

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules():
    return [modpcurves] + [importlib.import_module(f"modpcurves.{m.name}")
                           for m in pkgutil.iter_modules(modpcurves.__path__)]


def test_traced_functions_resolve():
    spans = _load_spans()
    for module_name, fn_name in spans.TRACED:
        module = importlib.import_module(f"modpcurves.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)


def test_tracer_install_records_and_uninstall_restores():
    spans = _load_spans()
    modules = _package_modules()
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    modpcurves.tate._record.cache_clear()
    tracer.install(modpcurves)
    try:
        for module_name, fn_name in spans.TRACED:
            fn = getattr(importlib.import_module(f"modpcurves.{module_name}"), fn_name)
            assert hasattr(fn, "__wrapped__"), (module_name, fn_name)
        modpcurves.modp.trace_vector(parse_curve("[1,1,0,-22,-812]"), 3, 20)
        # trace_vector counts every good ell in one pass, without count_points
        modpcurves.frobenius.count_points(parse_curve("[1,1,0,-22,-812]"), 19)
        modpcurves.tate.conductor(parse_curve("[0,0,0,29,-123]"))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"modp.trace_vector", "weierstrass.minimal_model", "arith.factor",
            "frobenius.count_points", "tate.tate_local", "tate.conductor"} <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["weierstrass.minimal_model.calls"][0] == 2
    assert metrics["arith.factor.calls"][0] == 2
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys(), module.__name__
        for attr, value in saved.items():
            assert now[attr] is value, (module.__name__, attr)
