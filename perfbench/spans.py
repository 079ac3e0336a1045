"""Span tracing of modpcurves from outside the package.

Tracer.install replaces each function in TRACED, at every module binding of
it (modp.ap, verify.solve_index_equation, ...), with a wrapper that records
a span [name, start, end, parent, extra, error].  Spans stay in memory until
the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.  Counts derived from arguments rather than
measured carry a unit ending in "-computed".
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function); the layer is the module, except that fixtures is part of verify
TRACED = (
    ("arith", "factor"),
    ("weierstrass", "minimal_model"),
    ("tate", "tate_local"), ("tate", "conductor"),
    ("frobenius", "count_points"), ("frobenius", "ap"),
    ("modp", "trace_vector"), ("modp", "serre_conductor_semistable"),
    ("modp", "is_reducible_semistable"), ("modp", "compare_reps"),
    ("cubic", "analyze_cubic"), ("cubic", "index_form"),
    ("cubic", "congruence_sieve"), ("cubic", "solve_index_equation"),
    ("mordell", "search_mordell"),
    ("quadorder", "compute_obstruction"),
    ("verify", "verify_all"), ("verify", "verify_records"),
    ("fixtures", "load_fixture_file"),
    ("cli", "main"),
)
LAYERS = ("arith", "weierstrass", "tate", "frobenius", "modp", "cubic", "mordell",
          "quadorder", "verify", "cli")
ITEM = "bench.item"  # root span around each workload item


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# what each span keeps of its call, for the per-layer counts
OBSERVE = {
    "frobenius.count_points": lambda a, kw, r: _arg(a, kw, 1, "ell"),
    "tate.tate_local": lambda a, kw, r: (_arg(a, kw, 0, "E").coeffs, _arg(a, kw, 1, "p")),
    "weierstrass.minimal_model": lambda a, kw, r: _arg(a, kw, 0, "E").coeffs,
    "mordell.search_mordell": lambda a, kw, r: (
        (2 * _arg(a, kw, 2, "height_bound") + 1)
        * (_arg(a, kw, 3, "exponent_bound") + 1) ** len(set(_arg(a, kw, 1, "S"))),
        len(r)),
    "cubic.solve_index_equation": lambda a, kw, r: len(r[0]),
    "modp.trace_vector": lambda a, kw, r: (
        len(r.entries), sum(q != "ramified-skip" for _, _, q in r.entries)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def item(self):
        span = self._open(ITEM)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if observe:
                span[4] = observe(args, kwargs, result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function wherever a module of package binds it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        for module_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"{package.__name__}.{module_name}"),
                               fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _layer(name: str) -> str:
    module = name.split(".")[0]
    return "verify" if module == "fixtures" else module


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit)."""
    calls, self_s, extras = Counter(), defaultdict(float), defaultdict(list)
    errors = Counter()
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        if span[4] is not None:
            extras[name].append(span[4])
        if span[5] is not None:
            errors[name, span[5]] += 1
    m: dict[str, tuple[float, str]] = {}
    for name in ("cubic.solve_index_equation", "mordell.search_mordell",
                 "frobenius.count_points", "frobenius.ap", "weierstrass.minimal_model",
                 "arith.factor", "tate.tate_local"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("cubic.solve_index_equation", "cubic.analyze_cubic", "cubic.index_form",
                 "cubic.congruence_sieve", "mordell.search_mordell", "frobenius.count_points",
                 "frobenius.ap", "modp.trace_vector", "modp.serre_conductor_semistable",
                 "modp.is_reducible_semistable", "weierstrass.minimal_model", "arith.factor",
                 "tate.tate_local", "tate.conductor", "quadorder.compute_obstruction",
                 "verify.verify_records", "cli.main", ITEM):
        m[f"{name}.self_s"] = (self_s[name], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(t for n, t in self_s.items() if _layer(n) == layer), "s")

    m["cubic.solutions"] = (sum(extras["cubic.solve_index_equation"]), "count")
    candidates = sum(c for c, _ in extras["mordell.search_mordell"])
    points = sum(p for _, p in extras["mordell.search_mordell"])
    m["mordell.candidates"] = (candidates, "cands-computed")
    m["mordell.points"] = (points, "count")
    m["mordell.hit_ratio"] = (points / candidates if candidates else 0.0, "ratio")
    scanned = sum(extras["frobenius.count_points"])
    m["frobenius.points_scanned"] = (scanned, "points-computed")
    m["frobenius.ns_per_point"] = (
        self_s["frobenius.count_points"] / scanned * 1e9 if scanned else 0.0, "ns")
    entries = sum(e for e, _ in extras["modp.trace_vector"])
    useful = sum(u for _, u in extras["modp.trace_vector"])
    m["modp.entries"] = (entries, "count")
    m["modp.useful_ratio"] = (useful / entries if entries else 0.0, "ratio")
    curves = extras["weierstrass.minimal_model"]
    m["weierstrass.minimal_model.per_curve"] = (
        len(curves) / len(set(curves)) if curves else 0.0, "calls/curve")
    m["arith.factor.incomplete"] = (errors["arith.factor", "IncompleteFactorization"], "count")
    pairs = extras["tate.tate_local"]
    m["tate.tate_local.per_bad_prime"] = (len(pairs) / len(set(pairs)) if pairs else 0.0,
                                          "calls/prime")
    m["tate.scan_width"] = (sum(p for _, p in pairs), "elems-computed")
    return m
