"""Runs one perfbench workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --inputs FILE --mode setup|run|trace
                                [--spans FILE]

Started by run.py, one process at a time.  It imports modpcurves from the
checkout's src/ and prepares the items of the generated inputs (setup mode
stops there).  Run mode then times one pass over the items; trace mode
times one traced pass and writes its spans to --spans.  The last line
printed is one JSON object of timings and outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_PERIOD_S = 0.02


def prepare(workload: str, inputs: dict):
    """Import the package, load its fixtures and build the items.  Returns
    (package, items, run_item, to_json).  run_item looks functions up on their module
    at call time, so that traced wrappers take effect."""
    sys.path.insert(0, str(ROOT / "src"))
    import modpcurves
    from modpcurves import cli, cubic, fixtures, modp, mordell, verify
    from modpcurves.weierstrass import parse_curve

    for path in sorted(fixtures.default_fixture_dir().glob("*.txt")):
        fixtures.load_fixture_file(path)

    if workload == "verify":
        def run_item(_):
            return verify.verify_all()

        def to_json(report):
            return [[c.check_id, c.description, c.status] for c in report.checks]
        return modpcurves, [None], run_item, to_json

    if workload == "fingerprint":
        H, rb = inputs["horizon"], inputs["irreducible_bound"]
        targets = {int(p): modp.trace_vector(parse_curve(m), int(p), H)
                   for p, m in inputs["targets"].items()}

        def run_item(item):
            E, p = item
            tv = modp.trace_vector(E, p, H)
            return (tv, modp.serre_conductor_semistable(E, p),
                    modp.is_reducible_semistable(E, p, rb), modp.compare_reps(tv, targets[p]))

        def to_json(r):
            tv, serre, reducible, cmp = r
            return {"entries": [list(e) for e in tv.entries],
                    "serre": [list(f) for f in serre.serre_conductor.factors],
                    "reducible": reducible, "compare": cmp if isinstance(cmp, str) else list(cmp)}
        items = [(parse_curve(it["model"]), it["p"]) for it in inputs["items"]]
        return modpcurves, items, run_item, to_json

    if workload == "local":
        def run_item(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        def to_json(r):
            return {"rc": r[0], "stdout": r[1], "stderr": r[2]}
        items = [["curve-info", "--json", it["model"]] for it in inputs["items"]]
        return modpcurves, items, run_item, to_json

    if workload == "search":
        def run_item(item):
            if item[0] == "index":
                _, poly, primes, bound = item
                K = cubic.analyze_cubic(poly)
                form = cubic.index_form(K)
                solutions, _ = cubic.solve_index_equation(K, primes, bound)
                return form.coefficients, K.field_discriminant, solutions
            _, k, S, height, expbound = item
            return mordell.search_mordell(k, S, height, expbound)

        def to_json(r):
            if isinstance(r, tuple):
                form, disc, solutions = r
                return {"form": list(form), "field_disc": disc,
                        "solutions": [list(s) for s in solutions]}
            return {"points": [[P.x_num, P.y_num, P.denom] for P in r]}
        items = [("index", tuple(it["poly"]), set(it["primes"]), it["bound"])
                 if it["kind"] == "index" else
                 ("mordell", it["k"], set(it["S"]), it["height"], it["expbound"])
                 for it in inputs["items"]]
        return modpcurves, items, run_item, to_json

    raise ValueError(f"unknown workload {workload!r}")


def reference_s() -> float:
    """Median time of five runs of a fixed pure-Python loop, about 0.1 ms on
    an idle core: how fast the host runs this process at this moment.  The
    loop builds lists and does modular arithmetic on small ints, like the
    package's inner loops; it tracked host contention better than plain
    arithmetic did."""
    clock, times = time.perf_counter, []
    for _ in range(5):
        t0 = clock()
        for r in range(300):
            acc, quotient = 0, []
            for c in (3, 5, 7, 1):
                acc = (acc * r + c) % 1009
                quotient.append(acc)
        times.append(clock() - t0)
    return sorted(times)[2]


class SpeedProbe:
    """Samples reference_s() on request and, while entered, every
    PROBE_PERIOD_S of wall time from a SIGALRM handler, so that the host
    speed is sampled all through a long item, not only at its ends.  A
    signal that arrives during a sample is dropped."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_pass(items, run_item, tracer=None):
    """One pass over all items: (per-item seconds, per-item reference
    seconds, results).  An item's time excludes the sampling done
    during it; its reference is the mean of the samples from just before it
    to just after it.  The probe's timer stays off in a traced pass, where it
    would land inside spans.  An item that raises yields its exception as
    the result."""
    clock = time.perf_counter
    latencies, references, results = [], [], []
    probe = SpeedProbe()
    with probe if tracer is None else contextlib.nullcontext():
        probe.sample()
        for item in items:
            first, spent, t0 = len(probe.samples) - 1, probe.spent, clock()
            try:
                with tracer.item() if tracer else contextlib.nullcontext():
                    result = run_item(item)
            except Exception as exc:
                result = exc
            latencies.append(clock() - t0 - (probe.spent - spent))
            results.append(result)
            probe.sample()
            references.append(sum(probe.samples[first:]) / len(probe.samples[first:]))
    return latencies, references, results


def _outputs(results, to_json):
    return [{"error": f"{type(r).__name__}: {r}"} if isinstance(r, Exception) else to_json(r)
            for r in results]


def peak_rss_kb() -> int:
    """Peak resident set of this process.  VmHWM belongs to this address
    space alone; ru_maxrss would also count the parent's size at fork."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    inputs = json.loads(Path(args.inputs).read_text())

    reference = reference_s()
    t0 = time.perf_counter()
    package, items, run_item, to_json = prepare(args.workload, inputs)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "reference_s": (reference + reference_s()) / 2}))
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(package)
    latencies, references, results = timed_pass(items, run_item, tracer)
    result = {"latency_s": latencies, "reference_s": references,
              "outputs": _outputs(results, to_json), "peak_rss_kb": peak_rss_kb()}
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans)
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra", "error"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
