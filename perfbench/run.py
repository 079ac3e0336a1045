"""perfbench: the modpcurves benchmark.

    python3 perfbench/run.py --workload {verify,fingerprint,local,search,all}
                             --seed N [--seconds 25] [--trace 0|1]

Run from the root of a checkout.  For each workload it generates seeded
inputs, measures set-up time in fresh interpreters, makes whole passes over
the items, each in a fresh single-threaded interpreter, until the next pass
would end after --seconds (at least one pass), and checks every output.
The last line printed is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced pass with --trace 1.
Generated inputs (with each item's governing property) and the spans of
traced passes are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify", "fingerprint", "local", "search")
# Item times are scaled to the host speed at which worker.reference_s() reads
# this (its idle value on a 2.1 GHz x86-64 vCPU under CPython 3.11): the
# speed of a shared host drifts by +-20 % over minutes, and the ratio of an
# item's time to the reference sampled around it drifts by a few percent.
REFERENCE_NOMINAL_S = 1.0e-4
SETUP_SAMPLES = 7  # fresh interpreters per run; the median is setup_s
WORKER_TIMEOUT_S = 150  # keeps a whole run under 180 s


class BenchError(Exception):
    pass


def _worker(workload: str, inputs_path: Path, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs_path), "--mode", mode, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) did not finish in {exc.timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _normalised(seconds: float, reference: float) -> float:
    """seconds at the nominal host speed, given the reference read meanwhile"""
    return seconds * REFERENCE_NOMINAL_S / reference


def _item_times(passes: list[dict]) -> list[float]:
    """Each item's normalised time, median over the passes."""
    return [statistics.median(_normalised(lat, ref) for lat, ref in zip(lats, refs))
            for lats, refs in zip(zip(*(p["latency_s"] for p in passes)),
                                  zip(*(p["reference_s"] for p in passes)))]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run_passes(workload: str, inputs_path: Path, seconds: int) -> list[dict]:
    """Timed passes, each in a fresh interpreter so that no cache survives
    from one pass into the next, for as long as the next pass is expected
    to end within seconds (at least one)."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(_worker(workload, inputs_path, "run"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    inputs = gen.GENERATORS[workload](seed)
    inputs_path = OUT / f"{workload}-seed{seed}-inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1))

    if trace:
        # the traced pass runs in an interpreter of its own, as cold as the
        # untraced pass it is compared with
        passes = [_worker(workload, inputs_path, "run")]
        traced = _worker(workload, inputs_path, "trace",
                         "--spans", str(OUT / f"{workload}-seed{seed}-spans.json"))
        later = [traced["outputs"]]
    else:
        # the first interpreter may compile bytecode; it is not counted
        setup = [_normalised(s["setup_s"], s["reference_s"])
                 for s in (_worker(workload, inputs_path, "setup")
                           for _ in range(SETUP_SAMPLES + 1))][1:]
        passes = run_passes(workload, inputs_path, seconds)
        later = [p["outputs"] for p in passes[1:]]
    outputs = passes[0]["outputs"]
    changed = {i for outs in later for i, (a, b) in enumerate(zip(outputs, outs)) if a != b}

    statuses = checks.check(workload, inputs, outputs)
    if changed:
        if workload == "verify":
            statuses = [(checks.FAIL, "report changed between passes")] * len(statuses)
        else:
            statuses = [(checks.FAIL, "output changed between passes") if i in changed else s
                        for i, s in enumerate(statuses)]
    bad = [note for status, note in statuses if status != checks.OK]
    runs = 1 + len(later)
    attempted, failed = len(statuses) * runs, len(bad) * runs

    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (sum(_item_times([traced])) - sum(_item_times(passes)), "s")
        mismatch = sum(1 for item, (status, _) in zip(inputs["items"], statuses)
                       if item.get("kind") == "index" and status != checks.OK)
        metrics["cubic.oracle_mismatch"] = (mismatch, "count")
    else:
        per_item = _item_times(passes)
        metrics = {
            "wall_s": (sum(per_item), "s"),
            "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
            "item_p90_ms": (_p90(per_item) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
            "ok_rate": (1 - failed / attempted, "ratio"),
        }
    print(f"# {workload} seed={seed}: "
          f"{'1 untraced + 1 traced interpreter' if trace else f'{len(passes)} timed pass(es)'} "
          f"over {len(outputs)} item(s); failed {failed} of {attempted} "
          f"(fail_rate {failed / attempted:.4f})")
    for note in bad:
        print(f"#   failed: {note}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    return {"correct": all(status != checks.FAIL for status, _ in statuses),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modpcurves" / "__init__.py").is_file():
        print(f"perfbench: no modpcurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
