#!/usr/bin/env python3
"""Run one rookbij benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the workload runs in whole passes for about
``--seconds`` seconds and the end-to-end metrics are reported, with item
times corrected to a reference core speed (see speed.py).  With
``--trace 1`` it runs two untraced and two traced passes, checks that
the two traces count the same work, writes the first trace's spans under
``.bench_out/`` and reports the per-layer metrics.  The last line of stdout
is one JSON object; the exit code is 0 only if every output was right.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 25
TAIL_BEYOND = 10

# Times, in a fresh interpreter, the import of rookbij and its CLI plus the
# workload's program calls before the first item, corrected to the reference
# core speed like the item times.  The benchmark's own modules are imported
# outside the clock; of the modules rookbij imports, they import only typing.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
with speed.SpeedProbe() as probe:
    t0 = time.perf_counter()
    import rookbij, rookbij.cli
    t1 = time.perf_counter()
    import workloads
    work = workloads.WORKLOADS[sys.argv[3]]()
    t2 = time.perf_counter()
    work.setup()
    t3 = time.perf_counter()
print(probe.corrected(t0, t1) + probe.corrected(t2, t3))
"""

# The workload's memory: a fresh interpreter sets up and runs one pass, so
# the figure does not depend on how many passes fit in the measured time.
# It reads its own high-water mark, VmHWM; ru_maxrss would not do, because
# Linux carries the parent's peak across fork and exec into it.
RSS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import run
work = run.load_workloads().WORKLOADS[sys.argv[2]]()
specs = work.items(work.setup(), int(sys.argv[3]))
run.run_pass(work, specs, [work.prepare(spec) for spec in specs], [])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(peak_kb / 1024)
"""


def load_workloads():
    """Import the workloads against this checkout's ``src/``, or raise SystemExit."""
    if not (SRC / "rookbij" / "__init__.py").is_file():
        raise SystemExit(f"error: no rookbij sources under {SRC}")
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    import rookbij
    if not Path(rookbij.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: rookbij imported from {rookbij.__file__}, not {SRC}")
    import workloads
    return workloads


def run_pass(work, specs, args, failures: list):
    """One pass over every item; ``args`` are the items' fresh program objects.

    Returns the pass time and each item's (start, end); appends failing items.
    """
    gc.collect()
    spans = []
    start = time.perf_counter()
    for spec, arg in zip(specs, args):
        t0 = time.perf_counter()
        try:
            ok = work.run(arg)
        except Exception as exc:  # a raising item is a failed item, not a crash
            ok = False
            spec = [spec, repr(exc)]
        spans.append((t0, time.perf_counter()))
        if not ok:
            failures.append(spec)
    return time.perf_counter() - start, spans


def child_value(code: str, *args) -> float:
    """The number a fresh interpreter running ``code`` prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str) -> list[float]:
    return [child_value(SETUP_CHILD, SRC, HERE, workload) for _ in range(SETUP_RUNS)]


def end_to_end(work, specs, seed: int, seconds: float, failures: list):
    """Whole passes until the next one would overrun ``seconds``."""
    pass_times, item_spans = [], [[] for _ in specs]
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            args = [work.prepare(spec) for spec in specs]
            pass_time, spans = run_pass(work, specs, args, failures)
            pass_times.append(pass_time)
            for slot, span in zip(item_spans, spans):
                slot.append(span)
            spent = time.perf_counter() - start
            if spent + statistics.fmean(pass_times) > seconds:
                break
    # One latency per item: its median over the passes of its time at the
    # reference core speed (see speed.py).
    latency = sorted(statistics.median(probe.corrected(*span) for span in spans)
                     for spans in item_spans)
    wall = sum(statistics.median(t1 - t0 for t0, t1 in spans) for spans in item_spans)
    n = len(latency)
    setup = setup_seconds(work.name)
    metrics = {
        "items_per_s": (n / sum(latency), "1/s"),
        "item_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "item_tail_ms": (latency[n - 1 - TAIL_BEYOND] * 1e3, "ms"),
        # Start-up noise only ever adds time, so the lower quartile is steadier.
        "setup_s": (statistics.quantiles(setup, n=4)[0], "s"),
        "peak_rss_mb": (child_value(RSS_CHILD, HERE, work.name, seed), "MB"),
    }
    notes = {
        "items_per_s": f"{n} items over the sum of their times, median of "
                       f"{len(pass_times)} passes; {n / wall:.6g} 1/s by the wall clock",
        "item_p50_ms": f"median of the {n} items' times",
        "item_tail_ms": f"p{100 * (n - TAIL_BEYOND) / n:.2f} of {n} items, "
                        f"{TAIL_BEYOND} beyond it",
        "setup_s": f"lower quartile of {SETUP_RUNS} fresh interpreters, "
                   f"at the reference speed",
        "peak_rss_mb": "VmHWM of a fresh interpreter that sets up and runs one pass",
    }
    return metrics, notes, n * len(pass_times)


def traced(work, specs, failures: list):
    """Two untraced and two traced passes; per-layer metrics of the first trace.

    The overhead is the best traced pass over the best untraced pass.
    """
    untraced = [run_pass(work, specs, [work.prepare(s) for s in specs], failures)[0]
                for _ in range(2)]
    results, traced_times = [], []
    for rep in range(2):
        args = [work.prepare(spec) for spec in specs]
        trace = tracer.Tracer()
        trace.install()
        try:
            traced_times.append(run_pass(work, specs, args, failures)[0])
        finally:
            trace.uninstall()
        results.append(tracer.layer_metrics(trace.summary()))
        if rep == 0:
            OUT.mkdir(exist_ok=True)
            trace.write_spans(OUT / f"spans-{work.name}.tsv")
        del trace
    first, second = (tracer.deterministic_part(r) for r in results)
    mismatched = sorted(k for k in first if first[k] != second[k])
    metrics = results[0]
    metrics["trace.overhead_ratio"] = (min(traced_times) / min(untraced), "ratio")
    notes = {"trace.overhead_ratio": f"best traced pass {min(traced_times):.3f} s over "
                                     f"best untraced pass {min(untraced):.3f} s"}
    return metrics, notes, 4 * len(specs), mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]()
    state = work.setup()
    setup_failures = work.setup_failures(state)
    specs = work.items(state, args.seed)
    digest = hashlib.sha256(json.dumps(specs, separators=(",", ":")).encode()).hexdigest()
    print(f"workload {args.workload}  seed {args.seed}  items {len(specs)}  "
          f"inputs sha256 {digest}")

    failures: list = []
    mismatched: list = []
    if args.trace:
        metrics, notes, attempted, mismatched = traced(work, specs, failures)
    else:
        metrics, notes, attempted = end_to_end(work, specs, args.seed, args.seconds, failures)

    failed = len(failures) + len(setup_failures)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<42} {value:>14.6g} {unit}{note}")
    print(f"{'failed_ratio':<42} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    for problem in setup_failures + failures[:5]:
        print(f"FAIL {problem}", file=sys.stderr)
    if mismatched:
        print(f"FAIL traced counts differ between two runs: {', '.join(mismatched)}",
              file=sys.stderr)
    correct = failed == 0 and not mismatched
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
