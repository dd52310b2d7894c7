#!/usr/bin/env python3
"""Tests of the benchmark itself: output gates, seeding, tracing.

    python3 perfbench/selftest.py            # or: python -m pytest perfbench/selftest.py

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); takes about half a minute.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import subprocess
import sys
import time
from functools import cached_property
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

workloads = run.load_workloads()
import speed  # noqa: E402
import tracer  # noqa: E402
from rookbij import Board, bijection, enumeration, placement  # noqa: E402


def run_main(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def patched(obj, name: str, value):
    original = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, original)


def test_off_by_one_count_fails_the_run():
    real = enumeration.count_avoiders
    with patched(enumeration, "count_avoiders", lambda b, p: real(b, p) + 1):
        code, result = run_main("--workload", "count-table", "--seed", "1",
                                "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 589


def test_one_failing_tag_fails_the_run():
    real = enumeration.check_board
    fake = lambda b, tag: ["injected"] if tag == "t2" else real(b, tag)  # noqa: E731
    with patched(enumeration, "check_board", fake):
        code, result = run_main("--workload", "verify-sweep", "--seed", "1",
                                "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == 99


def test_wrong_cli_output_fails_a_query():
    work = workloads.QueryMix()
    spec = work.items(None, 3)[0]
    assert work.run(spec)
    with patched(workloads, "map_output", lambda perm: "0\n"):
        assert not work.run(spec)


def test_second_seed_reorders_items_and_keeps_pinned_outputs():
    for name in ("verify-sweep", "count-table"):
        work = workloads.WORKLOADS[name]()
        state = work.setup()
        first, second = work.items(state, 1), work.items(state, 2)
        assert first != second and sorted(first) == sorted(second)
    code, result = run_main("--workload", "count-table", "--seed", "2",
                            "--seconds", "0", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0


def contains_231(perm) -> bool:
    return any(perm[k] < perm[i] < perm[j] for i, j, k in combinations(range(len(perm)), 3))


def test_query_inputs_are_seeded_and_well_formed():
    work = workloads.QueryMix()
    queries = work.items(None, 7)
    assert queries == work.items(None, 7) and queries != work.items(None, 8)
    sizes = sorted(len(q["perm"]) for q in queries)
    assert sizes == sorted(list(workloads.QUERY_SIZES) * workloads.QUERIES_PER_SIZE)
    for q in queries:
        heights = [int(h) for h in q["board"].split(",")]
        perm = q["perm"]
        assert not contains_231(perm)
        assert heights[0] == len(heights) == len(perm)
        assert all(a >= b for a, b in zip(heights, heights[1:]))
        assert all(r <= h for r, h in zip(perm, heights))
        assert 0 < len(q["sub"]) < len(perm)


def test_pinned_counts_hold_the_paper_facts():
    table = workloads.load_pinned_counts()
    assert len(table) == 196 * 3 + 1
    assert table[workloads.SQUARE_8, "231"] == 1430


def traced_subset(name: str, count: int, seed: int = 5):
    work = workloads.WORKLOADS[name]()
    specs = [s for s in work.items(work.setup(), seed) if s != [list(workloads.SQUARE_8), "231"]]
    failures: list = []
    metrics, _, _, mismatched = run.traced(work, specs[:count], failures)
    assert failures == [] and mismatched == []
    return {k: v for k, (v, _) in metrics.items()}


def test_traced_counts_repeat_and_bypass_unused_layers():
    counts = traced_subset("count-table", 60)
    assert counts["placement.pattern_witness.calls"] > 0
    for name in ("placement.s_sequence.calls", "conditions.check.calls",
                 "bijection.reconstruct.calls"):
        assert counts[name] == 0, name
    queries = traced_subset("query-mix", 12)
    assert queries["cli.main.calls"] == 12
    assert queries["enumeration.placements_yielded"] == 0
    assert queries["board.diagonal_pairs.computed"] > 0
    sweep = traced_subset("verify-sweep", 80)
    assert 0 < sweep["enumeration.valid_sequences.accept_ratio"] <= 1


def test_self_times_add_up_and_uninstall_restores():
    original_avoids = placement.avoids
    original_border = Board.__dict__["border_path"].func
    t = tracer.Tracer()
    t.install()
    try:
        assert enumeration.avoids is placement.avoids is not original_avoids
        b = Board((4, 4, 4, 3))
        p = next(enumeration.full_placements(b))
        bijection.alpha_general(b, placement.Placement(p.markers))
    finally:
        t.uninstall()
    assert enumeration.avoids is placement.avoids is original_avoids
    assert isinstance(Board.__dict__["border_path"], cached_property)
    assert Board.__dict__["border_path"].func is original_border
    groups = t.summary()["groups"]
    roots = [sid for sid in range(len(t.span_group)) if t.span_parent[sid] == -1]
    total = sum(t.span_end[s] - t.span_start[s] for s in roots)
    self_total = sum(g["self_s"] for g in groups.values())
    assert abs(total - self_total) < 1e-9 * max(1, len(t.span_group))
    assert groups["enumeration.full_placements"]["yielded"] == 1
    assert groups["bijection.compact"]["calls"] == 1


def test_speed_correction_scales_to_the_reference_speed():
    probe = speed.SpeedProbe()
    slow = 2 * speed.KERNEL_S
    probe.samples = [(0.0, slow), (1.0, slow), (1.5, slow)]
    # Between samples: neighbours give the speed; half as fast, half the time.
    assert abs(probe.corrected(0.2, 0.3) - 0.05) < 1e-12
    # A sample inside the interval is taken out of its time.
    assert abs(probe.corrected(0.9, 1.1) - (0.2 - slow) / 2) < 1e-12
    with speed.SpeedProbe() as live:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
    assert len(live.samples) >= 5 and live.corrected(t0, t0 + 0.05) > 0
    # The kernel runs with the collector off and turns it back on.
    assert gc.isenabled()


def test_peak_rss_leaves_out_the_parent():
    ballast = b"x" * 64_000_000  # a parent whose peak is far above a workload's
    child = run.child_value(run.RSS_CHILD, run.HERE, "verify-sweep", 1)
    assert 5 < child < len(ballast) / 2**20


def test_fails_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "query-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
