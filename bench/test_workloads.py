"""Self-tests of the benchmark itself (``bench/run.py --selftest``).

Not part of the tier-1 suite (``testpaths = ["tests"]``); plain
``test_*`` functions, so pytest can run the file too when ``src`` and
the repo root are on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import shutil
import traceback
from pathlib import Path

from repro.serve.codec import OP_READ, OP_WRITE

from bench import run as bench_run
from bench.deploy import Deployment
from bench.load import Checker, percentile
from bench.tracing import REQUEST_SPAN, Span, self_times
from bench.workloads import (
    LANES, WORKLOADS, Frame, build_plan, scaled_counts, value)

ROOT = Path(__file__).resolve().parent.parent


def _small(name: str, seed: int = 7):
    wl = WORKLOADS[name]
    return build_plan(wl, seed, 6 * 2 * wl.batch * 10, 400, segments=6)


def test_same_seed_same_stream_other_seed_other_stream():
    for name in WORKLOADS:
        assert _small(name, 7).digest() == _small(name, 7).digest(), name
        assert _small(name, 7).digest() != _small(name, 8).digest(), name


def test_read_write_shares_are_exact_over_n():
    for name in ("kv-read-heavy", "kv-update-heavy", "kv-durable"):
        wl = WORKLOADS[name]
        plan = build_plan(wl, 3, *scaled_counts(wl, 1))
        kinds = [op[0] for lanes in plan.segments[1:] for lane in lanes
                 for frame in lane for op in frame.ops]
        n = plan.pipelined_ops
        assert len(kinds) == n
        assert kinds.count(OP_READ) == round(n * wl.read_share), name
        singles = [f.ops[0][0] for lane in plan.single for f in lane]
        assert singles.count(OP_READ) == round(len(singles) * wl.read_share)


def test_every_owned_key_read_has_a_determined_expected_value():
    for name, wl in WORKLOADS.items():
        plan = _small(name)
        for frame in plan.frames():
            for (kind, key, _), want in zip(frame.ops, frame.expect):
                if kind == OP_WRITE:
                    assert want is None
                    continue
                owned = wl.hop or int(key[1:]) % LANES == frame.replica
                assert (want is not None) == owned, (name, key)
                if owned:
                    assert len(want) == 64 and want.startswith(
                        "0:" if wl.hop else f"{frame.replica}:")


def test_hop_requests_alternate_and_read_what_the_last_one_wrote():
    plan = _small("kv-session-hop")
    frames = [f for lanes in plan.segments for f in lanes[0]]
    for prev, frame in zip(frames, frames[1:]):
        assert frame.replica == 1 - prev.replica
        wrote = [op[1] for op in prev.ops if op[0] == OP_WRITE]
        read = [op[1] for op in frame.ops if op[0] == OP_READ]
        assert read == wrote
    singles = [f for f in plan.single[0] if len(f.ops) == 1]
    for put, get in zip(singles[::2], singles[1::2]):
        assert put.ops[0][0] == OP_WRITE and get.ops[0][0] == OP_READ
        assert put.ops[0][1] == get.ops[0][1] and get.replica == 1 - put.replica
        assert get.expect[0] == put.ops[0][2]


def test_values_order_like_their_sequence_numbers():
    assert value(0, 9) < value(0, 10) < value(0, 10 ** 9)
    assert len(value(1, 123456).encode()) == 64


def test_checker_counts_a_wrong_value_and_a_version_going_backwards():
    checker = Checker()
    frame = Frame(0, [(OP_READ, "k0", None), (OP_READ, "k1", None),
                      (OP_WRITE, "k0", "v")], [value(0, 5), None, None])
    checker.check(frame, [(OP_READ, value(0, 5)), (OP_READ, value(1, 7)),
                          (OP_WRITE, 1)])
    assert (checker.attempted, checker.failed) == (3, 0)
    # the session's own key must read exactly its last write
    checker.check(frame, [(OP_READ, value(0, 4)), (OP_READ, value(1, 7)),
                          (OP_WRITE, 2)])
    assert checker.failed == 1
    # another writer's key may move forward, never back
    checker.check(frame, [(OP_READ, value(0, 5)), (OP_READ, value(1, 6)),
                          (OP_WRITE, 3)])
    assert checker.failed == 2
    checker.check(frame, [(OP_READ, value(0, 5))])
    assert checker.failed == 5


def test_a_wrong_expected_value_fails_a_real_run():
    """Boot a small deployment twice: the honest plan passes every
    check; with one expected read value and one expected final value
    tampered, both the inline check and the convergence check fail."""
    wl = WORKLOADS["kv-update-heavy"]
    work = Path(".bench_work") / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for tamper in (False, True):
            plan = build_plan(wl, 5, 6 * 2 * wl.batch, 40, keys=64, segments=2)
            if tamper:
                frame = plan.segments[1][0][0]
                at = next(i for i, want in enumerate(frame.expect) if want)
                frame.expect[at] = value(0, 999_999)
                plan.final["k0"] = value(0, 999_999)
            rundir = work / f"tamper-{tamper}"
            rundir.mkdir(parents=True)
            dep = Deployment(wl, plan, rundir)
            try:
                dep.setup()
                for lanes in plan.segments + [plan.single]:
                    dep.run_lanes(lanes)
                dep.close_clients()
                dep.quiesce()
                dep.check_convergence()
                dep.stop()
            finally:
                dep.abort()
            # one wrong read, and k0 wrong at each of the three replicas
            assert dep.failed == (4 if tamper else 0), dep.checkers[0].first_failures
            assert bench_run.exit_code(dep.failed) == (1 if tamper else 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def test_span_self_time_is_duration_minus_children_and_never_negative():
    names = ["outer", "inner", "timer", REQUEST_SPAN, "other-task"]
    spans = [
        #    name w0   w1   c0   c1  parent req
        Span(0, 0, 100, 0, 100, -1, 1),      # 0: outer, children 1 and 2
        Span(1, 10, 30, 10, 30, 0, 1),       # 1: inner
        Span(1, 40, 70, 40, 70, 0, 1),       # 2: inner, child 3
        Span(1, 50, 60, 50, 60, 2, 1),       # 3: inner nested in 2
        # a timer armed inside span 1 that fired after it closed
        Span(2, 200, 220, 200, 220, 1, 1),   # 4
        # a request whose task was suspended between its two children
        Span(3, 300, 400, 300, 400, -1, 2),  # 5
        Span(1, 310, 320, 310, 320, 5, 2),   # 6
        Span(4, 330, 350, 330, 350, -1, 0),  # 7: another task ran here
        Span(1, 360, 380, 360, 380, 5, 2),   # 8
    ]
    times = self_times(names, spans)
    assert times["outer"] == (1, 100 - 20 - 30, 100)
    assert times["inner"] == (5, 20 + (30 - 10) + 10 + 10 + 20, 90)
    assert times["timer"] == (1, 20, 20)          # nobody's child
    # gaps 300-310 and 380-400 are the request's own; 320-360 is not
    assert times[REQUEST_SPAN] == (1, 10 + 20, 100)
    assert all(t.self_cpu_ns >= 0 for t in times.values())
    # the window keeps only spans that lie inside it
    assert self_times(names, spans, (0, 150))["inner"].count == 3


def test_percentile_is_nearest_rank():
    sample = [float(i) for i in range(1, 101)]
    assert percentile(sample, 50) == 50.0
    assert percentile(sample, 90) == 90.0
    assert percentile(sample, 99) == 99.0
    assert percentile([3.0], 99) == 3.0


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def run_all() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {name}")
            except Exception:
                failed += 1
                print(f"FAIL  {name}")
                traceback.print_exc()
    print(f"{failed} failed")
    return 1 if failed else 0
