"""Tentpole benchmark: counting scheduler vs classify re-scan.

The adversarial workload for buffered delivery is a *reversed chain*:
one sender issues W causally ordered writes and the receiver gets them
newest-first, so every message buffers until the oldest arrives and
then the whole chain cascades.  The re-scan re-classifies the entire
pending buffer on every receipt and after every apply -- O(W^2 * n)
vector comparisons; the counting scheduler parks each write under its
one missing ``(component, required)`` key and wakes exactly one message
per apply -- O(W * n).  The re-scan baseline is the same protocol with
its requirement hidden (:func:`tests.oracle.hide_requirement`); no
argument selects it.

Two harnesses:

- a single-node harness (pure scheduler cost, no event loop) swept
  over n in {16, 64, 128} with pytest-benchmark timings per path;
- a full-cluster run at n=16 under a reversing latency model, showing
  the end-to-end effect.

``test_scheduler_speedup_report`` re-times both paths with
``time.perf_counter`` (pytest-benchmark may run with
``--benchmark-disable`` in CI smoke), asserts the acceptance bar --
counting >= 5x faster at n=64 -- and writes ``BENCH_scheduler.json``
at the repo root.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.base import UpdateMessage
from repro.core.optp import OptPProtocol
from repro.sim import SimCluster
from repro.sim.latency import LatencyModel
from repro.sim.node import Node
from repro.sim.trace import Trace
from repro.workloads.generators import write_burst_schedule

from tests.oracle import hide_requirement

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_scheduler.json"

#: protocol factory per measured path
PATHS = {"rescan": hide_requirement(OptPProtocol), "counting": OptPProtocol}

CHAIN_DEPTH = 1024
SWEEP_N = [16, 64, 128]
SPEEDUP_FLOOR_AT_64 = 5.0


class ReversingLatency(LatencyModel):
    """Adversarial reordering: write seq k arrives after delay
    ``horizon - k``, so every sender's chain lands fully reversed at
    every receiver."""

    def __init__(self, horizon: int):
        self.horizon = horizon

    def latency(self, sender: int, dest: int, message) -> float:
        if isinstance(message, UpdateMessage):
            return 1.0 + (self.horizon - message.wid.seq)
        return 0.5


def reversed_chain(n, depth=CHAIN_DEPTH):
    sender = OptPProtocol(0, n)
    msgs = [sender.write("x", k).outgoing[0].message for k in range(depth)]
    msgs.reverse()
    return msgs


def drain_reversed(n, path, msgs):
    trace = Trace(n)
    node = Node(PATHS[path](1, n), trace, clock=lambda: 0.0,
                dispatch=lambda *a: None)
    for m in msgs:
        node.receive(m)
    assert node.buffered_count == 0
    return len(trace.apply_order(1))


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("n", SWEEP_N)
def test_bench_scheduler_reversed_chain(benchmark, n, path):
    msgs = reversed_chain(n)
    applies = benchmark.pedantic(drain_reversed, args=(n, path, msgs),
                                 rounds=3, iterations=1)
    assert applies == CHAIN_DEPTH


@pytest.mark.parametrize("path", sorted(PATHS))
def test_bench_scheduler_cluster_reversed(benchmark, path):
    """End-to-end: 16 processes, one bursty writer, reversed delivery."""
    n, burst = 16, 96
    sched = write_burst_schedule(1, 1, burst)

    def run():
        c = SimCluster(PATHS[path], n, latency=ReversingLatency(burst + 1))
        r = c.run_schedule(sched)
        assert r.remote_applies == burst * (n - 1)
        return r

    benchmark.pedantic(run, rounds=3, iterations=1)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_scheduler_speedup_report():
    """Times both paths, asserts the >=5x acceptance bar at n=64, and
    writes the committed ``BENCH_scheduler.json`` artifact."""
    results = {}
    for n in SWEEP_N:
        msgs = reversed_chain(n)
        rescan = _best_of(lambda: drain_reversed(n, "rescan", msgs))
        counting = _best_of(lambda: drain_reversed(n, "counting", msgs))
        results[str(n)] = {
            "rescan_s": round(rescan, 6),
            "counting_s": round(counting, 6),
            "speedup": round(rescan / counting, 2),
        }

    n, burst = 16, 96
    sched = write_burst_schedule(1, 1, burst)

    def cluster(path):
        SimCluster(PATHS[path], n,
                   latency=ReversingLatency(burst + 1)).run_schedule(sched)

    cl_rescan = _best_of(lambda: cluster("rescan"))
    cl_counting = _best_of(lambda: cluster("counting"))

    report = {
        "bench": "counting delivery scheduler vs classify re-scan",
        "workload": {
            "shape": "single-sender reversed chain",
            "chain_depth": CHAIN_DEPTH,
            "n_sweep": SWEEP_N,
        },
        "single_node": results,
        "cluster_n16_burst96": {
            "rescan_s": round(cl_rescan, 6),
            "counting_s": round(cl_counting, 6),
            "speedup": round(cl_rescan / cl_counting, 2),
        },
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    speedup_64 = results["64"]["speedup"]
    assert speedup_64 >= SPEEDUP_FLOOR_AT_64, (
        f"counting scheduler only {speedup_64}x faster than the re-scan at "
        f"n=64 (floor {SPEEDUP_FLOOR_AT_64}x): {results}"
    )
