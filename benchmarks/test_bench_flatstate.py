"""Tentpole benchmark: wide requirement rows + sharded mck.

Two measurements:

- **Reversed-chain drain at n = 16 / 64 / 256** -- the same adversarial
  single-sender workload as ``test_bench_scheduler.py``, swept to
  vector widths past ``DENSE_THRESHOLD``, where a receipt evaluates the
  message's cached summary (:func:`repro.core.flatstate.wide_row`)
  instead of looping over n components.  The chain's rows are
  pivot-only (a single-writer chain has no cross-sender deps), so the
  offer is O(1) per message at any n.  The summary is built by the
  *first* receiver of a message and shared by the rest -- in a
  simulated cluster, n - 2 of every n - 1 receipts -- so the gated
  figure is the shared-row rate; the first-receiver rate is reported
  beside it.
- **Sharded model checking** -- states/s of the exhaustive anbkh /
  triangle check at 1, 2 and 4 workers via ``check_sharded``.

``test_flatstate_speedup_report`` re-times everything with
``time.perf_counter`` (pytest-benchmark may run with
``--benchmark-disable`` in CI smoke), asserts the acceptance bar --
sharded mck >= 3x serial at 4 workers *when the host has >= 4 CPUs* --
and writes ``BENCH_flatstate.json`` at the repo root; the shared-row
deliveries/s are gated by ``repro-dsm bench compare`` (no lower than
half the rate recorded in ``artifacts/bench_baseline.json``, at every
n), where an absolute rate belongs.  On smaller
hosts (CI containers often expose a single core) the mck bar is
recorded but not enforced: process-pool sharding cannot beat serial
without parallel hardware, and the count-parity tests in
``tests/mck/test_shard.py`` already pin its correctness independently
of speed.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.optp import OptPProtocol
from repro.mck import CheckConfig, check, check_sharded, workload_by_name
from repro.sim.node import Node
from repro.sim.trace import FlatTrace

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_flatstate.json"

CHAIN_DEPTH = 1024
SWEEP_N = [16, 64, 256]

MCK_JOBS = [1, 2, 4]
MCK_SPEEDUP_FLOOR_AT_4 = 3.0
MCK_MIN_CPUS = 4


def reversed_chain(n, depth=CHAIN_DEPTH):
    """One sender, ``depth`` causally chained writes, delivered newest
    first."""
    sender = OptPProtocol(0, n)
    msgs = [sender.write("x", k).outgoing[0].message for k in range(depth)]
    msgs.reverse()
    return msgs


def drain_reversed(n, msgs):
    """Feed the reversed chain into one receiver; return applied count."""
    trace = FlatTrace(n)
    node = Node(OptPProtocol(1, n), trace, clock=lambda: 0.0,
                dispatch=lambda *a: None)
    for m in msgs:
        node.receive(m)
    assert node.buffered_count == 0
    return len(trace.apply_order(1))


@pytest.mark.parametrize("n", SWEEP_N)
def test_bench_flat_reversed_chain(benchmark, n):
    msgs = reversed_chain(n)
    applies = benchmark.pedantic(drain_reversed, args=(n, msgs),
                                 rounds=3, iterations=1)
    assert applies == CHAIN_DEPTH


def _mck_config():
    return CheckConfig(protocol="anbkh", workload=workload_by_name("triangle"))


def _mck_states_per_sec(jobs):
    config = _mck_config()
    t0 = time.perf_counter()
    if jobs == 1:
        result = check(config)
    else:
        result, _stats = check_sharded(config, jobs=jobs)
    wall = time.perf_counter() - t0
    return result.states, wall


@pytest.mark.parametrize("jobs", MCK_JOBS)
def test_bench_mck_sharded(benchmark, jobs):
    states, _ = benchmark.pedantic(_mck_states_per_sec, args=(jobs,),
                                   rounds=1, iterations=1)
    assert states > 10_000


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_flatstate_speedup_report():
    """Times everything, asserts the mck bar, and writes the committed
    ``BENCH_flatstate.json`` artifact."""
    chain = {}
    for n in SWEEP_N:
        drain_reversed(n, reversed_chain(n))    # warm the code paths
        msgs = reversed_chain(n)
        t0 = time.perf_counter()
        drain_reversed(n, msgs)        # the first receiver builds the rows
        first = time.perf_counter() - t0
        shared = _best_of(lambda: drain_reversed(n, msgs))
        chain[str(n)] = {
            "first_receiver_s": round(first, 6),
            "flat_s": round(shared, 6),
            "first_receiver_deliveries_per_sec":
                round(CHAIN_DEPTH / first, 1),
            "flat_deliveries_per_sec": round(CHAIN_DEPTH / shared, 1),
        }

    mck = {}
    for jobs in MCK_JOBS:
        states, wall = min(
            (_mck_states_per_sec(jobs) for _ in range(2)),
            key=lambda pair: pair[1],
        )
        mck[str(jobs)] = {
            "states": states,
            "wall_s": round(wall, 6),
            "states_per_sec": round(states / wall, 1),
        }
    for jobs in MCK_JOBS[1:]:
        assert mck[str(jobs)]["states"] == mck["1"]["states"], (
            "sharded state count diverged from serial -- parity broken")

    cpu_count = os.cpu_count() or 1
    mck_speedup_at_4 = round(
        mck["4"]["states_per_sec"] / mck["1"]["states_per_sec"], 2)
    mck_speedup_enforced = cpu_count >= MCK_MIN_CPUS

    report = {
        "bench": "wide requirement rows + sharded model checking",
        "chain": {
            "shape": "single-sender reversed chain, rows shared "
                     "across receivers",
            "chain_depth": CHAIN_DEPTH,
            "n_sweep": SWEEP_N,
            "results": chain,
        },
        "mck": {
            "config": "anbkh / triangle, exhaustive",
            "results": mck,
            "speedup_at_4": mck_speedup_at_4,
            "cpu_count": cpu_count,
            "mck_speedup_enforced": mck_speedup_enforced,
        },
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    if mck_speedup_enforced:
        assert mck_speedup_at_4 >= MCK_SPEEDUP_FLOOR_AT_4, (
            f"sharded mck only {mck_speedup_at_4}x serial at 4 workers "
            f"(floor {MCK_SPEEDUP_FLOOR_AT_4}x on {cpu_count} CPUs): {mck}")
