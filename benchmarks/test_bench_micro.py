"""Q4: protocol-mechanics micro-benchmarks.

Measures the primitive costs underlying every run -- vector-clock
comparisons (list vs numpy crossover, the DESIGN.md claim), OptP's
activation predicate, write/read procedure throughput, engine event
throughput, and batch trace analysis -- so regressions in the hot path
are visible independently of workload effects.
"""

import random

import pytest

from repro.core.optp import OptPProtocol
from repro.core.vectorclock import (
    batch_precedes_matrix,
    vc_join,
    vc_le,
    vc_lt,
)
from repro.protocols.anbkh import ANBKHProtocol
from repro.core.base import Disposition
from repro.sim import Engine


def _vectors(n, count, seed=0):
    rng = random.Random(seed)
    return [[rng.randrange(100) for _ in range(n)] for _ in range(count)]


@pytest.mark.parametrize("n", [4, 16, 64])
def test_bench_q4_vc_lt_list(benchmark, n):
    pairs = list(zip(_vectors(n, 200, 1), _vectors(n, 200, 2)))

    def run():
        return sum(vc_lt(a, b) for a, b in pairs)

    benchmark(run)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_bench_q4_vc_batch_numpy(benchmark, n):
    vecs = _vectors(n, 200, 3)

    def run():
        return batch_precedes_matrix(vecs).sum()

    benchmark(run)


def test_bench_q4_vc_join(benchmark):
    a, b = _vectors(16, 2, 4)
    benchmark(lambda: vc_join(a, b))


def test_bench_q4_vc_join_inplace(benchmark):
    """The read/apply-path join without the per-call list rebuild
    (adopted in the ANBKH and ws-receiver apply paths by the flat-state
    PR): mutates the accumulator instead of allocating a result."""
    from repro.core.vectorclock import vc_join_inplace

    a, b = _vectors(16, 2, 4)
    acc = list(a)
    benchmark(lambda: vc_join_inplace(acc, b))


def test_bench_q4_ws_receiver_read_join(benchmark):
    """ws-receiver's read-time merge (Definition 10 jump): dominated by
    the per-variable past joins, now in-place via vc_join_inplace."""
    from repro.protocols.ws_receiver import WSReceiverProtocol

    sender = WSReceiverProtocol(0, 16)
    receiver = WSReceiverProtocol(1, 16)
    for k in range(8):
        msg = sender.write(f"x{k % 4}", k).outgoing[0].message
        receiver.apply_update(msg)

    benchmark(lambda: receiver.read("x1"))


def test_bench_q4_optp_write(benchmark):
    p = OptPProtocol(0, 16)

    def write():
        p.write("x", 1)

    benchmark(write)


def test_bench_q4_optp_read(benchmark):
    p = OptPProtocol(0, 16)
    p.write("x", 1)
    benchmark(lambda: p.read("x"))


def test_bench_q4_optp_classify(benchmark):
    """The activation predicate (Figure 5 line 2): the per-receipt cost."""
    sender = OptPProtocol(0, 16)
    receiver = OptPProtocol(1, 16)
    msg = sender.write("x", 1).outgoing[0].message

    result = benchmark(receiver.classify, msg)
    assert result is Disposition.APPLY


def test_bench_q4_anbkh_classify(benchmark):
    sender = ANBKHProtocol(0, 16)
    receiver = ANBKHProtocol(1, 16)
    msg = sender.write("x", 1).outgoing[0].message

    result = benchmark(receiver.classify, msg)
    assert result is Disposition.APPLY


def test_bench_q4_scheduled_alloc(benchmark):
    """Allocation cost of the engine's heap entries.

    ``_Scheduled`` is ``slots=True``: on the reference box that took
    one instance from ~176 to ~136 bytes (tracemalloc, 10k instances)
    and allocation from ~376 to ~328 ns -- a ~23% footprint cut on the
    object every scheduled event allocates.  The hasattr assertion
    pins the layout so the dict never silently comes back.
    """
    from repro.sim.engine import _Scheduled

    fn = lambda: None  # noqa: E731

    def alloc():
        return [_Scheduled(float(k), k, fn) for k in range(1_000)]

    items = benchmark(alloc)
    assert not hasattr(items[0], "__dict__")


def test_bench_q4_engine_throughput(benchmark):
    """Raw event-loop overhead: schedule+run 10k no-op events."""

    def run():
        e = Engine()
        for k in range(10_000):
            e.schedule_at(float(k), lambda: None)
        e.run()
        return e.events_processed

    assert benchmark(run) == 10_000


@pytest.mark.parametrize("depth", [10, 100, 400])
def test_bench_q4_drain_scaling(benchmark, depth):
    """Cost of the re-test-all pending-buffer drain vs buffer depth
    (DESIGN.md 'Buffering strategy' ablation): a worst case where one
    arrival unblocks a same-sender chain of `depth` buffered writes.
    Runs the protocol with its requirement hidden -- this measures the
    ablated re-scan itself; the counting path is covered in
    test_bench_scheduler.py."""
    from repro.sim.node import Node
    from repro.sim.trace import Trace

    from tests.oracle import hide_requirement

    rescanned = hide_requirement(OptPProtocol)

    def run():
        sender = OptPProtocol(0, 2)
        msgs = [sender.write("x", k).outgoing[0].message
                for k in range(depth + 1)]
        trace = Trace(2)
        node = Node(rescanned(1, 2), trace, clock=lambda: 0.0,
                    dispatch=lambda *a: None)
        for m in msgs[1:]:
            node.receive(m)          # all buffered (first write missing)
        assert node.buffered_count == depth
        node.receive(msgs[0])        # unblocks the whole chain
        assert node.buffered_count == 0
        return len(trace)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bench_q4_safety_checker(benchmark):
    """The vectorized Theorem-3 check over a mid-size run (the
    heaviest analyzer after the ->co closure itself)."""
    from repro.analysis.checker import check_safety
    from repro.sim import SeededLatency, run_schedule
    from repro.workloads import WorkloadConfig, random_schedule

    cfg = WorkloadConfig(n_processes=8, ops_per_process=40,
                         write_fraction=0.7, seed=1)
    r = run_schedule("optp", 8, random_schedule(cfg),
                     latency=SeededLatency(1))
    r.history.causal_order  # warm the closure cache; measure the check

    violations = benchmark(check_safety, r)
    assert violations == []


def test_bench_q4_precedes_matrix(benchmark):
    """Batch ->co matrix extraction (feeds safety + falsecausality)."""
    from repro.sim import SeededLatency, run_schedule
    from repro.workloads import WorkloadConfig, random_schedule

    cfg = WorkloadConfig(n_processes=6, ops_per_process=50,
                         write_fraction=0.8, seed=2)
    r = run_schedule("optp", 6, random_schedule(cfg),
                     latency=SeededLatency(2))
    writes = list(r.history.writes())
    co = r.history.causal_order

    m = benchmark(co.precedes_matrix, writes)
    assert m.shape == (len(writes), len(writes))


def test_bench_q4_end_to_end_run(benchmark):
    """A full mid-size verified simulation, the harness's unit of work."""
    from repro.analysis import check_run
    from repro.sim import SeededLatency, run_schedule
    from repro.workloads import WorkloadConfig, random_schedule

    cfg = WorkloadConfig(n_processes=8, ops_per_process=20,
                         write_fraction=0.6, seed=42)
    sched = random_schedule(cfg)

    def run():
        r = run_schedule("optp", 8, sched, latency=SeededLatency(42))
        return check_run(r)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.ok
