"""Integration tests for the asyncio runtime.

Timings here are real (scaled) wall-clock, so every assertion targets
run *properties* -- legality, safety, liveness -- never exact times.
"""

import asyncio

import pytest

from repro.core.optp import OptPProtocol
from repro.model.legality import is_causally_consistent
from repro.runtime import AsyncCluster, ClusterQuiesceError, run_programs_async
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.workloads.ops import Program, ReadStep, WaitReadStep, WriteStep

ALL_PROTOCOLS = ["optp", "anbkh", "ws-receiver", "jimenez-token",
                 "sequencer", "gossip-optp"]
FAST = dict(time_scale=0.002, quiesce_timeout=20.0)


class BlackHole(ConstantLatency):
    """Counts a send but never lets an update arrive in time."""

    def latency(self, s, d, m):
        return 10_000.0


class ApplyFails(OptPProtocol):
    """OptP whose apply step raises at p1: a protocol error inside a
    delivery."""

    def apply_update(self, msg):
        if self.process_id == 1:
            raise ZeroDivisionError("p1 cannot apply")
        super().apply_update(msg)


def h1_programs():
    # c trails a by 8 simulated units (>> the 0.3-unit poll) so p1's
    # wait reliably observes a before c overwrites it, even under real
    # event-loop jitter.
    return [
        Program.of(WriteStep("x1", "a"), WriteStep("x1", "c", delay=8.0)),
        Program.of(WaitReadStep("x1", "a", poll=0.3), WriteStep("x2", "b")),
        Program.of(WaitReadStep("x2", "b", poll=0.3), WriteStep("x2", "d")),
    ]


class TestAsyncRuns:
    @pytest.mark.parametrize("proto", ["optp", "anbkh"])
    def test_h1_on_real_concurrency(self, proto):
        r = run_programs_async(proto, 3, h1_programs(),
                               latency=ConstantLatency(1.0), **FAST)
        assert is_causally_consistent(r.history)
        assert r.writes_issued == 4
        for wid in r.trace.writes_issued():
            for k in range(3):
                assert r.trace.apply_event(k, wid) is not None

    @pytest.mark.parametrize("proto", ALL_PROTOCOLS)
    def test_random_latency_consistent(self, proto):
        programs = [
            Program.of(WriteStep("a", 1), WriteStep("b", 2, delay=0.2),
                       ReadStep("c", delay=0.2)),
            Program.of(ReadStep("a"), WriteStep("c", 3, delay=0.3)),
            Program.of(WriteStep("a", 4, delay=0.1), ReadStep("b", delay=0.5)),
        ]
        r = run_programs_async(proto, 3, programs,
                               latency=UniformLatency(0.2, 2.0, seed=11), **FAST)
        assert is_causally_consistent(r.history)

    def test_wait_read_gives_up(self):
        programs = [
            Program.of(WaitReadStep("never", 1, poll=0.05, max_polls=3)),
            Program.of(),
        ]
        with pytest.raises(RuntimeError, match="gave up"):
            run_programs_async("optp", 2, programs, **FAST)

    def test_program_count_checked(self):
        with pytest.raises(ValueError, match="programs"):
            run_programs_async("optp", 3, [Program.of()], **FAST)

    def test_single_use(self):
        cluster = AsyncCluster("optp", 1, **FAST)
        asyncio.run(cluster.run_programs([Program.of(WriteStep("x", 1))]))
        with pytest.raises(RuntimeError, match="single-use"):
            asyncio.run(cluster.run_programs([Program.of()]))

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncCluster("optp", 0)
        with pytest.raises(ValueError):
            AsyncCluster("optp", 2, time_scale=0)

    def test_quiesce_timeout_counts_from_the_programs_end(self):
        """Think time is the workload's, not the drain's: a program
        longer than ``quiesce_timeout`` still completes."""
        r = run_programs_async("optp", 2,
                               [Program.of(WriteStep("x", 1, delay=100.0)),
                                Program.of()],
                               time_scale=0.002, quiesce_timeout=0.05)
        assert r.remote_applies == 1

    def test_duration_reported_in_sim_units(self):
        r = run_programs_async("optp", 2,
                               [Program.of(WriteStep("x", 1)), Program.of()],
                               latency=ConstantLatency(1.0), **FAST)
        # at least one message hop of simulated length 1.0 must have elapsed
        assert r.duration >= 0.9


class TestShutdown:
    def test_no_pending_tasks_after_run(self):
        """Nothing the cluster started may still be alive when
        run_programs returns."""

        async def go():
            cluster = AsyncCluster("jimenez-token", 3, **FAST)
            before = {t for t in asyncio.all_tasks() if not t.done()}
            await cluster.run_programs([
                Program.of(WriteStep("x", 1)),
                Program.of(ReadStep("x", delay=0.2)),
                Program.of(),
            ])
            leaked = [
                t for t in asyncio.all_tasks()
                if not t.done() and t not in before
            ]
            assert leaked == []

        asyncio.run(go())

    def test_quiesce_timeout_carries_diagnostics(self):
        """A quiesce failure must be debuggable from the exception
        alone: per-node queue depths, expected vs. observed applies."""

        programs = [
            Program.of(WriteStep("x", 1)),
            Program.of(),
        ]
        with pytest.raises(ClusterQuiesceError) as exc_info:
            run_programs_async(
                "optp", 2, programs,
                latency=BlackHole(1.0),
                time_scale=0.002, quiesce_timeout=0.2,
            )
        err = exc_info.value
        assert isinstance(err, TimeoutError)  # backward compatible
        assert err.in_flight_updates == 1
        assert err.expected_applies == 1
        assert err.observed_applies == 0
        assert [e["node"] for e in err.per_node] == [0, 1]
        for entry in err.per_node:
            assert "buffered" in entry and "missing_applies" in entry
        assert "in_flight_updates=1" in str(err)
        assert "p0: buffered=" in str(err)


class TestProtocolErrors:
    """An exception inside a delivery, timer or program step is the
    run's outcome, raised as soon as it happens -- not a quiesce
    timeout with the error lost to the loop's handler."""

    def test_run_programs_raises_the_protocols_own_error(self):
        async def go():
            before = {t for t in asyncio.all_tasks() if not t.done()}
            loop = asyncio.get_running_loop()
            started = loop.time()
            cluster = AsyncCluster(ApplyFails, 2, time_scale=0.002,
                                   quiesce_timeout=30.0)
            with pytest.raises(ZeroDivisionError, match="p1 cannot apply"):
                await cluster.run_programs(
                    [Program.of(WriteStep("x", 1)), Program.of()])
            assert loop.time() - started < 5.0
            leaked = [t for t in asyncio.all_tasks()
                      if not t.done() and t not in before]
            assert leaked == []

        asyncio.run(go())

    def test_run_programs_async_raises_it_too(self):
        import time

        started = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="p1 cannot apply"):
            run_programs_async(ApplyFails, 3,
                               [Program.of(WriteStep("x", 1)), Program.of(),
                                Program.of()],
                               time_scale=0.002, quiesce_timeout=30.0)
        assert time.monotonic() - started < 5.0

    def test_no_open_loop_schedules(self):
        from repro.workloads.ops import Schedule

        with pytest.raises(TypeError, match="run_programs"):
            AsyncCluster("optp", 2).run_schedule(Schedule.of([]))
