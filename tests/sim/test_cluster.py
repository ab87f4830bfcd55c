"""Integration tests: protocols running on the simulated substrate."""

import pytest

from repro.model.legality import is_causally_consistent
from repro.model.operations import WriteId
from repro.protocols import PROTOCOLS
from repro.sim import (
    ConstantLatency,
    EngineLimitError,
    EventKind,
    MatrixLatency,
    ScriptedLatency,
    SeededLatency,
    SimCluster,
    run_programs,
    run_schedule,
)
from repro.sim.latency import message_key
from repro.core.base import UpdateMessage
from repro.workloads.ops import (
    Program,
    ReadOp,
    ReadStep,
    Schedule,
    ScheduledOp,
    WaitReadStep,
    WriteOp,
    WriteStep,
)

ALL_PROTOCOLS = ["optp", "anbkh", "ws-receiver", "jimenez-token"]
CLASS_P = ["optp", "anbkh"]


def simple_schedule():
    return Schedule.of(
        [
            ScheduledOp(0.0, 0, WriteOp("x", "a")),
            ScheduledOp(2.0, 1, ReadOp("x")),
            ScheduledOp(2.5, 1, WriteOp("y", "b")),
            ScheduledOp(5.0, 2, ReadOp("y")),
        ]
    )


class TestBasicRuns:
    @pytest.mark.parametrize("proto", ALL_PROTOCOLS)
    def test_run_completes_and_history_consistent(self, proto):
        r = run_schedule(proto, 3, simple_schedule(), latency=SeededLatency(1))
        assert r.writes_issued == 2
        assert is_causally_consistent(r.history)

    @pytest.mark.parametrize("proto", CLASS_P)
    def test_class_p_liveness(self, proto):
        """Every write applied at every process (Theorem 5)."""
        r = run_schedule(proto, 3, simple_schedule(), latency=SeededLatency(1))
        for wid in r.trace.writes_issued():
            for k in range(3):
                assert r.trace.apply_event(k, wid) is not None, (wid, k)

    @pytest.mark.parametrize("proto", ALL_PROTOCOLS)
    def test_deterministic_replay(self, proto):
        r1 = run_schedule(proto, 3, simple_schedule(), latency=SeededLatency(5))
        r2 = run_schedule(proto, 3, simple_schedule(), latency=SeededLatency(5))
        assert [str(e) for e in r1.trace.events] == [str(e) for e in r2.trace.events]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            SimCluster("nope", 3)

    def test_single_use(self):
        c = SimCluster("optp", 2)
        c.run_schedule(Schedule.of([ScheduledOp(0.0, 0, WriteOp("x", 1))]))
        with pytest.raises(RuntimeError, match="single-use"):
            c.run_schedule(Schedule.of([ScheduledOp(0.0, 0, WriteOp("x", 1))]))

    def test_schedule_process_range_checked(self):
        with pytest.raises(ValueError, match="references process"):
            SimCluster("optp", 2).run_schedule(
                Schedule.of([ScheduledOp(0.0, 5, WriteOp("x", 1))])
            )

    def test_empty_schedule(self):
        r = run_schedule("optp", 2, Schedule.of([]))
        assert len(r.trace) == 0 and r.writes_issued == 0


class TestH1ClosedLoop:
    """Reproduce the paper's Example 1 history with a closed-loop workload."""

    def programs(self):
        return [
            Program.of(WriteStep("x1", "a"), WriteStep("x1", "c", delay=0.5)),
            Program.of(WaitReadStep("x1", "a", poll=0.3), WriteStep("x2", "b")),
            Program.of(WaitReadStep("x2", "b", poll=0.3), WriteStep("x2", "d")),
        ]

    @pytest.mark.parametrize("proto", CLASS_P)
    def test_h1_emerges(self, proto):
        r = run_programs(proto, 3, self.programs(), latency=ConstantLatency(1.0))
        assert is_causally_consistent(r.history)
        writes = {w.value: w for w in r.history.writes()}
        assert set(writes) == {"a", "b", "c", "d"}
        co = r.history.causal_order
        assert co.precedes(writes["a"], writes["b"])
        assert co.precedes(writes["b"], writes["d"])

    def test_wait_read_gives_up(self):
        programs = [
            Program.of(WaitReadStep("never", 42, poll=0.1, max_polls=5)),
            Program.of(),
        ]
        with pytest.raises(RuntimeError, match="gave up"):
            run_programs("optp", 2, programs)

    def test_program_count_checked(self):
        with pytest.raises(ValueError, match="programs"):
            run_programs("optp", 3, [Program.of()])


class TestDelayBehaviour:
    def fig3_latency(self):
        """Force: at p2, message for b arrives before message for c."""
        return ScriptedLatency(
            {
                (("update", WriteId(0, 1)), 1): 1.0,   # a -> p1 fast
                (("update", WriteId(0, 1)), 2): 1.0,   # a -> p2 fast
                (("update", WriteId(0, 2)), 1): 1.0,   # c -> p1 fast
                (("update", WriteId(0, 2)), 2): 20.0,  # c -> p2 SLOW
                (("update", WriteId(1, 1)), 2): 1.0,   # b -> p2 fast
            },
            default=1.0,
        )

    def fig3_schedule(self):
        return Schedule.of(
            [
                ScheduledOp(0.0, 0, WriteOp("x1", "a")),
                ScheduledOp(0.5, 0, WriteOp("x1", "c")),
                ScheduledOp(3.0, 1, ReadOp("x1")),   # reads a (c applied too,
                ScheduledOp(3.5, 1, WriteOp("x2", "b")),  # but value is c...)
            ]
        )

    def test_anbkh_false_causality_vs_optp(self):
        """Under the Figure 3 arrival pattern ANBKH delays b at p2 and
        OptP does not."""
        # Figure 3's crux: p1 applies c *after* its read of a but
        # *before* writing b, so ANBKH's send vector for b counts c
        # although b ||co c.  c is sent at t=0.5; latency 2.8 lands it
        # at t=3.3, between the read (3.0) and the write (3.5).
        script = self.fig3_latency()
        script.script[(("update", WriteId(0, 2)), 1)] = 2.8
        sched = self.fig3_schedule()
        r_anbkh = run_schedule("anbkh", 3, sched, latency=script)
        r_optp = run_schedule("optp", 3, sched, latency=script)
        assert is_causally_consistent(r_anbkh.history)
        assert is_causally_consistent(r_optp.history)
        # ANBKH: b waits for c at p2 (false causality) -> 1 delay there.
        assert any(e.wid == WriteId(1, 1) for e in r_anbkh.trace.delayed(2))
        # OptP: b applies on arrival at p2.
        assert not any(e.wid == WriteId(1, 1) for e in r_optp.trace.delayed(2))
        assert r_optp.write_delays < r_anbkh.write_delays

    def test_delay_durations_positive(self):
        script = self.fig3_latency()
        script.script[(("update", WriteId(0, 2)), 1)] = 2.8
        r = run_schedule("anbkh", 3, self.fig3_schedule(), latency=script)
        durations = r.delay_durations()
        assert durations and all(d > 0 for d in durations)


class TestTokenProtocolOnSubstrate:
    def test_quiesces_with_pending_writes(self):
        """Writes issued after the token passed must still propagate."""
        sched = Schedule.of(
            [
                ScheduledOp(0.0, 1, WriteOp("x", "v1")),
                ScheduledOp(10.0, 2, WriteOp("y", "v2")),
            ]
        )
        r = run_schedule("jimenez-token", 3, sched, latency=ConstantLatency(1.0))
        # both writes eventually applied everywhere
        for wid in r.trace.writes_issued():
            for k in range(3):
                assert r.trace.apply_event(k, wid) is not None

    def test_suppression_on_substrate(self):
        """Back-to-back same-variable writes: earlier ones suppressed."""
        sched = Schedule.of(
            [
                ScheduledOp(0.0, 1, WriteOp("x", 1)),
                ScheduledOp(0.1, 1, WriteOp("x", 2)),
                ScheduledOp(0.2, 1, WriteOp("x", 3)),
            ]
        )
        r = run_schedule("jimenez-token", 3, sched, latency=ConstantLatency(1.0))
        assert r.stat_total("suppressed") == 2
        # only the last write reaches the other replicas
        for k in (0, 2):
            assert r.stores[k]["x"] == (3, WriteId(1, 3))
        assert r.trace.apply_event(0, WriteId(1, 1)) is None

    def test_converges(self):
        sched = Schedule.of(
            [ScheduledOp(float(k), k % 3, WriteOp(f"v{k % 2}", k)) for k in range(8)]
        )
        r = run_schedule("jimenez-token", 3, sched, latency=ConstantLatency(0.7))
        assert r.converged()


class TestRunResult:
    def test_summary_fields(self):
        r = run_schedule("optp", 3, simple_schedule())
        s = r.summary()
        assert "optp" in s and "writes=2" in s

    def test_converged_with_total_order(self):
        sched = Schedule.of(
            [
                ScheduledOp(0.0, 0, WriteOp("x", 1)),
                ScheduledOp(50.0, 1, WriteOp("x", 2)),  # after full propagation
            ]
        )
        r = run_schedule("optp", 2, sched, latency=ConstantLatency(1.0))
        assert r.converged()
        assert r.stores[0]["x"] == (2, WriteId(1, 1))

    def test_stat_total_empty_for_optp(self):
        r = run_schedule("optp", 2, simple_schedule().__class__.of(
            [ScheduledOp(0.0, 0, WriteOp("x", 1))]))
        assert r.stat_total("skipped") == 0


class TestWSReceiverOnSubstrate:
    def test_overwrite_skips_on_reordered_channel(self):
        """w(x)1 then w(x)2 with the first message delayed: the receiver
        applies the second immediately (skip) and discards the first on
        arrival; OptP on the same schedule must buffer."""
        script = ScriptedLatency(
            {
                (("update", WriteId(0, 1)), 1): 30.0,  # first write slow
                (("update", WriteId(0, 2)), 1): 1.0,   # second fast
            },
            default=1.0,
        )
        sched = Schedule.of(
            [
                ScheduledOp(0.0, 0, WriteOp("x", 1)),
                ScheduledOp(0.5, 0, WriteOp("x", 2)),
            ]
        )
        r_ws = run_schedule("ws-receiver", 2, sched, latency=script)
        r_optp = run_schedule("optp", 2, sched, latency=script)
        assert r_ws.write_delays == 0
        assert r_ws.stat_total("skipped") == 1
        assert r_ws.discards == 1
        assert r_optp.write_delays == 1
        # both end with the same final value
        assert r_ws.stores[1]["x"] == r_optp.stores[1]["x"] == (2, WriteId(0, 2))


class TestLedger:
    """Each node's quiescence ledger agrees with what the trace saw:
    ``writes`` are its WRITE events, ``remote_applies`` its APPLY
    events, ``deferred_applies`` the APPLY events of its own writes
    (sequencer), and a finished run is ``settled`` -- with partial
    replication's skipped applies credited by ``missing_applies``."""

    @staticmethod
    def _run(name):
        from repro.protocols import ReplicationMap, partial_factory
        from repro.workloads.generators import (
            WorkloadConfig,
            random_partial_schedule,
            random_schedule,
        )

        cfg = WorkloadConfig(n_processes=4, ops_per_process=12, seed=7)
        if name == "partial":
            rmap = ReplicationMap.round_robin(
                [f"x{i}" for i in range(cfg.n_variables)], cfg.n_processes, 2)
            factory = partial_factory(rmap)
            schedule = random_partial_schedule(cfg, rmap)
        else:
            factory = PROTOCOLS[name]
            schedule = random_schedule(cfg)
        cluster = SimCluster(factory, cfg.n_processes,
                             latency=SeededLatency(7, dist="exponential",
                                                   mean=2.0))
        return cluster, cluster.run_schedule(schedule)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS) + ["partial"])
    def test_ledger_matches_trace(self, name):
        from repro.sim.node import settled

        cluster, result = self._run(name)
        for node in cluster.nodes:
            events = result.trace.process_events(node.process_id)
            writes = [e for e in events if e.kind is EventKind.WRITE]
            applies = [e for e in events if e.kind is EventKind.APPLY]
            own = [e for e in applies if e.wid.process == node.process_id]
            assert node.writes == len(writes) > 0
            assert node.remote_applies == len(applies)
            assert node.deferred_applies == len(own)
        assert settled(cluster.nodes)
        if name == "sequencer":
            assert sum(n.deferred_applies for n in cluster.nodes) > 0
        if name == "partial":
            assert sum(n.protocol.missing_applies() for n in cluster.nodes) > 0


class TestConcurrentWritesToOneKey:
    """ROADMAP item 14(a): both servable protocols install every applied
    write, so two ``||co`` writes to one key leave replicas disagreeing
    forever.  Causal memory allows it; a KV store is expected not to.
    The xfail is strict, so the fix of item 14(b) must remove it."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 14: replicas diverge on concurrent writes to one "
        "key (stores settle on p1's, p0's and p1's write)"))
    @pytest.mark.parametrize("proto", CLASS_P)
    def test_stores_agree_at_quiescence(self, proto):
        cluster = SimCluster(proto, 3)
        cluster.run_schedule(Schedule.of([
            ScheduledOp(0.0, 0, WriteOp("x", "p0")),
            ScheduledOp(0.0, 1, WriteOp("x", "p1")),
        ]))
        finals = [node.protocol.store_get("x") for node in cluster.nodes]
        assert finals.count(finals[0]) == len(finals), finals
