"""Unit + substrate tests for the totally-ordered sequencer baseline."""

import pytest

from repro.analysis import check_run
from repro.model.operations import BOTTOM, WriteId
from repro.core.base import BROADCAST, ControlMessage, Disposition
from repro.protocols.sequencer import (
    GSN_KEY,
    SEQUENCER,
    WREQ_KIND,
    SequencerProtocol,
)
from repro.sim import ConstantLatency, SeededLatency, run_schedule
from repro.workloads import (
    Schedule,
    ScheduledOp,
    WorkloadConfig,
    WriteOp,
    random_schedule,
)


def make(n=3):
    return [SequencerProtocol(i, n) for i in range(n)]


class TestWriterSide:
    def test_non_sequencer_write_defers_local_apply(self):
        _, p1, _ = make()
        out = p1.write("x", 1)
        assert out.local_apply is False
        assert len(out.outgoing) == 1
        assert out.outgoing[0].dest == SEQUENCER
        assert out.outgoing[0].message.kind == WREQ_KIND
        # the ordered replica is untouched...
        assert p1.store_get("x") == (BOTTOM, None)

    def test_read_own_pending_write(self):
        """Store-buffer forwarding: Definition 1 requires a process to
        see its own program-order writes."""
        _, p1, _ = make()
        p1.write("x", 42)
        r = p1.read("x")
        assert r.value == 42 and r.read_from == WriteId(1, 1)

    def test_pending_cleared_when_stamped_copy_returns(self):
        p0, p1, _ = make()
        out = p1.write("x", 42)
        (req,) = [o.message for o in out.outgoing]
        (stamped,) = [o.message for o in p0.on_control(req)]
        assert p1.classify(stamped) is Disposition.APPLY
        p1.apply_update(stamped)
        assert p1.pending_own == {}
        assert p1.store_get("x") == (42, WriteId(1, 1))

    def test_sequencer_own_write_applies_immediately(self):
        p0, _, _ = make()
        out = p0.write("x", 7)
        assert out.local_apply is True
        assert p0.store_get("x") == (7, WriteId(0, 1))
        (o,) = out.outgoing
        assert o.dest == BROADCAST
        assert o.message.payload[GSN_KEY] == 0


class TestSequencerSide:
    def test_stamps_in_arrival_order(self):
        p0 = SequencerProtocol(0, 3)
        req1 = SequencerProtocol(1, 3).write("x", 1).outgoing[0].message
        req2 = SequencerProtocol(2, 3).write("y", 2).outgoing[0].message
        (u1,) = [o.message for o in p0.on_control(req1)]
        (u2,) = [o.message for o in p0.on_control(req2)]
        assert u1.payload[GSN_KEY] == 0 and u2.payload[GSN_KEY] == 1

    def test_same_sender_gap_parked(self):
        """Requests overtaking each other on a non-FIFO channel must be
        stamped in issue (->po) order."""
        p0 = SequencerProtocol(0, 3)
        writer = SequencerProtocol(1, 3)
        req1 = writer.write("x", 1).outgoing[0].message
        req2 = writer.write("x", 2).outgoing[0].message
        assert p0.on_control(req2) == ()  # parked
        out = list(p0.on_control(req1))
        gsns = [o.message.payload[GSN_KEY] for o in out]
        wids = [o.message.wid for o in out]
        assert gsns == [0, 1]
        assert wids == [WriteId(1, 1), WriteId(1, 2)]

    def test_non_sequencer_rejects_requests(self):
        p1 = SequencerProtocol(1, 3)
        req = SequencerProtocol(2, 3).write("x", 1).outgoing[0].message
        with pytest.raises(AssertionError):
            p1.on_control(req)

    def test_unknown_control_kind(self):
        with pytest.raises(ValueError):
            SequencerProtocol(0, 2).on_control(
                ControlMessage(sender=1, kind="bogus")
            )


class TestReceiverSide:
    def test_applies_in_gsn_order(self):
        p0 = SequencerProtocol(0, 3)
        w1 = SequencerProtocol(1, 3)
        u1 = p0.on_control(w1.write("x", 1).outgoing[0].message)[0].message
        u2 = p0.on_control(w1.write("y", 2).outgoing[0].message)[0].message
        p2 = SequencerProtocol(2, 3)
        assert p2.classify(u2) is Disposition.BUFFER
        assert p2.classify(u1) is Disposition.APPLY
        p2.apply_update(u1)
        assert p2.classify(u2) is Disposition.APPLY


class TestOnSubstrate:
    def test_verified_runs(self):
        for seed in range(3):
            cfg = WorkloadConfig(n_processes=4, ops_per_process=12,
                                 write_fraction=0.7, seed=seed)
            r = run_schedule("sequencer", 4, random_schedule(cfg),
                             latency=SeededLatency(seed, dist="exponential",
                                                   mean=2.0))
            report = check_run(r)
            assert report.ok, report.summary()

    def test_liveness_including_writer_applies(self):
        sched = Schedule.of([
            ScheduledOp(0.0, 1, WriteOp("x", 1)),
            ScheduledOp(0.5, 2, WriteOp("y", 2)),
            ScheduledOp(1.0, 0, WriteOp("z", 3)),
        ])
        r = run_schedule("sequencer", 3, sched, latency=ConstantLatency(1.0))
        for wid in r.trace.writes_issued():
            for k in range(3):
                assert r.trace.apply_event(k, wid) is not None, (wid, k)

    def test_total_order_identical_everywhere(self):
        cfg = WorkloadConfig(n_processes=4, ops_per_process=10,
                             write_fraction=1.0, seed=5)
        r = run_schedule("sequencer", 4, random_schedule(cfg),
                         latency=SeededLatency(5, dist="exponential", mean=2.0))
        orders = [r.trace.apply_order(k) for k in range(4)]
        assert all(o == orders[0] for o in orders[1:])
        assert r.converged()

    def test_costs_more_delays_than_optp(self):
        """The consistency-spectrum claim of the paper's introduction."""
        totals = {"sequencer": 0, "optp": 0}
        for seed in range(3):
            cfg = WorkloadConfig(n_processes=5, ops_per_process=12,
                                 write_fraction=0.8, seed=seed)
            sched = random_schedule(cfg)
            for proto in totals:
                r = run_schedule(proto, 5, sched,
                                 latency=SeededLatency(seed, dist="exponential",
                                                       mean=2.0))
                totals[proto] += r.write_delays
        assert totals["sequencer"] > totals["optp"]
