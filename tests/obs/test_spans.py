"""Lifecycle-span tests: send -> receipt -> buffer(dep) -> apply.

The buffered interval of a span is the write delay of Definition 3;
these tests pin down the dependency attribution: each wait interval
carries the ``(process, seq)`` apply event the scheduler parked the
message under, and re-parking produces one interval per dependency.
"""

import pytest

from repro.core.optp import OptPProtocol
from repro.model.operations import WriteId
from repro.obs import InMemorySink, NULL_OBS, NullSink, Obs, WaitInterval
from repro.sim.cluster import run_schedule
from repro.sim.latency import ScriptedLatency
from repro.sim.node import Node
from repro.sim.trace import Trace
from repro.workloads.ops import Schedule, ScheduledOp, WriteOp


def reversed_chain(n=2, depth=3):
    sender = OptPProtocol(0, n)
    msgs = [sender.write("x", k).outgoing[0].message for k in range(depth)]
    msgs.reverse()
    return msgs


class TestObsHandle:
    def test_null_obs_disabled(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.spans is None

    def test_recording_enabled_with_spans(self):
        obs = Obs.recording()
        assert obs.enabled is True
        assert obs.spans == []

    def test_explicit_sink_enables(self):
        assert Obs(InMemorySink()).enabled is True
        assert Obs(NullSink()).enabled is False


class TestNodeSpans:
    def test_chain_waits_attribute_immediate_predecessor(self):
        """Reversed same-sender chain: OptP's ``->co`` summary names
        each write's immediate predecessor apply as the one missing
        dependency, so every buffered span carries exactly one wait."""
        obs = Obs.recording()
        trace = Trace(2)
        node = Node(OptPProtocol(1, 2), trace, clock=lambda: 0.0,
                    dispatch=lambda *a: None, obs=obs)
        for m in reversed_chain():
            node.receive(m)
        assert node.buffered_count == 0

        spans = {s.wid: s for s in obs.spans}
        assert set(spans) == {WriteId(0, s) for s in (1, 2, 3)}
        assert not spans[WriteId(0, 1)].buffered
        for seq in (2, 3):
            span = spans[WriteId(0, seq)]
            assert [w.dep for w in span.waits] == [(0, seq - 1)]
            assert span.released_by == (0, seq - 1)
            assert span.apply_time is not None

    def test_repark_produces_one_wait_per_dependency(self):
        """A write causally after writes from two *different* processes
        has two missing deps at a fresh receiver: its wait is charged
        to the first, it wakes when that applies and is re-parked under
        the second -- one wait interval per dependency, in wakeup
        order."""
        n = 4
        m0 = OptPProtocol(0, n).write("a", 1).outgoing[0].message
        m1 = OptPProtocol(1, n).write("b", 1).outgoing[0].message
        p2 = OptPProtocol(2, n)
        p2.apply_update(m0)
        p2.apply_update(m1)
        p2.read("a")  # read-from edges pull both writes into ->co
        p2.read("b")
        m2 = p2.write("c", 1).outgoing[0].message

        obs = Obs.recording()
        trace = Trace(n)
        node = Node(OptPProtocol(3, n), trace, clock=lambda: 0.0,
                    dispatch=lambda *a: None, obs=obs)
        for m in (m2, m0, m1):
            node.receive(m)
        assert node.buffered_count == 0

        [span] = [s for s in obs.spans if s.wid == m2.wid]
        assert [w.dep for w in span.waits] == [(0, 1), (1, 1)]
        assert all(w.end is not None for w in span.waits)
        assert span.released_by == (1, 1)
        assert span.apply_time is not None

    def test_duplicate_receipt_keeps_first_span(self):
        obs = Obs.recording()
        trace = Trace(2)
        node = Node(OptPProtocol(1, 2), trace, clock=lambda: 0.0,
                    dispatch=lambda *a: None, obs=obs)
        msg = OptPProtocol(0, 2).write("x", 1).outgoing[0].message
        node.receive(msg)
        node.receive(msg)
        assert len([s for s in obs.spans if s.wid == msg.wid]) == 1


class TestClusterSpans:
    def test_buffered_span_times_and_dep(self):
        """Two writes from p0; the first is delayed to t=10, so the
        second buffers at p1 from its receipt until w1's apply."""
        obs = Obs.recording()
        sched = Schedule.of([
            ScheduledOp(0.0, 0, WriteOp("x")),
            ScheduledOp(1.0, 0, WriteOp("y")),
        ])
        latency = ScriptedLatency(
            {(("update", WriteId(0, 1)), 1): 10.0}, default=1.0
        )
        result = run_schedule("optp", 2, sched, latency=latency, obs=obs)

        spans = {(s.process, s.wid): s for s in result.spans}
        w2 = spans[(1, WriteId(0, 2))]
        assert w2.sender == 0
        assert w2.variable == "y"
        assert w2.send_time == 1.0
        assert w2.receipt_time == 2.0
        assert w2.transit_time == 1.0
        assert w2.waits == [WaitInterval(start=2.0, dep=(0, 1), end=10.0)]
        assert w2.apply_time == 10.0
        assert w2.buffer_duration == pytest.approx(8.0)

        w1 = spans[(1, WriteId(0, 1))]
        assert not w1.buffered
        assert w1.buffer_duration == 0.0
        assert w1.receipt_time == 10.0

    def test_span_delays_match_trace_delays(self):
        """Span buffer accounting agrees with the trace's Definition-3
        delay events, one span wait-set per delayed (process, wid)."""
        obs = Obs.recording()
        sched = Schedule.of([
            ScheduledOp(0.0, 0, WriteOp("x")),
            ScheduledOp(1.0, 0, WriteOp("y")),
            ScheduledOp(2.0, 0, WriteOp("x")),
        ])
        latency = ScriptedLatency(
            {(("update", WriteId(0, 1)), 1): 20.0}, default=1.0
        )
        result = run_schedule("optp", 2, sched, latency=latency, obs=obs)

        delayed = {(ev.process, ev.wid) for ev in result.trace.delayed()}
        buffered = {(s.process, s.wid) for s in result.spans if s.buffered}
        assert buffered == delayed

        durations = sorted(
            s.buffer_duration for s in result.spans if s.buffered
        )
        assert durations == sorted(result.delay_durations())
