"""Unit tests for the Node substrate component (buffering, draining,
crash behaviour, out-of-band applies, dispatch plumbing)."""

import pytest

from repro.core.optp import OptPProtocol
from repro.model.operations import BOTTOM, WriteId
from repro.core.base import BROADCAST, Outgoing
from repro.sim.node import Node
from repro.sim.trace import EventKind, FlatTrace, NullTrace, Trace


def make_node(i=1, n=3, proto_cls=OptPProtocol, **kw):
    trace = Trace(n)
    sent = []
    now = [0.0]
    node = Node(
        proto_cls(i, n),
        trace,
        clock=lambda: now[0],
        dispatch=lambda sender, outgoing: sent.append((sender, list(outgoing))),
        **kw,
    )
    return node, trace, sent, now


def msg_from(sender_proto, var, value):
    return sender_proto.write(var, value).outgoing[0].message


class TestOperations:
    def test_write_records_write_and_send(self):
        node, trace, sent, _ = make_node()
        wid = node.do_write("x", 5)
        kinds = [ev.kind for ev in trace.process_events(1)]
        assert kinds == [EventKind.WRITE, EventKind.SEND]
        assert sent and sent[0][0] == 1
        assert wid == WriteId(1, 1)

    def test_write_generates_fresh_value(self):
        node, trace, _, _ = make_node()
        node.do_write("x")
        ev = trace.process_events(1)[0]
        assert ev.value == "v[p1#1]"

    def test_read_records_return(self):
        node, trace, _, _ = make_node()
        value = node.do_read("x")
        assert value is BOTTOM
        ev = trace.process_events(1)[0]
        assert ev.kind is EventKind.RETURN and ev.read_from is None


class TestBufferingAndDrain:
    def test_out_of_order_buffers_then_drains(self):
        node, trace, _, _ = make_node()
        sender = OptPProtocol(0, 3)
        m1 = msg_from(sender, "x", 1)
        m2 = msg_from(sender, "x", 2)
        m3 = msg_from(sender, "x", 3)
        node.receive(m3)
        node.receive(m2)
        assert node.buffered_count == 2
        assert len(trace.delayed(1)) == 2
        node.receive(m1)  # unblocks the whole chain
        assert node.buffered_count == 0
        assert trace.apply_order(1) == [WriteId(0, 1), WriteId(0, 2),
                                        WriteId(0, 3)]

    def test_drain_cascades_across_senders(self):
        """Applying one buffered message can unblock another sender's."""
        node, trace, _, _ = make_node(i=2)
        p0 = OptPProtocol(0, 3)
        p1 = OptPProtocol(1, 3)
        m_a = msg_from(p0, "x", "a")
        p1.apply_update(m_a)
        p1.read("x")
        m_b = msg_from(p1, "y", "b")
        node.receive(m_b)      # needs a: buffered
        assert node.buffered_count == 1
        node.receive(m_a)      # applies, then drain applies b
        assert node.buffered_count == 0
        assert trace.apply_order(2) == [WriteId(0, 1), WriteId(1, 1)]

    def test_discard_during_drain(self):
        """WS-receiver: a buffered message can flip to DISCARD while
        draining, when an also-buffered later same-variable write gets
        overwrite-applied first.

        Construction: p0 writes y then x; p1 (having read both) writes
        x again (the trigger).  The receiver gets trigger, then p0's x,
        then p0's y -- applying y drains the trigger via overwrite
        (skipping p0's x), which turns the still-buffered p0-x message
        into a discard."""
        from repro.protocols.ws_receiver import WSReceiverProtocol

        node, trace, _, _ = make_node(i=2, proto_cls=WSReceiverProtocol)
        p0 = WSReceiverProtocol(0, 3)
        p1 = WSReceiverProtocol(1, 3)
        m_y = msg_from(p0, "y", 1)
        m_x = msg_from(p0, "x", 2)
        p1.apply_update(m_y)
        p1.apply_update(m_x)
        p1.read("x")
        trigger = msg_from(p1, "x", 3)

        node.receive(trigger)   # buffered: p0's y (wrong var) missing
        node.receive(m_x)       # buffered: p0's y missing
        assert node.buffered_count == 2
        node.receive(m_y)       # applies; drain skip-applies trigger...
        assert node.buffered_count == 0
        # ...and m_x was discarded during that drain
        assert len(trace.discarded(2)) == 1
        assert trace.apply_event(2, WriteId(0, 2)) is None
        assert node.protocol.store_get("x") == (3, WriteId(1, 1))


class TestCrash:
    def test_crashed_node_ignores_everything(self):
        node, trace, sent, _ = make_node()
        sender = OptPProtocol(0, 3)
        m1 = msg_from(sender, "x", 1)
        node.crash()
        assert node.do_write("y", 1) is None
        assert node.do_read("x") is None
        node.receive(m1)
        assert len(trace.process_events(1)) == 0
        assert sent == []

    def test_crash_clears_buffer(self):
        node, _, _, _ = make_node()
        sender = OptPProtocol(0, 3)
        msg_from(sender, "x", 1)          # m1 never delivered
        m2 = msg_from(sender, "x", 2)
        node.receive(m2)
        assert node.buffered_count == 1
        node.crash()
        assert node.buffered_count == 0


class TestOutOfBandApplies:
    def test_recorder_routes_to_trace(self):
        from repro.protocols.jimenez import JimenezTokenProtocol
        from repro.core.base import ControlMessage
        from repro.protocols.jimenez import BATCH_KIND

        node, trace, _, _ = make_node(proto_cls=JimenezTokenProtocol)
        batch = ControlMessage(
            sender=0, kind=BATCH_KIND,
            payload={"batch_seq": 0, "writes": ((WriteId(0, 1), "x", 7),)},
        )
        node.receive(batch)
        ev = trace.apply_event(1, WriteId(0, 1))
        assert ev is not None and ev.value == 7

    def test_control_followups_dispatched(self):
        from repro.protocols.jimenez import JimenezTokenProtocol, TOKEN_KIND
        from repro.core.base import ControlMessage

        node, _, sent, _ = make_node(proto_cls=JimenezTokenProtocol)
        node.protocol.write("x", 1)
        token = ControlMessage(sender=0, kind=TOKEN_KIND,
                               payload={"batch_seq": 0})
        node.receive(token)
        assert sent, "token handling must emit batch + token"
        kinds = [o.message.kind for o in sent[0][1]]
        assert "batch" in kinds and "token" in kinds


class TestCallbacks:
    def test_on_write_and_on_apply_fire(self):
        """The node's own quiescence ledger (the callbacks it replaced
        are gone): a write counts, an apply-at-issue defers nothing,
        and a received update counts as an apply."""
        node = Node(
            OptPProtocol(1, 2),
            Trace(2),
            clock=lambda: 0.0,
            dispatch=lambda *a: None,
        )
        node.do_write("x", 1)
        assert (node.writes, node.deferred_applies, node.remote_applies) \
            == (1, 0, 0)
        sender = OptPProtocol(0, 2)
        node.receive(msg_from(sender, "y", 2))
        assert (node.writes, node.deferred_applies, node.remote_applies) \
            == (1, 0, 1)

    def test_state_snapshots_opt_in(self):
        node, trace, _, _ = make_node(record_state=True)
        node.do_write("x", 1)
        ev = trace.process_events(1)[0]
        assert ev.state is not None and "write_co" in ev.state
        node2, trace2, _, _ = make_node(record_state=False)
        node2.do_write("x", 1)
        assert trace2.process_events(1)[0].state is None


class _SilentTrace(NullTrace):
    """A non-recording trace that fails the test if anything calls it."""

    def record(self, *args, **kwargs):
        raise AssertionError("an event was built for a non-recording trace")

    record_compact = record


class TestNonRecordingTrace:
    """A node on a trace whose ``recording`` is False builds no event and
    reads no clock for one; the flag is read on every call, so a trace
    swapped in mid-run (recovery does it) records from the next event."""

    @staticmethod
    def silent_node(**kw):
        clock_reads = []
        node = Node(OptPProtocol(1, 3), _SilentTrace(3),
                    clock=lambda: clock_reads.append(1) or 0.0,
                    dispatch=lambda *a: None, dedup=True,
                    record_state=True, **kw)
        return node, clock_reads

    def test_the_flag(self):
        assert Trace.recording and FlatTrace.recording
        assert not NullTrace.recording and not _SilentTrace.recording

    def test_no_call_into_the_trace(self):
        node, clock_reads = self.silent_node()
        sender = OptPProtocol(0, 3)
        first, second, third = (msg_from(sender, "x", v) for v in (1, 2, 3))
        assert node.do_write("y", 1) == WriteId(1, 1)           # write
        assert node.do_read("y") == 1                           # read
        node.receive(first)                                     # in order
        node.receive(third)                                     # buffered
        assert node.buffered_count == 1
        node.receive(second)                                    # cascade
        assert node.buffered_count == 0
        node.receive(second)                                    # duplicate
        assert node.duplicates_dropped == 1
        assert node.protocol.progress == [3, 1, 0]
        assert node.do_read("x") == 3
        assert clock_reads == []

    def test_a_trace_swapped_in_records_from_the_next_event(self):
        node, _ = self.silent_node()
        sender = OptPProtocol(0, 3)
        node.receive(msg_from(sender, "x", 1))
        node.do_write("y", 1)
        node.trace = trace = Trace(3)
        node.do_write("y", 2)
        node.receive(msg_from(sender, "x", 2))
        assert [(ev.kind, ev.wid) for ev in trace.events] == [
            (EventKind.WRITE, WriteId(1, 2)), (EventKind.SEND, WriteId(1, 2)),
            (EventKind.RECEIPT, WriteId(0, 2)),
            (EventKind.APPLY, WriteId(0, 2))]
        node.trace = _SilentTrace(3)
        node.do_write("y", 3)
        assert len(trace.events) == 4
