"""Unit tests for the delivery scheduler subsystem
(:mod:`repro.sim.scheduler`): which scheduler a protocol gets, counting
wakeups, multi-key parking, dead-parking, and order parity with the
classify re-scan."""

import pytest

from repro.core.optp import OptPProtocol
from repro.protocols.anbkh import ANBKHProtocol
from repro.protocols.gossip import GossipOptPProtocol
from repro.protocols.jimenez import JimenezTokenProtocol
from repro.protocols.partial import PartialReplicationProtocol, ReplicationMap
from repro.protocols.sequencer import SequencerProtocol
from repro.protocols.ws_receiver import WSReceiverProtocol
from repro.sim.node import Node
from repro.sim.scheduler import CountingScheduler, RescanScheduler
from repro.sim.trace import Trace

from tests.oracle import hide_requirement


def make_node(proto):
    trace = Trace(proto.n_processes)
    node = Node(proto, trace, clock=lambda: 0.0,
                dispatch=lambda *a: None)
    return node, trace


def msg_from(sender_proto, var, value):
    return sender_proto.write(var, value).outgoing[0].message


class TestModeResolution:
    """The node picks the scheduler from what the protocol declares;
    nothing else selects it."""

    @pytest.mark.parametrize("proto_cls", [
        OptPProtocol, ANBKHProtocol, SequencerProtocol,
    ])
    def test_dep_enumerable_protocols_get_the_index(self, proto_cls):
        node, _ = make_node(proto_cls(1, 4))
        assert type(node.scheduler) is CountingScheduler
        # the same protocol with its requirement hidden is re-scanned
        hidden, _ = make_node(hide_requirement(proto_cls)(1, 4))
        assert type(hidden.scheduler) is RescanScheduler

    def test_partial_replication_gets_the_index(self):
        rmap = ReplicationMap.full(["x"], 4)
        node, _ = make_node(PartialReplicationProtocol(1, 4, rmap))
        assert type(node.scheduler) is CountingScheduler

    @pytest.mark.parametrize("proto_cls", [
        WSReceiverProtocol, JimenezTokenProtocol, GossipOptPProtocol,
    ])
    def test_non_enumerable_protocols_fall_back(self, proto_cls):
        p = proto_cls(1, 4)
        assert p.missing_deps(None) is None
        node, _ = make_node(p)
        assert type(node.scheduler) is RescanScheduler

    def test_indexed_scheduler_rejects_legacy_protocols(self):
        with pytest.raises(TypeError, match="binds no progress"):
            CountingScheduler(WSReceiverProtocol(0, 2))

    def test_node_exposes_resolved_mode(self):
        """A served node, a model-checked node and a simulated node are
        the same ``Node``: all three run OptP on the counting
        scheduler."""
        from repro.mck import MCK_WORKLOADS, ControlledCluster
        from repro.serve.server import ReplicaServer
        from repro.serve.shard import ClusterSpec
        from repro.sim import SimCluster

        simulated = SimCluster("optp", 3).nodes[0]
        checked = ControlledCluster("optp", MCK_WORKLOADS["pair"]).nodes[0]
        served = ReplicaServer(
            ClusterSpec.local_uds("unused", "optp", 1, 3), 0, 0).node
        for node in (simulated, checked, served):
            assert type(node.scheduler) is CountingScheduler
        rescanned, _ = make_node(WSReceiverProtocol(1, 3))
        assert type(rescanned.scheduler) is RescanScheduler


class TestIndexedWakeups:
    def test_single_sender_chain_wakes_each_message_once(self):
        """Reversed delivery of a same-sender chain: every buffered
        message has exactly one missing dependency (its predecessor),
        so each is woken exactly once -- the O(1)-per-apply claim."""
        depth = 50
        sender = OptPProtocol(0, 2)
        msgs = [msg_from(sender, "x", k) for k in range(depth + 1)]
        node, trace = make_node(OptPProtocol(1, 2))
        for m in reversed(msgs[1:]):
            node.receive(m)
        assert node.buffered_count == depth
        node.receive(msgs[0])
        assert node.buffered_count == 0
        assert node.scheduler.wakeups == depth
        assert [w.seq for w in trace.apply_order(1)] == list(range(1, depth + 2))

    def test_requirement_runs_once_per_receipt(self):
        """The wake key of an apply comes from the requirement the
        scheduler already holds -- partial replication rebuilds its
        receiver-specific row on every ``requirement`` call, so a
        second call per apply is a real cost."""
        rmap = ReplicationMap.full(["x"], 3)
        calls = []

        class Counted(PartialReplicationProtocol):
            def requirement(self, msg):
                calls.append(msg.wid)
                return super().requirement(msg)

        sender = PartialReplicationProtocol(0, 3, rmap)
        msgs = [msg_from(sender, "x", k) for k in range(8)]
        node, trace = make_node(Counted(1, 3, rmap))
        for m in reversed(msgs):
            node.receive(m)
        assert node.buffered_count == 0
        assert len(trace.apply_order(1)) == len(msgs)
        assert sorted(calls) == sorted(m.wid for m in msgs)

    def test_multi_dep_message_reparks_under_next_dep(self):
        """A write depending on two other senders is parked under both
        keys and woken once per dependency: the first wake leaves it
        blocked, the second applies it."""
        n = 4
        p0 = OptPProtocol(0, n)
        p1 = OptPProtocol(1, n)
        p2 = OptPProtocol(2, n)
        m_a = msg_from(p0, "a", 1)
        m_b = msg_from(p1, "b", 1)
        # p2 reads both, then writes: its message depends on both
        p2.apply_update(m_a)
        p2.read("a")
        p2.apply_update(m_b)
        p2.read("b")
        m_c = msg_from(p2, "c", 1)

        node, trace = make_node(OptPProtocol(3, n))
        node.receive(m_c)
        assert node.buffered_count == 1
        node.receive(m_a)   # wakes m_c once; still missing m_b
        assert node.buffered_count == 1
        node.receive(m_b)   # second wake applies it
        assert node.buffered_count == 0
        assert node.scheduler.wakeups == 2

    def test_duplicate_of_applied_write_is_dead_parked(self):
        """A duplicate whose predicate can never hold again is parked
        forever without being re-examined -- the re-scan's wedged
        buffer, minus the repeated re-classification."""
        sender = OptPProtocol(0, 2)
        m1 = msg_from(sender, "x", 1)
        node, _ = make_node(OptPProtocol(1, 2))
        node.receive(m1)
        assert node.buffered_count == 0
        node.receive(m1)            # duplicate: BUFFER, no future deps
        assert node.buffered_count == 1
        assert node.scheduler.dead_parked == 1
        # further traffic never wakes it
        node.receive(msg_from(sender, "x", 2))
        assert node.buffered_count == 1
        assert node.pending == [m1]

    def test_sequencer_gap_waits_on_stamp_order(self):
        seq = SequencerProtocol(0, 3)
        m0 = seq._stamp_and_broadcast(seq.next_wid(), "x", 0)[0].message
        m1 = seq._stamp_and_broadcast(seq.next_wid(), "x", 1)[0].message
        m2 = seq._stamp_and_broadcast(seq.next_wid(), "x", 2)[0].message
        node, trace = make_node(SequencerProtocol(1, 3))
        node.receive(m2)
        node.receive(m1)
        assert node.buffered_count == 2
        node.receive(m0)
        assert node.buffered_count == 0
        assert trace.apply_order(1) == [m0.wid, m1.wid, m2.wid]

    def test_crash_clears_the_index(self):
        sender = OptPProtocol(0, 2)
        msg_from(sender, "x", 1)          # never delivered
        m2 = msg_from(sender, "x", 2)
        node, _ = make_node(OptPProtocol(1, 2))
        node.receive(m2)
        assert node.buffered_count == 1
        node.crash()
        assert node.buffered_count == 0
        assert node.pending == []


class TestOrderParity:
    def test_repark_preserves_buffer_order(self):
        """M1 (two deps) buffered before M2 (one shared dep): when the
        shared dep fires last, both paths apply M1 before M2 -- the
        counting path must not let M1's earlier wake push it behind
        M2."""
        n = 4

        def build():
            p0 = OptPProtocol(0, n)
            p1 = OptPProtocol(1, n)
            p2 = OptPProtocol(2, n)
            m_a = msg_from(p0, "a", 1)
            m_b = msg_from(p1, "b", 1)
            # m1 depends on both m_a and m_b; parks under m_a first
            p2.apply_update(m_a)
            p2.read("a")
            p2.apply_update(m_b)
            p2.read("b")
            m1 = msg_from(p2, "c", 1)
            # m2 (same-sender successor of m_b) depends on m_b only
            m2 = msg_from(p1, "d", 2)
            return m1, m2, m_a, m_b

        orders = {}
        for mode, factory in (("rescan", hide_requirement(OptPProtocol)),
                              ("counting", OptPProtocol)):
            m1, m2, m_a, m_b = build()
            node, trace = make_node(factory(3, n))
            node.receive(m1)    # parks under m_a's and m_b's keys
            node.receive(m2)    # parks under m_b's key
            node.receive(m_a)   # wakes m1 -> still missing m_b
            node.receive(m_b)   # enables both; m1 buffered first
            assert node.buffered_count == 0
            orders[mode] = trace.apply_order(3)
        assert orders["rescan"] == orders["counting"]
        # m1 (buffered first) applies before m2
        applied = orders["rescan"]
        assert applied.index(m1.wid) < applied.index(m2.wid)
