"""Recovery unit tests: RecoveryError triage fields, the one recovery
routine (:func:`repro.durability.recover_node`), the ``lose_tail``
mutation, and the model checker's in-memory snapshot + WAL, which holds
the served snapshot document.

The end-to-end recovery claim lives in test_crash_equivalence.py; this
file pins the building blocks an operator (or the mutation self-check)
leans on when recovery does *not* go cleanly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mck.cluster import ControlledCluster
from repro.mck.faults import FaultSpec
from repro.mck.workloads import MckWorkload
from repro.model.operations import WriteId
from repro.sim.cluster import _resolve_factory
from repro.sim.node import Node
from repro.sim.trace import NullTrace
from repro.workloads.ops import ReadOp, WriteOp
from repro.durability import (
    RecoveryError,
    decode_snapshot,
    encode_read_record,
    encode_snapshot,
    encode_write_record,
    rebuild_node,
    recover_node,
    restore_node,
    snapshot_document,
    snapshot_node,
)

#: the keys of the snapshot a served replica writes
SERVED_KEYS = {"node", "applied", "t", "sent", "wal_records"}


def _optp():
    return _resolve_factory("optp")


def _node(protocol="optp", n=2, *, dedup=False):
    """A fresh node that records nothing and sends nothing."""
    return Node(_resolve_factory(protocol)(0, n), NullTrace(n),
                clock=lambda: 0.0, dispatch=lambda sender, outgoing: None,
                dedup=dedup)


def _writes(values):
    return [encode_write_record(float(i), "x", v)
            for i, v in enumerate(values)]


def _cluster(scripts, *, snap_every=0, lose_tail=0):
    """A crash-mode checker cluster over hand-written scripts."""
    workload = MckWorkload("unit", tuple(tuple(s) for s in scripts))
    return ControlledCluster("optp", workload, faults=FaultSpec(
        crash=1, snap_every=snap_every, wal_lose_tail=lose_tail))


def _run_ops(cluster, p, count):
    for _ in range(count):
        cluster.execute(("op", p))


class TestRecoveryError:
    def test_message_is_self_contained(self):
        err = RecoveryError(
            "serving-layer recovery failed",
            snapshot_seq=7,
            wal_records=12,
            wal_tail_bytes=3,
            detail="ValueError('boom')",
        )
        text = str(err)
        assert "serving-layer recovery failed" in text
        assert "snapshot covers 7 records" in text
        assert "12 WAL records replayable" in text
        assert "3 torn tail bytes" in text
        assert "boom" in text

    def test_structured_fields(self):
        err = RecoveryError("r", snapshot_seq=1, wal_records=2,
                            wal_tail_bytes=0)
        assert err.snapshot_seq == 1
        assert err.wal_records == 2
        assert err.wal_tail_bytes == 0
        assert err.journal_tail == []

    def test_optional_fields_omitted_from_message(self):
        assert str(RecoveryError("just this")) == "just this"

    def test_undecodable_record_wraps_to_recovery_error(self):
        with pytest.raises(RecoveryError) as exc:
            recover_node(_node(), None, [b"\xff garbage"], [],
                         tail_bytes=5)
        assert exc.value.wal_records == 1
        assert exc.value.wal_tail_bytes == 5
        assert "replay failed during recovery" in str(exc.value)

    def test_non_snapshot_protocol_rejected(self):
        snapshot = encode_snapshot(snapshot_document(_node(), 0.0, [], 0))
        with pytest.raises(RecoveryError, match="does not support"):
            recover_node(_node("ws-receiver"), snapshot, [], [])


class TestRecoverNode:
    def test_whole_wal_replay_returns_the_last_time(self):
        node = _node()
        pinned = []
        assert recover_node(node, None, _writes("abc"), [],
                            pin=pinned.append) == 2.0
        assert pinned == [0.0, 1.0, 2.0]
        assert node.protocol.writes_issued == 3
        assert node.do_read("x")[0] == "c"

    def test_snapshot_skips_the_records_it_covers(self):
        bodies = _writes("abc")
        live = _node()
        recover_node(live, None, bodies[:2], [])
        snapshot = encode_snapshot(snapshot_document(
            live, 1.5, [b"first", b"second"], 2))
        sent = []
        back = _node()
        assert recover_node(back, snapshot, bodies, sent) == 2.0
        assert back.protocol.writes_issued == 3
        assert back.do_read("x")[0] == "c"
        # the snapshot's sent comes before anything replay appends
        assert sent == [b"first", b"second"]

    def test_snapshot_time_when_nothing_follows(self):
        live = _node()
        recover_node(live, None, _writes("a"), [])
        snapshot = encode_snapshot(snapshot_document(live, 4.25, [], 1))
        assert recover_node(_node(), snapshot, _writes("a"), []) == 4.25

    def test_rebuild_node_is_a_replay_only_node(self):
        node = rebuild_node(_optp(), 0, 2, None, _writes("ab"), dedup=True)
        assert node.dedup
        assert node.do_read("x")[0] == "b"
        assert not node.trace.recording


class TestLoseTail:
    """``losetail:N`` is the injectable BrokenRecovery bug: the rebuilt
    node must demonstrably *forget* the dropped suffix."""

    SCRIPTS = [[WriteOp("x", "a"), WriteOp("x", "b"), WriteOp("x", "c")],
               []]

    def _recovered(self, lose_tail):
        cluster = _cluster(self.SCRIPTS, lose_tail=lose_tail)
        _run_ops(cluster, 0, 3)
        cluster.execute(("crash", 0))
        cluster.execute(("recover", 0))
        return cluster.nodes[0]

    def test_tail_dropped(self):
        whole = self._recovered(0)
        broken = self._recovered(1)
        assert whole.protocol.writes_issued == 3
        assert broken.protocol.writes_issued == 2
        assert whole.do_read("x")[0] == "c"
        assert broken.do_read("x")[0] == "b"

    def test_lose_more_than_log_is_empty_replay(self):
        assert self._recovered(5).protocol.writes_issued == 0


class TestDurableLog:
    """The checker's in-memory durable state per process:
    ``(snapshot bytes, records covered, the whole WAL)``."""

    READS = [[ReadOp("x")] * 5, []]

    def test_fold_cadence(self):
        cluster = _cluster(self.READS, snap_every=2)
        _run_ops(cluster, 0, 5)
        snapshot, covered, wal = cluster._durable[0]
        # folds at records 2 and 4; one record rides past the snapshot,
        # and the WAL keeps all five, as a served replica's does
        assert covered == 4
        assert len(wal) == 5
        assert snapshot is not None

    def test_no_fold_when_disabled(self):
        cluster = _cluster(self.READS, snap_every=0)
        _run_ops(cluster, 0, 5)
        snapshot, covered, wal = cluster._durable[0]
        assert snapshot is None
        assert covered == 0
        assert len(wal) == 5

    def test_clone_shares_bytes_copies_spine(self):
        cluster = _cluster(self.READS, snap_every=0)
        _run_ops(cluster, 0, 1)
        twin = cluster.clone()
        assert twin._durable[0][2][0] is cluster._durable[0][2][0]
        _run_ops(cluster, 0, 1)
        assert len(twin._durable[0][2]) == 1
        assert len(cluster._durable[0][2]) == 2

    def test_rebuild_round_trip(self):
        cluster = _cluster([[WriteOp("x", v) for v in "abc"], []],
                           snap_every=2)
        _run_ops(cluster, 0, 3)
        live = cluster.nodes[0].protocol.debug_state()
        sent = list(cluster._sent[0])
        cluster.execute(("crash", 0))
        cluster.execute(("recover", 0))
        assert cluster.nodes[0].protocol.debug_state() == live
        assert cluster.nodes[0].do_read("x")[0] == "c"
        # the snapshot's two bodies, then the replayed third write's
        assert cluster._sent[0] == sent
        assert len(sent) == 3

    def test_snapshot_is_the_served_document(self):
        cluster = _cluster([[WriteOp("x", v) for v in "abc"], []],
                           snap_every=2)
        _run_ops(cluster, 0, 3)
        snapshot, covered, wal = cluster._durable[0]
        doc = decode_snapshot(snapshot)
        assert set(doc) == SERVED_KEYS
        assert doc["wal_records"] == covered == 2
        assert list(doc["applied"]) == [2, 0]
        assert len(doc["sent"]) == 2

    def test_served_replica_writes_the_same_keys(self, tmp_path):
        from repro import durability as dur
        from repro.serve.server import ReplicaServer
        from repro.serve.shard import ClusterSpec

        spec = ClusterSpec.local_uds(tmp_path, "optp", 1, 2)
        server = ReplicaServer(spec, 0, 0, wal_dir=tmp_path / "wal",
                               snapshot_every=1)
        server.node.do_write("x", "a")
        server._unsnapped = 1
        server._maybe_snapshot()
        server._wal.close()
        raw = dur.read_framed_file(tmp_path / "wal" / "node-g0n0.snap")
        assert set(decode_snapshot(raw)) == SERVED_KEYS

    def test_tampered_applied_fails_the_recover_transition(self):
        cluster = _cluster([[WriteOp("x", v) for v in "abc"], []],
                           snap_every=2)
        _run_ops(cluster, 0, 3)
        snapshot, covered, wal = cluster._durable[0]
        doc = decode_snapshot(snapshot)
        doc["applied"] = [7, 0]
        cluster._durable[0] = (encode_snapshot(doc), covered, wal)
        cluster.execute(("crash", 0))
        with pytest.raises(RecoveryError) as exc:
            cluster.execute(("recover", 0))
        assert "applied vector disagrees" in str(exc.value)
        assert "applied [7, 0] != progress [2, 0]" in str(exc.value)


class TestNodeSnapshotDoc:
    def test_round_trip_through_document(self):
        live = _node()
        live.do_write("x", "a")
        live.do_read("x")
        doc = snapshot_node(live)
        fresh = _node()
        restore_node(fresh, doc)
        assert fresh.protocol.debug_state() == live.protocol.debug_state()
        assert fresh.do_read("x")[0] == "a"


class TestSeenPacking:
    """The dedup guard in a snapshot: per process, a contiguous prefix
    length plus the sorted ids beyond a gap."""

    @staticmethod
    def _node_with_seen(wids):
        node = _node(n=3, dedup=True)
        node._seen_updates.update(wids)
        return node

    @given(st.sets(st.builds(WriteId, st.integers(0, 3), st.integers(1, 40)),
                   max_size=60),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_order_independence(self, wids, rng):
        doc = snapshot_node(self._node_with_seen(wids))
        # through the file format, as recovery reads it
        doc = decode_snapshot(encode_snapshot(doc))
        fresh = self._node_with_seen([WriteId(3, 99)])
        restore_node(fresh, doc)
        assert fresh._seen_updates == wids
        # the document is a function of the set, not of how it was built
        shuffled = sorted(wids, key=lambda _: rng.random())
        assert snapshot_node(self._node_with_seen(shuffled))["seen"] \
            == doc["seen"]
        for process, prefix, stragglers in doc["seen"]:
            assert all(q > prefix + 1 for q in stragglers)
            assert list(stragglers) == sorted(set(stragglers))

    def test_fifo_delivery_needs_no_stragglers(self):
        wids = [WriteId(p, q) for p in (1, 2) for q in range(1, 5001)]
        seen = snapshot_node(self._node_with_seen(wids))["seen"]
        assert seen == [(1, 5000, ()), (2, 5000, ())]

    def test_gap_keeps_the_ids_past_it(self):
        wids = [WriteId(1, q) for q in (1, 2, 4, 7)] + [WriteId(2, 3)]
        seen = snapshot_node(self._node_with_seen(wids))["seen"]
        assert seen == [(1, 2, (4, 7)), (2, 0, (3,))]

    def test_list_of_write_ids_still_restores(self):
        """The shape snapshots had before the packing (sorted ids)."""
        wids = [WriteId(1, 1), WriteId(1, 3), WriteId(2, 1)]
        doc = snapshot_node(self._node_with_seen([]))
        doc["seen"] = wids
        fresh = self._node_with_seen([])
        restore_node(fresh, decode_snapshot(encode_snapshot(doc)))
        assert fresh._seen_updates == set(wids)
