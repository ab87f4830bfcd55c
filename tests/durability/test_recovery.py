"""Recovery unit tests: RecoveryError triage fields, ``lose_tail``
mutation, and the DurableLog snapshot-fold bookkeeping.

The end-to-end recovery claim lives in test_crash_equivalence.py; this
file pins the building blocks an operator (or the mutation self-check)
leans on when recovery does *not* go cleanly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.operations import WriteId
from repro.sim.cluster import _resolve_factory
from repro.durability import (
    DurableLog,
    RecoveryError,
    decode_snapshot,
    encode_read_record,
    encode_snapshot,
    encode_write_record,
    rebuild_node,
    restore_node,
    snapshot_node,
)


def _optp():
    return _resolve_factory("optp")


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
            rebuild_node(_optp(), 0, 2, None, [b"\xff garbage"])
        assert exc.value.wal_records == 1
        assert "replay failed during recovery" in str(exc.value)

    def test_non_snapshot_protocol_rejected(self):
        class NoSnap:
            supports_snapshot = False

            def __init__(self, process_id, n_processes):
                pass

        with pytest.raises(RecoveryError, match="does not support"):
            rebuild_node(NoSnap, 0, 2, None, [])


class TestLoseTail:
    """``lose_tail`` is the injectable BrokenRecovery bug: the rebuilt
    node must demonstrably *forget* the dropped suffix."""

    def _bodies(self, values):
        return [encode_write_record(float(i), "x", v)
                for i, v in enumerate(values)]

    def test_tail_dropped(self):
        bodies = self._bodies(["a", "b", "c"])
        whole = rebuild_node(_optp(), 0, 2, None, bodies)
        broken = rebuild_node(_optp(), 0, 2, None, bodies, lose_tail=1)
        assert whole.protocol.writes_issued == 3
        assert broken.protocol.writes_issued == 2
        assert whole.do_read("x")[0] == "c"
        assert broken.do_read("x")[0] == "b"

    def test_lose_more_than_log_is_empty_replay(self):
        node = rebuild_node(_optp(), 0, 2, None,
                            self._bodies(["a"]), lose_tail=5)
        assert node.protocol.writes_issued == 0


class TestDurableLog:
    def _node(self):
        # a throwaway live node to snapshot during folds
        return rebuild_node(_optp(), 0, 2, None, [])

    def test_fold_cadence(self):
        log = DurableLog(snap_every=2)
        node = self._node()
        for i in range(5):
            rec = encode_read_record(float(i), "x")
            node.do_read("x")
            log.append(rec, node)
        # folds at records 2 and 4; one record rides the WAL tail
        assert log.snap_seq == 4
        assert len(log.bodies) == 1
        assert log.snapshot is not None

    def test_no_fold_when_disabled(self):
        log = DurableLog(snap_every=0)
        node = self._node()
        for i in range(5):
            log.append(encode_read_record(float(i), "x"), node)
        assert log.snapshot is None
        assert log.snap_seq == 0
        assert len(log.bodies) == 5

    def test_clone_shares_bytes_copies_spine(self):
        log = DurableLog(snap_every=0)
        node = self._node()
        log.append(encode_read_record(0.0, "x"), node)
        twin = log.clone()
        assert twin.bodies == log.bodies
        assert twin.bodies is not log.bodies
        assert twin.bodies[0] is log.bodies[0]
        log.append(encode_read_record(1.0, "x"), node)
        assert len(twin.bodies) == 1

    def test_rebuild_round_trip(self):
        log = DurableLog(snap_every=2)
        live = rebuild_node(_optp(), 0, 2, None, [])
        for i, v in enumerate(["a", "b", "c"]):
            live.do_write("x", v)
            log.append(encode_write_record(float(i), "x", v), live)
        back = log.rebuild(_optp(), 0, 2)
        assert back.protocol.debug_state() == live.protocol.debug_state()
        assert back.do_read("x")[0] == "c"


class TestNodeSnapshotDoc:
    def test_round_trip_through_document(self):
        live = rebuild_node(_optp(), 0, 2, None, [])
        live.do_write("x", "a")
        live.do_read("x")
        doc = snapshot_node(live)
        fresh = rebuild_node(_optp(), 0, 2, None, [])
        restore_node(fresh, doc)
        assert fresh.protocol.debug_state() == live.protocol.debug_state()
        assert fresh.do_read("x")[0] == "a"


class TestSeenPacking:
    """The dedup guard in a snapshot: per process, a contiguous prefix
    length plus the sorted ids beyond a gap."""

    @staticmethod
    def _node_with_seen(wids):
        node = rebuild_node(_optp(), 0, 3, None, [], dedup=True)
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
