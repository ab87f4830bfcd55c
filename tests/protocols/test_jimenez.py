"""Unit tests for the Jimenez token protocol (sender-side WS)."""

import pytest

from repro.model.operations import WriteId
from repro.core.base import BROADCAST, ControlMessage
from repro.protocols.jimenez import (
    BATCH_KIND,
    TOKEN_KIND,
    JimenezTokenProtocol,
)


def make(n=3):
    return [JimenezTokenProtocol(i, n) for i in range(n)]


def split_outgoing(outgoing):
    """Partition outgoing into (batches, tokens)."""
    batches = [o for o in outgoing if o.message.kind == BATCH_KIND]
    tokens = [o for o in outgoing if o.message.kind == TOKEN_KIND]
    return batches, tokens


class TestBootstrap:
    def test_p0_starts_token(self):
        p0, p1, p2 = make()
        out = list(p0.bootstrap())
        batches, tokens = split_outgoing(out)
        assert len(batches) == 1 and batches[0].dest == BROADCAST
        assert batches[0].message.payload["writes"] == ()
        assert len(tokens) == 1 and tokens[0].dest == 1
        assert tokens[0].message.payload["batch_seq"] == 1
        assert p1.bootstrap() == () and p2.bootstrap() == ()

    def test_single_process_no_token(self):
        p = JimenezTokenProtocol(0, 1)
        assert p.bootstrap() == ()
        p.write("x", 1)
        assert p.pending == {}
        assert p.store_get("x") == (1, WriteId(0, 1))


class TestWrites:
    def test_write_applies_locally_and_parks(self):
        p0 = JimenezTokenProtocol(0, 3)
        out = p0.write("x", 1)
        assert out.outgoing == ()
        assert p0.store_get("x") == (1, WriteId(0, 1))
        assert p0.pending == {"x": (WriteId(0, 1), 1)}

    def test_same_variable_suppression(self):
        p0 = JimenezTokenProtocol(0, 3)
        p0.write("x", 1)
        p0.write("x", 2)
        p0.write("x", 3)
        assert p0.suppressed == 2
        assert p0.pending == {"x": (WriteId(0, 3), 3)}
        assert p0.missing_applies() == 4  # 2 suppressed * (n-1)

    def test_pending_preserves_issue_order_of_survivors(self):
        p0 = JimenezTokenProtocol(0, 3)
        p0.write("x", 1)
        p0.write("y", 2)
        p0.write("x", 3)  # re-inserted after y
        assert list(p0.pending.keys()) == ["y", "x"]

    def test_read_returns_local(self):
        p0 = JimenezTokenProtocol(0, 3)
        p0.write("x", 1)
        assert p0.read("x").value == 1


class TestTokenFlow:
    def test_token_flushes_pending(self):
        p0, p1, _ = make()
        p1.write("x", 10)
        out = list(p1.on_control(ControlMessage(sender=0, kind=TOKEN_KIND,
                                                payload={"batch_seq": 0})))
        batches, tokens = split_outgoing(out)
        assert len(batches) == 1
        writes = batches[0].message.payload["writes"]
        assert writes == ((WriteId(1, 1), "x", 10),)
        assert p1.pending == {}
        assert tokens[0].dest == 2
        assert tokens[0].message.payload["batch_seq"] == 1

    def test_batches_apply_in_order(self):
        p2 = JimenezTokenProtocol(2, 3)
        applied = []
        p2.bind_recorder(lambda wid, var, val: applied.append((wid, var, val)))
        b0 = ControlMessage(sender=0, kind=BATCH_KIND,
                            payload={"batch_seq": 0,
                                     "writes": ((WriteId(0, 1), "x", 1),)})
        b1 = ControlMessage(sender=1, kind=BATCH_KIND,
                            payload={"batch_seq": 1,
                                     "writes": ((WriteId(1, 1), "y", 2),)})
        # out of order: b1 first -> buffered, counted as delayed
        p2.on_control(b1)
        assert applied == []
        assert p2.batch_delays == 1
        p2.on_control(b0)
        assert applied == [(WriteId(0, 1), "x", 1), (WriteId(1, 1), "y", 2)]
        assert p2.store_get("y") == (2, WriteId(1, 1))

    def test_own_batch_not_reapplied(self):
        p0 = JimenezTokenProtocol(0, 3)
        applied = []
        p0.bind_recorder(lambda *a: applied.append(a))
        p0.write("x", 1)
        p0.on_control(ControlMessage(sender=2, kind=TOKEN_KIND,
                                     payload={"batch_seq": 0}))
        assert applied == []  # own writes recorded at write time, not here
        assert p0.next_batch == 1

    def test_token_outruns_batch(self):
        """Token reaches p1 before p0's batch 0: p1 flushes batch 1 but
        holds it until batch 0 arrives."""
        p1 = JimenezTokenProtocol(1, 3)
        p1.write("y", 5)
        out = list(p1.on_control(ControlMessage(sender=0, kind=TOKEN_KIND,
                                                payload={"batch_seq": 1})))
        batches, tokens = split_outgoing(out)
        assert batches[0].message.payload["batch_seq"] == 1
        assert p1.next_batch == 0        # own batch buffered
        b0 = ControlMessage(sender=0, kind=BATCH_KIND,
                            payload={"batch_seq": 0, "writes": ()})
        p1.on_control(b0)
        assert p1.next_batch == 2        # drained through own batch

    def test_duplicate_batch_rejected(self):
        p2 = JimenezTokenProtocol(2, 3)
        b0 = ControlMessage(sender=0, kind=BATCH_KIND,
                            payload={"batch_seq": 0, "writes": ()})
        p2.on_control(b0)
        with pytest.raises(AssertionError):
            p2.on_control(b0)

    def test_unknown_control_kind(self):
        p = JimenezTokenProtocol(0, 2)
        with pytest.raises(ValueError):
            p.on_control(ControlMessage(sender=1, kind="bogus"))


class TestStats:
    def test_stats_keys(self):
        p = JimenezTokenProtocol(0, 3)
        p.write("x", 1)
        p.write("x", 2)
        s = p.stats()
        assert s["suppressed"] == 1
        assert s["batches_sent"] == 0
        assert "batch_delays" in s

    def test_debug_state(self):
        p = JimenezTokenProtocol(0, 3)
        p.write("x", 1)
        st = p.debug_state()
        assert st["suppressed"] == 0 and st["next_batch"] == 0
        assert "x" in st["pending"]
