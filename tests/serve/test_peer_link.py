"""The send policy of one peer link, on a fake loop, clock and transport:
no sockets, no sleeps, every instant chosen by the test.

A quiet link flushes at the end of the tick that enqueued; a link that
flushed inside ``batch_window`` waits out the rest of it; the caps flush
on the spot; and on every path the WAL is synced before a byte is
written (group commit), even when the cap flush goes off in the middle
of a request whose record is appended before its first op.  And the
link's connection: two replicas' ends of it, wired back to back.
"""

from types import SimpleNamespace

import pytest

from repro import durability as dur
from repro.core.base import UpdateMessage
from repro.model.operations import WriteId
from repro.serve import codec
from repro.serve.codec import FRAME_MSG_BATCH, OP_WRITE
from repro.serve.server import ReplicaServer, _PeerLink
from repro.serve.shard import ClusterSpec

from tests.serve.fakes import Duplex, FakeLoop, FakeTransport
from tests.serve.test_one_body import split_batch

WINDOW = 0.0005


class FakeWal:
    def __init__(self, log):
        self.log = log

    def append(self, body):
        self.log.append(("append", body))

    def sync(self):
        self.log.append(("sync",))


class Rig:
    def __init__(self, tmp_path, **options):
        spec = ClusterSpec.local_uds(tmp_path, "optp", 1, 2)
        self.server = ReplicaServer(spec, 0, 0, batch_window=WINDOW,
                                    **options)
        self.loop = self.server._loop = FakeLoop()
        self.log = []
        self.server._wal = FakeWal(self.log)
        self.transport = FakeTransport(self.log)
        self.link = _PeerLink(self.server, 1, self.transport)
        self.stats = self.server.stats

    def frames(self):
        """Message bodies of each frame written so far."""
        out = []
        for data in self.transport.written:
            payload = data[4:]
            assert int.from_bytes(data[:4], "big") == len(payload)
            assert payload[0] == FRAME_MSG_BATCH
            out.append(split_batch(payload))
        return out

    def flushes(self):
        return {cause: self.stats[f"peer_flush_{cause}"]
                for cause in ("idle", "window", "cap")}


@pytest.fixture
def rig(tmp_path):
    return Rig(tmp_path)


def bodies(count, size=6):
    """Distinct well-formed update bodies (peer 0's writes 1..count)."""
    return [codec.encode_message(UpdateMessage(
        sender=0, wid=WriteId(0, k), variable="k", value="v" * size,
        payload={"write_co": (k, 0)})) for k in range(1, count + 1)]


class TestQuietLink:
    def test_flushes_at_the_end_of_the_tick_and_arms_no_timer(self, rig):
        (body,) = bodies(1)
        rig.link.enqueue(body)
        assert rig.log == []                       # not inside enqueue
        assert len(rig.loop.soon) == 1 and rig.loop.timers == []
        rig.loop.tick()
        assert rig.frames() == [[body]]
        assert rig.flushes() == {"idle": 1, "window": 0, "cap": 0}
        assert rig.loop.pending() == [] and rig.link.flush_handle is None

    def test_everything_enqueued_in_one_tick_is_one_frame(self, rig):
        sent = bodies(5)
        for body in sent:
            rig.link.enqueue(body)
        assert len(rig.loop.pending()) == 1
        rig.loop.tick()
        assert rig.frames() == [sent]
        assert (rig.stats["peer_batches"], rig.stats["peer_msgs"]) == (1, 5)
        assert rig.stats["peer_bytes"] == len(rig.transport.written[-1])

    def test_quiet_again_once_the_window_has_passed(self, rig):
        first, second = bodies(2)
        rig.link.enqueue(first)
        rig.loop.tick()
        rig.loop.advance(WINDOW)
        rig.link.enqueue(second)
        assert len(rig.loop.soon) == 1 and rig.loop.timers == []
        rig.loop.tick()
        assert rig.frames() == [[first], [second]]
        assert rig.flushes() == {"idle": 2, "window": 0, "cap": 0}


class TestInsideTheWindow:
    def test_one_timer_for_the_remainder_not_a_fresh_window(self, rig):
        first, second, third = bodies(3)
        rig.link.enqueue(first)
        rig.loop.tick()
        flushed_at = rig.loop.now
        rig.loop.advance(0.0002)
        rig.link.enqueue(second)
        rig.link.enqueue(third)
        assert rig.loop.soon == []
        (timer,) = rig.loop.timers
        assert timer.when == pytest.approx(flushed_at + WINDOW, abs=1e-9)
        assert timer.when < rig.loop.now + WINDOW
        rig.loop.advance(0.0002)                   # 0.4 ms: still closed
        assert rig.frames() == [[first]]
        rig.loop.advance(0.00011)
        assert rig.frames() == [[first], [second, third]]
        assert rig.flushes() == {"idle": 1, "window": 1, "cap": 0}

    def test_a_busy_link_sends_one_frame_per_window(self, rig):
        sent = bodies(40)
        for body in sent:                          # one every 0.1 ms
            rig.link.enqueue(body)
            rig.loop.tick()
            rig.loop.advance(0.0001)
        rig.loop.advance(WINDOW)
        frames = rig.frames()
        assert [b for frame in frames for b in frame] == sent
        assert len(frames) <= 40 * 0.0001 / WINDOW + 1
        assert rig.flushes()["idle"] == 1


class TestCaps:
    def test_message_cap_flushes_inside_enqueue(self, tmp_path):
        rig = Rig(tmp_path, batch_max_msgs=3)
        sent = bodies(4)
        for body in sent[:3]:
            rig.link.enqueue(body)
        assert rig.frames() == [sent[:3]]          # no tick, no clock
        assert rig.loop.pending() == []            # the tick-end one is off
        assert rig.flushes() == {"idle": 0, "window": 0, "cap": 1}
        rig.loop.tick()
        assert rig.frames() == [sent[:3]]
        # the cap flush opened a window like any other
        rig.link.enqueue(sent[3])
        assert rig.loop.soon == [] and len(rig.loop.timers) == 1

    def test_byte_cap_flushes_inside_enqueue(self, tmp_path):
        sent = bodies(2, size=80)
        rig = Rig(tmp_path, batch_max_bytes=len(sent[0]) + 1)
        rig.link.enqueue(sent[0])
        assert rig.log == []
        rig.link.enqueue(sent[1])
        assert rig.frames() == [sent]
        assert rig.flushes()["cap"] == 1


class TestGroupCommit:
    def test_the_wal_is_synced_before_every_socket_write(self, tmp_path):
        rig = Rig(tmp_path, batch_max_msgs=2)
        a, b, c, d, e = bodies(5)
        rig.link.enqueue(a)
        rig.loop.tick()                            # idle
        rig.link.enqueue(b)
        rig.loop.advance(WINDOW)                   # window
        rig.link.enqueue(c)
        rig.link.enqueue(d)                        # cap
        rig.link.enqueue(e)
        rig.link.flush()                           # forced (admin plane)
        kinds = [event[0] for event in rig.log]
        assert kinds == ["sync", "write"] * 4
        assert rig.frames() == [[a], [b], [c, d], [e]]
        assert rig.flushes() == {"idle": 1, "window": 1, "cap": 1}
        assert rig.stats["peer_batches"] == 4

    def test_a_cap_flush_inside_a_run_finds_the_run_journaled(
            self, tmp_path):
        """A request's writes are one record, appended before the first
        of them runs: the cap flush ``do_write`` sets off in the middle
        of the run syncs that record before a byte of it leaves."""
        rig = Rig(tmp_path, batch_max_msgs=2)
        rig.server._dur = dur
        rig.server._links[1] = rig.link
        ops = [(OP_WRITE, f"k{i}", f"v{i}") for i in range(3)]
        body = codec.encode_request((0, 0), ops)
        answers = []
        client = SimpleNamespace(transport=FakeTransport(answers))
        rig.server._serve_request(client, (0, 0), ops, 0, [], body)
        # journal, sync, the cap flush of writes 1-2; then group commit
        # before the answer (write 3 waits for the window to close)
        assert [event[0] for event in rig.log] == [
            "append", "sync", "write", "sync"]
        assert dur.decode_record(rig.log[0][1])[::2] == (dur.KIND_OPS, ops)
        assert rig.log[0][1].endswith(body)
        assert rig.flushes()["cap"] == 1
        assert [len(frame) for frame in rig.frames()] == [2]
        assert [event[0] for event in answers] == ["write"]


class TestClose:
    def test_cancels_the_pending_handle_and_late_flush_is_a_no_op(self, rig):
        (body,) = bodies(1)
        rig.link.enqueue(body)
        handle = rig.link.flush_handle
        rig.link.close()
        assert handle.cancelled and rig.link.flush_handle is None
        assert rig.transport.closed
        rig.link.flush("peer_flush_idle")          # a handle that got away
        rig.loop.tick()
        assert rig.log == []
        assert rig.stats["peer_batches"] == 0
        assert rig.flushes() == {"idle": 0, "window": 0, "cap": 0}


def pair(tmp_path):
    """Replicas 0 and 1 of a 2-group, each end of their one connection on
    a fake transport, handshake done."""
    spec = ClusterSpec.local_uds(tmp_path, "optp", 1, 2)
    low, high = (ReplicaServer(spec, 0, i) for i in range(2))
    wire = Duplex(high, low, FakeLoop())
    wire.pump()
    return low, high, wire


class TestOneConnection:
    def test_two_ends_link_up_and_carry_batches_both_ways(self, tmp_path):
        low, high, wire = pair(tmp_path)
        assert low._links[1].transport is wire.accepted.transport
        assert high._links[0].transport is wire.dialed.transport
        assert low._link_up[1].is_set() and high._link_up[0].is_set()
        assert (low.stats["peer_dials"], high.stats["peer_dials"]) == (0, 1)
        for i in range(3):
            wire.loop.advance(WINDOW)              # each link is quiet
            low.node.do_write("a", i)
            high.node.do_write("b", i)
            wire.pump()
        assert low.applied[1] == high.applied[0] == 3
        assert low.node.do_read("b") == high.node.do_read("a") == 2
        for server in (low, high):
            assert server.stats["peer_batches"] == 3
            assert server.stats["frames_in"] == 3
            assert server.stats["client_aborts"] == 0

    def test_a_lost_connection_drops_the_link_on_both_ends(self, tmp_path):
        low, high, wire = pair(tmp_path)
        for end in (wire.dialed, wire.accepted):
            end.transport.close()
            end.connection_lost(None)
        assert low._links == high._links == {}
        assert not low._link_up[1].is_set()
        assert not high._link_up[0].is_set()
        assert wire.dialed.lost.is_set()           # the dialer redials
        assert wire.accepted.lost is None

    def test_a_peer_connection_reads_on_when_its_writes_back_up(
            self, tmp_path):
        """Two replicas whose write buffers are both full would each wait
        for the other to read: a peer connection never stops reading."""
        low, high, wire = pair(tmp_path)
        for end in (wire.dialed, wire.accepted):
            end.pause_writing()
            assert end.transport.reading and not end.paused
        low.node.do_write("a", 1)
        high.node.do_write("b", 2)
        wire.pump()
        assert low.applied[1] == high.applied[0] == 1
        for end in (wire.dialed, wire.accepted):
            end.resume_writing()
            assert end.transport.reading

