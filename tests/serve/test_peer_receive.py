"""The peer receive path: frames parsed out of one reused buffer and
applied inside ``buffer_updated``.

Two kinds of test.  A property, with no socket: however the byte stream
of a peer connection is cut into ``recv`` chunks, the replica ends with
the same ``applied`` vector and has journaled the byte-identical record
sequence as when each frame is handed over whole.  And adversaries on
live sockets against a listening replica: each costs its own connection
and nothing else.
"""

import asyncio
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import durability as dur
from repro.core.base import UpdateMessage
from repro.model.operations import WriteId
from repro.protocols import PROTOCOLS
from repro.serve import codec
from repro.serve.client import AsyncSessionClient
from repro.serve.codec import (
    FRAME_HELLO,
    FRAME_RESPONSE,
    MAX_FRAME,
    OP_READ,
    OP_WRITE,
    ROLE_CLIENT,
    ROLE_PEER,
    FrameBuffer,
    frame,
    read_frame,
    write_frame,
)
from repro.serve.server import ReplicaServer, _Inbound
from repro.serve.shard import ClusterSpec, parse_endpoint
from repro.sim.node import Node
from repro.sim.trace import NullTrace

from tests.serve.test_one_body import (
    FakePeer,
    closed_by_server,
    eventually,
)
from tests.serve.test_session import run

#: small on purpose: most generated frames are larger than the buffer
#: they arrive in, so growing, moving and shrinking all happen
_SMALL_BUFFER = 48


def hello(role: int, identity: int = 0) -> bytes:
    return bytes([FRAME_HELLO, role, identity])


def peer_bodies(value_sizes, group_size=3) -> list:
    """Canonical bodies of process 1's next writes, from a real OptP
    node (so the receiver can apply them in order)."""
    sent = []
    node = Node(PROTOCOLS["optp"](1, group_size), NullTrace(group_size),
                clock=lambda: 0.0,
                dispatch=lambda _, outs: sent.extend(
                    codec.encode_message(o.message) for o in outs))
    for i, size in enumerate(value_sizes):
        node.do_write(f"k{i % 4}", "v" * size)
    return sent


class FakeTransport:
    """Records writes (also into ``log``, shared between transports, as
    ``("write", transport)``) and whether it is being read."""

    def __init__(self, log=None):
        self.written = []
        self.closed = False
        self.reading = True
        self.log = [] if log is None else log

    def write(self, data):
        self.written.append(bytes(data))
        self.log.append(("write", self))

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


class Journal:
    """Stands in for the WAL: records the bodies ``_wal_append`` is
    given, and how many inputs they hold in all."""

    def __init__(self, server):
        self.records = []
        self.inputs = 0
        server._wal = self
        server._dur = dur
        server._wal_append = self.append
        server._now = lambda: 7.0      # records carry the receipt time
        server.snapshot_every = 0

    def append(self, body, inputs=1):
        self.records.append(body)
        self.inputs += inputs

    def sync(self):
        pass


def replica():
    server = ReplicaServer(
        ClusterSpec.local_uds(Path("unused"), "optp", 1, 3), 0, 0)
    return server, Journal(server)


def durable_replica(wal_dir: Path, **options) -> ReplicaServer:
    """Replica 0 of a 3-group with a real WAL in ``wal_dir``: built on a
    directory that holds one, it recovers from it."""
    return ReplicaServer(
        ClusterSpec.local_uds(Path("unused"), "optp", 1, 3), 0, 0,
        wal_dir=wal_dir, **options)


def pour(chunk: bytes, writable, wrote) -> None:
    """What the transport does with one ``recv``: fill the buffer it is
    offered (as much as fits) and say how much arrived."""
    while chunk:
        buf = writable()
        assert len(buf) > 0
        n = min(len(buf), len(chunk))
        buf[:n] = chunk[:n]
        wrote(n)
        chunk = chunk[n:]


def deliver(conn: _Inbound, chunk: bytes) -> None:
    pour(chunk, lambda: conn.get_buffer(-1), conn.buffer_updated)


@st.composite
def chunked_streams(draw):
    batches = draw(st.lists(
        st.lists(st.integers(0, 200), min_size=1, max_size=5),
        min_size=1, max_size=6))
    bodies = peer_bodies([size for batch in batches for size in batch])
    payloads = []
    for batch in batches:
        payloads.append(FakePeer.batch(bodies[:len(batch)]))
        bodies = bodies[len(batch):]
    stream = frame(hello(ROLE_PEER, 1)) + b"".join(map(frame, payloads))
    cuts = draw(st.one_of(
        st.just(list(range(1, len(stream)))),          # 1-byte chunks
        st.lists(st.integers(1, len(stream) - 1), max_size=12)))
    edges = [0, *sorted(set(cuts)), len(stream)]
    return payloads, [stream[a:b] for a, b in zip(edges, edges[1:])]


class TestAnyChunking:
    @settings(max_examples=60, deadline=None)
    @given(chunked_streams())
    def test_same_state_and_same_journal_as_whole_frames(self, case):
        payloads, chunks = case
        whole, whole_journal = replica()
        for payload in payloads:
            whole._receive_batch(1, payload)
        # one record per frame, holding the frame as it arrived
        assert whole_journal.records == [
            dur.encode_batch_record(7.0, payload) for payload in payloads]
        assert whole.applied[1] == whole_journal.inputs > 0

        server, journal = replica()
        conn = _Inbound(server)
        conn.frames = FrameBuffer(_SMALL_BUFFER)
        transport = FakeTransport()
        conn.connection_made(transport)
        for chunk in chunks:
            deliver(conn, chunk)
        assert server.applied == whole.applied
        assert journal.records == whole_journal.records
        assert server.stats["frames_in"] == len(payloads)
        assert server.node.buffered_count == 0
        assert server.stats["client_aborts"] == 0 and not transport.closed
        assert len(transport.written) == 1           # the WELCOME
        # drained: the buffer is back to its size and empty
        assert len(conn.frames.view) == _SMALL_BUFFER
        assert conn.frames.start == conn.frames.end == 0
        conn.connection_lost(None)
        assert server.stats["client_aborts"] == 0 and server._inbound == []


class TestFrameBuffer:
    @given(st.lists(st.binary(max_size=300), min_size=1, max_size=8),
           st.integers(1, 64), st.integers(4, 64))
    @example([b"x" * 1000, b"", b"y"], 1, 4)
    def test_frames_come_out_as_they_went_in(self, bodies, step, size):
        stream = b"".join(map(frame, bodies))
        frames = FrameBuffer(size)
        out = []
        def drain(n):
            frames.wrote(n)
            while (body := frames.next_frame()) is not None:
                out.append(body)
            # never more than one frame (and its prefix) is held
            assert len(frames.view) <= max(size, 4 + max(map(len, bodies)))

        for i in range(0, len(stream), step):
            pour(stream[i:i + step], frames.writable, drain)
        assert out == bodies
        assert frames.take_rest() == b"" and len(frames.view) == size

    def test_a_length_over_max_frame_is_refused_before_any_body(self):
        frames = FrameBuffer(16)
        header = struct.pack(">I", MAX_FRAME + 1)
        frames.writable()[:4] = header
        frames.wrote(4)
        with pytest.raises(codec.CodecError, match="MAX_FRAME"):
            frames.next_frame()
        assert len(frames.view) == 16              # nothing was allocated


def _foreign_update() -> bytes:
    """Well-formed, but peer 2's: fails ``_admit`` on peer 1's link."""
    return codec.encode_message(UpdateMessage(
        sender=2, wid=WriteId(2, 1), variable="k", value="v",
        payload={"write_co": (0, 0, 1)}))


async def _oversized_length(peer, reader, writer):
    writer.write(struct.pack(">I", MAX_FRAME + 1))
    assert await closed_by_server(reader)


async def _eof_mid_frame(peer, reader, writer):
    data = frame(peer.batch(peer.updates(2)))
    writer.write(data[:len(data) // 2])
    await writer.drain()
    writer.close()


async def _not_a_batch(peer, reader, writer):
    write_frame(writer, codec.encode_request((0, 0, 0), [(OP_READ, "k", None)]))
    assert await closed_by_server(reader)


async def _fails_admit(peer, reader, writer):
    write_frame(writer, peer.batch([_foreign_update()]))
    assert await closed_by_server(reader)


async def _second_hello(peer, reader, writer):
    write_frame(writer, hello(ROLE_PEER, 1))
    assert await closed_by_server(reader)


async def _trailing_byte(peer, reader, writer):
    """A good update and one byte more: journaled whole, the frame would
    fail to decode at every restart."""
    write_frame(writer, peer.batch(peer.updates(1)) + b"\x00")
    assert await closed_by_server(reader)


ADVERSARIES = [_oversized_length, _eof_mid_frame, _not_a_batch,
               _fails_admit, _second_hello, _trailing_byte]


class TestLiveAdversaries:
    """ROADMAP item 2, peer plane: a hostile or broken peer connection
    is closed and counted; nothing it sent is journaled or buffered, and
    every other connection is served as before."""

    @pytest.mark.parametrize("attack", ADVERSARIES,
                             ids=[a.__name__.strip("_") for a in ADVERSARIES])
    def test_costs_only_its_own_connection(self, tmp_path, attack):
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                _, good = await peer.dial()
                client = AsyncSessionClient(peer.spec, replica=0)
                await client.put("mine", 1)
                reader, writer = await peer.dial()
                await attack(peer, reader, writer)
                await eventually(
                    lambda: server.stats["client_aborts"] == 1)
                # the good link and the client are left
                await eventually(lambda: len(server._inbound) == 2)
                assert server.stats["wal_records"] == 1      # the put
                assert server.applied == [1, 0, 0]
                assert server.node.buffered_count == 0
                # the good link and the client never noticed
                peer.updates(2)
                write_frame(good, peer.batch(peer._sent))
                await peer.applied(len(peer._sent))
                assert await client.get("mine") == 1
                assert await client.get("name-1") == 1
                await client.close()
                assert server.stats["client_aborts"] == 1
                assert server.node.buffered_count == 0

        run(go())

    def test_a_stalled_peer_holds_up_nobody(self, tmp_path):
        """Half a frame, then silence: the bytes wait in that
        connection's buffer while clients and the other link go on."""
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                _, good = await peer.dial()
                _, stalled = await peer.dial()
                first, second, third = peer.updates(3)
                data = frame(peer.batch([first]))
                stalled.write(data[:len(data) - 3])
                await stalled.drain()
                client = AsyncSessionClient(peer.spec, replica=0)
                for i in range(20):
                    await client.put("mine", i)
                    assert await client.get("mine") == i
                assert server.applied == [20, 0, 0]
                write_frame(good, peer.batch([first, second]))
                await peer.applied(2)
                assert server.stats["client_aborts"] == 0
                # the rest of the frame arrives: a duplicate by now,
                # journaled and dropped by the guard, never applied twice
                stalled.write(data[len(data) - 3:])
                write_frame(stalled, peer.batch([third]))
                await peer.applied(3)
                assert await client.get("name-2") == 2
                await client.close()
                assert server.stats["client_aborts"] == 0
                assert server.node.buffered_count == 0
                stalled.write(b"\x00\x00")              # and dies mid-prefix
                stalled.close()
                await eventually(
                    lambda: server.stats["client_aborts"] == 1)

        run(go())


class TestHandOver:
    """Requests a client sends along with its HELLO are served by the
    protocol that framed the HELLO, however the bytes were cut: nothing
    is handed over and no task is created."""

    @pytest.mark.parametrize("step", [1, 7, 10_000],
                             ids=["bytewise", "sevens", "one-write"])
    def test_requests_sent_with_the_hello_are_answered(self, tmp_path, step):
        async def go():
            async with FakePeer(tmp_path, group_size=2) as peer:
                _, path = parse_endpoint(peer.spec.endpoint(0, 0))
                reader, writer = await asyncio.open_unix_connection(path)
                stream = (frame(hello(ROLE_CLIENT))
                          + frame(codec.encode_request(
                              (0, 0), [(OP_WRITE, "a", "x" * 300)]))
                          + frame(codec.encode_request(
                              (1, 0), [(OP_READ, "a", None)])))
                for i in range(0, len(stream), step):
                    writer.write(stream[i:i + step])
                    await writer.drain()
                answers = [await read_frame(reader) for _ in range(2)]
                assert [a[0] for a in answers] == [FRAME_RESPONSE] * 2
                progress, results = codec.decode_response(answers[1])
                assert progress == (1, 0)
                assert results == [(OP_READ, "x" * 300)]
                (conn,) = peer.server._inbound
                assert conn.on_frame == conn._request
                assert asyncio.all_tasks() == {asyncio.current_task()}
                writer.close()
                await eventually(lambda: peer.server._inbound == [])
                assert peer.server.stats["client_aborts"] == 0

        run(go())
