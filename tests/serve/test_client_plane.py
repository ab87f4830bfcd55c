"""The client plane served off the socket: a REQUEST is decoded,
journaled, executed and answered inside ``buffer_updated``, and a read
ahead of ``applied`` parks its connection instead of awaiting.

Four kinds of test.  Parked requests on the fake loop and transport of
``fakes.py`` and the fake journal of ``test_peer_receive.py``, no
sockets: what has run when a request
parks, the order requests pipelined behind it are answered in, and where
the resumed one is answered from.  On the same transport over a real
WAL: whatever frame stream a replica accepted, a second replica on its
directory recovers the same state.  The client library's framing, on a
fake transport.  And client-plane adversaries on live sockets against a
listening replica: each costs its own connection and nothing else.
"""

import asyncio
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import durability as dur
from repro.durability import snapshot_node
from repro.serve import codec
from repro.serve.client import AsyncSessionClient, _GroupConn
from repro.serve.codec import (
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
from repro.serve.server import _Inbound
from repro.serve.shard import parse_endpoint

from tests.serve.fakes import FakeTransport, deliver, pour
from tests.serve.test_one_body import FakePeer, closed_by_server, eventually
from tests.serve.test_peer_receive import (
    _SMALL_BUFFER,
    durable_replica,
    hello,
    peer_bodies,
    replica,
)
from tests.serve.test_session import run


def W(variable, value):
    return (OP_WRITE, variable, value)


def R(variable):
    return (OP_READ, variable, None)


def request(session, *ops) -> bytes:
    return frame(codec.encode_request(tuple(session), list(ops)))


def cut(stream: bytes, cuts) -> list:
    edges = [0, *sorted(set(cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def responses(conn) -> list:
    """Every RESPONSE written to ``conn``, decoded."""
    out = []
    for data in conn.transport.written:
        assert int.from_bytes(data[:4], "big") == len(data) - 4
        out.append(codec.decode_response(data[4:]))
    return out


class Wires:
    """Connections to one replica on fake transports: bytes reach a
    connection while it reads, and wait, in order, while it does not."""

    def __init__(self, server):
        self.server = server
        self.log = []               # writes of every transport, in order
        self.unread = {}            # bytes sent that no ``recv`` took yet

    def connect(self, role=None, identity=0) -> _Inbound:
        """A new connection; it says HELLO as ``role`` unless None."""
        conn = _Inbound(self.server)
        conn.frames = FrameBuffer(_SMALL_BUFFER)
        conn.connection_made(FakeTransport(self.log))
        if role is not None:
            deliver(conn, frame(hello(role, identity)))
        return conn

    def send(self, conn, *chunks) -> None:
        """Queue ``chunks`` as separate ``recv``s and let the transport
        deliver what it can: nothing while the connection is paused."""
        queue = self.unread.setdefault(conn, [])
        queue.extend(chunks)
        while queue and conn.transport.reading:
            chunk = queue.pop(0)
            buf = conn.get_buffer(-1)
            n = min(len(buf), len(chunk))
            buf[:n] = chunk[:n]
            if n < len(chunk):
                queue.insert(0, chunk[n:])
            conn.buffer_updated(n)

    def catch_up(self) -> None:
        """Deliver what waited on connections that read again."""
        for conn in list(self.unread):
            self.send(conn)


class Rig(Wires):
    """Replica 0 of a 3-group on a fake loop, fake transports and a fake
    journal, with one connection from peer 1, whose updates write
    ``k0``, ``k1``, ... (value ``"vvv"``).  The replica's own writes wait
    on the loop for the peer link, which no test here ticks."""

    def __init__(self):
        server, self.journal = replica()
        super().__init__(server)
        self.peer = self.connect(ROLE_PEER, 1)
        self.updates = peer_bodies([3] * 4)
        self.client = self.connect(ROLE_CLIENT)
        self.log.clear()            # the peer's WELCOME

    def peer_frame(self, *indices) -> None:
        deliver(self.peer, frame(codec.encode_batch(
            [self.updates[i] for i in indices])))
        self.catch_up()

    def responses(self, conn=None) -> list:
        return responses(conn or self.client)

    def records(self) -> list:
        """The journal, one ``(kind, what it replays)`` per record: the
        ops of a request run, or the write ids of a peer frame."""
        out = []
        for body in self.journal.records:
            kind, _, items = dur.decode_record(body)
            if kind == BATCH:
                items = [(m.wid.process, m.wid.seq) for m in items]
            out.append((kind, items))
        return out


OPS, BATCH = dur.KIND_OPS, dur.KIND_BATCH


class TestParkedRequests:
    def test_a_read_ahead_of_applied_parks_after_the_writes_before_it(self):
        rig = Rig()
        conn = rig.client
        rig.send(conn, request((0, 1, 0), W("a", 1), R("k0"), W("b", 2)))
        assert conn.parked is not None and rig.server._parked == [conn]
        assert not conn.transport.reading
        assert conn.transport.written == []
        # the write ran, journaled as the request's first run
        assert rig.records() == [(OPS, [W("a", 1)])]
        assert rig.server.applied == [1, 0, 0]
        assert rig.server.stats["read_waits"] == 1
        rig.peer_frame(0)
        # the resumed run is a second record of the same request
        assert rig.records() == [(OPS, [W("a", 1)]), (BATCH, [(1, 1)]),
                                 (OPS, [R("k0"), W("b", 2)])]
        assert rig.responses() == [
            ((2, 1, 0), [(OP_WRITE, 1), (OP_READ, "vvv"), (OP_WRITE, 2)])]
        assert conn.parked is None and rig.server._parked == []
        assert conn.transport.reading

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 200), max_size=12))
    def test_requests_behind_a_parked_one_are_answered_after_it_in_order(
            self, cuts):
        rig = Rig()
        stream = (request((0, 1, 0), R("k0"))
                  + request((0, 0, 0), W("x", "after"))
                  + request((0, 0, 0), R("x"), R("k0"))
                  + request((0, 2, 0), R("k1")))
        rig.send(rig.client, *cut(stream, [c for c in cuts
                                           if c < len(stream)]))
        assert rig.responses() == [] and rig.records() == []
        rig.peer_frame(0)
        assert rig.responses() == [
            ((0, 1, 0), [(OP_READ, "vvv")]),
            ((1, 1, 0), [(OP_WRITE, 1)]),
            ((1, 1, 0), [(OP_READ, "after"), (OP_READ, "vvv")]),
        ]
        rig.peer_frame(1)
        assert rig.responses()[3:] == [((1, 2, 0), [(OP_READ, "vvv")])]
        assert rig.records() == [
            (BATCH, [(1, 1)]), (OPS, [R("k0")]), (OPS, [W("x", "after")]),
            (OPS, [R("x"), R("k0")]), (BATCH, [(1, 2)]), (OPS, [R("k1")])]
        assert rig.server.stats["read_waits"] == 2
        assert rig.server._parked == [] and rig.client.transport.reading
        assert rig.client.frames.start == rig.client.frames.end == 0

    def test_the_satisfying_peer_frame_answers_after_node_receive_returns(
            self):
        rig = Rig()
        node = rig.server.node
        receive = node.receive

        def logged(message):
            rig.log.append("receive")
            receive(message)
            rig.log.append("received")

        node.receive = logged
        rig.send(rig.client, request((0, 1, 0), R("k0")))
        assert rig.log == []
        rig.peer_frame(0)
        assert rig.log == ["receive", "received",
                           ("write", rig.client.transport)]

    def test_read_waits_counts_each_parked_request_once(self):
        rig = Rig()
        other = rig.connect(ROLE_CLIENT)
        rig.send(rig.client, request((0, 1, 0), R("k0"), R("k1"), R("k0")))
        rig.send(other, request((0, 1, 0), R("k0")))
        rig.send(rig.connect(ROLE_CLIENT), request((0, 0, 0), R("k0")))
        assert rig.server.stats["read_waits"] == 2
        assert rig.server._parked == [rig.client, other]
        rig.peer_frame(0)
        assert rig.server.stats["read_waits"] == 2
        assert rig.server.stats["reads"] == 5
        # answered in the order they parked
        answered = [t for kind, t in rig.log if kind == "write"]
        assert answered[-2:] == [rig.client.transport, other.transport]

    def test_a_resumed_response_follows_the_wal_sync(self):
        rig = Rig()
        rig.journal.sync = lambda: rig.log.append("sync")
        rig.send(rig.client, request((0, 1, 0), W("a", 1), R("k0")))
        assert rig.log == []                       # nothing acknowledged yet
        rig.peer_frame(0)
        assert rig.log == ["sync", ("write", rig.client.transport)]

    def test_a_connection_closed_while_parked_is_dropped_and_counted(self):
        rig = Rig()
        conn = rig.client
        rig.send(conn, request((0, 1, 0), R("k0"))
                 + request((0, 0, 0), W("never", 1)))
        conn.connection_lost(None)
        assert rig.server._parked == [] and conn.parked is None
        assert conn not in rig.server._inbound
        assert rig.server.stats["client_aborts"] == 1
        rig.peer_frame(0)
        assert conn.transport.written == []
        assert rig.server.stats["writes"] == 0     # the pipelined write
        assert rig.records() == [(BATCH, [(1, 1)])]
        assert rig.server.node.buffered_count == 0


_VARIABLES = ["a", "b", "k0", "k1"]

_ops = st.lists(st.one_of(
    st.builds(W, st.sampled_from(_VARIABLES),
              st.one_of(st.integers(0, 9), st.none())),
    st.builds(R, st.sampled_from(_VARIABLES))), min_size=1, max_size=3)


@st.composite
def served_streams(draw):
    """What peer 1 and two clients send a replica, each connection's
    bytes cut anywhere, and the order the pieces arrive in.  Session
    vectors run ahead of the replica, so requests park and resume."""
    updates = peer_bodies([3] * 6)
    peer = [frame(hello(ROLE_PEER, 1))]
    for size in draw(st.lists(st.integers(1, 2), max_size=3)):
        peer.append(frame(codec.encode_batch(updates[:size])))
        updates = updates[size:]
    streams = [b"".join(peer)]
    for _ in range(2):
        sent = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                                       _ops), max_size=3))
        streams.append(frame(hello(ROLE_CLIENT)) + b"".join(
            request((own, need, 0), *ops) for own, need, ops in sent))
    pieces = [cut(data, draw(st.lists(st.integers(1, len(data) - 1),
                                      max_size=6)))
              for data in streams]
    order = draw(st.permutations(
        [c for c, chunks in enumerate(pieces) for _ in chunks]))
    return pieces, order


class TestRecoveryFromFrames:
    """What a durable replica journaled -- one record per peer frame and
    per request run -- rebuilds it: a second replica on the same WAL
    directory recovers the same state."""

    @staticmethod
    def serve(server, pieces, order) -> list:
        wires = Wires(server)
        conns = [wires.connect() for _ in pieces]
        queues = [list(chunks) for chunks in pieces]
        for c in order:
            wires.send(conns[c], queues[c].pop(0))
            wires.catch_up()
        return conns

    @staticmethod
    def recovers(server, wal_dir, **options):
        server._wal.close()
        again = durable_replica(wal_dir, **options)
        again._wal.close()
        assert again.stats["recovered"] == 1
        assert again.applied == server.applied
        assert snapshot_node(again.node) == snapshot_node(server.node)
        assert again._sent == server._sent
        return again

    @settings(max_examples=40, deadline=None)
    @given(served_streams(), st.sampled_from([0, 1, 3]))
    def test_any_accepted_stream_recovers_to_the_same_state(
            self, case, snapshot_every):
        pieces, order = case
        with tempfile.TemporaryDirectory() as tmp:
            server = durable_replica(Path(tmp), snapshot_every=snapshot_every)
            conns = self.serve(server, pieces, order)
            assert server.stats["client_aborts"] == 0
            assert not any(conn.transport.closed for conn in conns)
            if server.stats["wal_records"]:
                self.recovers(server, Path(tmp),
                              snapshot_every=snapshot_every)

    def test_a_max_frame_request_journals_and_recovers(self, tmp_path):
        head = codec.encode_request((0, 0, 0), [W("big", "")])
        value = "v" * (MAX_FRAME - len(head) - 3)  # its length: 4 bytes
        body = codec.encode_request((0, 0, 0), [W("big", value)])
        assert len(body) == MAX_FRAME
        server = durable_replica(tmp_path)
        wires = Wires(server)
        conn = wires.connect(ROLE_CLIENT)
        wires.send(conn, frame(body))
        assert responses(conn) == [((1, 0, 0), [(OP_WRITE, 1)])]
        assert server.stats["wal_records"] == 1
        again = self.recovers(server, tmp_path)
        assert again.node.do_read("big") == value

    def test_snapshots_come_as_often_as_one_record_per_input_made_them(
            self, tmp_path):
        """``snapshot_every`` counts ops and receipts, not records: the
        stream below took 3 snapshots when every input was a record of
        its own, and takes 3 now (counting its 7 records would take 2)."""
        server = durable_replica(tmp_path, snapshot_every=3)
        wires = Wires(server)
        peer = wires.connect(ROLE_PEER, 1)
        client = wires.connect(ROLE_CLIENT)
        updates = peer_bodies([3] * 6)
        wires.send(client, request((0, 0, 0), W("a", 1), W("b", 2), R("a"),
                                   W("c", 3)))
        wires.send(peer, frame(codec.encode_batch(updates[:2])))
        wires.send(client, request((0, 3, 0), W("d", 4), R("k2")))  # parks
        wires.send(peer, frame(codec.encode_batch(updates[2:5])))
        wires.catch_up()
        wires.send(client, request((4, 5, 0), R("k0")))
        wires.send(peer, frame(codec.encode_batch(updates[5:])))
        assert [r[1] for r in responses(client)] == [
            [(OP_WRITE, 1), (OP_WRITE, 2), (OP_READ, 1), (OP_WRITE, 3)],
            [(OP_WRITE, 4), (OP_READ, "vvv")], [(OP_READ, "vvv")]]
        assert server.stats["wal_records"] == 7
        assert server.stats["snapshots"] == 3
        self.recovers(server, tmp_path, snapshot_every=3)


class _AbortableTransport(FakeTransport):
    aborted = False

    def abort(self):
        self.aborted = True


def _group_conn() -> _GroupConn:
    conn = _GroupConn(0, 0)
    conn.frames = FrameBuffer(_SMALL_BUFFER)
    conn.connection_made(_AbortableTransport())
    return conn


class TestClientFraming:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.text(max_size=40), max_size=3),
                    min_size=1, max_size=6),
           st.lists(st.integers(1, 400), max_size=12))
    def test_any_chunking_resolves_the_requests_in_order(self, batches, cuts):
        loop = asyncio.new_event_loop()
        try:
            conn = _group_conn()
            answers = [((i, 0), [(OP_READ, v) for v in values])
                       for i, values in enumerate(batches)]
            futures = [loop.create_future() for _ in answers]
            conn.inflight.extend(futures)
            stream = b"".join(frame(codec.encode_response(*a))
                              for a in answers)
            for chunk in cut(stream, [c for c in cuts if c < len(stream)]):
                pour(chunk, lambda: conn.get_buffer(-1), conn.buffer_updated)
            assert [f.result() for f in futures] == answers
            assert not conn.inflight and not conn.transport.closed
        finally:
            loop.close()

    @pytest.mark.parametrize("rest", [b"", frame(b"\x04\x03")[:3]],
                             ids=["at-a-frame-boundary", "mid-frame"])
    def test_a_server_close_fails_every_request_in_flight(self, rest):
        loop = asyncio.new_event_loop()
        try:
            conn = _group_conn()
            futures = [loop.create_future() for _ in range(3)]
            conn.inflight.extend(futures)
            pour(frame(codec.encode_response((1, 0), [])) + rest,
                 lambda: conn.get_buffer(-1), conn.buffer_updated)
            conn.connection_lost(None)
            assert futures[0].result() == ((1, 0), [])
            for fut in futures[1:]:
                with pytest.raises(ConnectionError):
                    fut.result()
            assert not conn.inflight
        finally:
            loop.close()

    def test_a_response_nobody_asked_for_fails_the_connection(self):
        conn = _group_conn()
        pour(frame(codec.encode_response((1, 0), [])),
             lambda: conn.get_buffer(-1), conn.buffer_updated)
        assert conn.transport.closed is False      # abort(), not close()
        assert conn.transport.aborted


# -- live sockets -------------------------------------------------------------

async def raw_client(peer):
    """A client connection to replica 0 that has said HELLO."""
    _, path = parse_endpoint(peer.spec.endpoint(0, 0))
    reader, writer = await asyncio.open_unix_connection(path)
    write_frame(writer, hello(ROLE_CLIENT))
    return reader, writer


def _write(seq=1):
    return codec.encode_request((0, 0, 0), [W("k", f"v{seq}")])


async def _oversized_length(reader, writer):
    writer.write(struct.pack(">I", MAX_FRAME + 1))
    assert await closed_by_server(reader)


async def _truncated_request(reader, writer):
    write_frame(writer, _write()[:-2])
    assert await closed_by_server(reader)


async def _eof_mid_frame(reader, writer):
    data = frame(_write())
    writer.write(data[:len(data) // 2])
    await writer.drain()
    writer.close()


async def _wrong_width_session(reader, writer):
    write_frame(writer, codec.encode_request((0, 0), [W("k", "v")]))
    assert await closed_by_server(reader)


async def _unknown_op_kind(reader, writer):
    write_frame(writer, codec.encode_request(
        (0, 0, 0), [W("k", "v"), (7, "k", None)]))
    assert await closed_by_server(reader)


async def _second_hello(reader, writer):
    write_frame(writer, hello(ROLE_CLIENT))
    assert await closed_by_server(reader)


ADVERSARIES = [_oversized_length, _truncated_request, _eof_mid_frame,
               _wrong_width_session, _unknown_op_kind, _second_hello]


class TestClientPlaneAdversaries:
    """A hostile or broken client connection is closed and counted;
    nothing it sent is journaled, and another session on the same
    replica is answered as before."""

    @pytest.mark.parametrize("attack", ADVERSARIES,
                             ids=[a.__name__.strip("_") for a in ADVERSARIES])
    def test_costs_only_its_own_connection(self, tmp_path, attack):
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                good = AsyncSessionClient(peer.spec, replica=0)
                await good.put("mine", 1)
                reader, writer = await raw_client(peer)
                await attack(reader, writer)
                await eventually(
                    lambda: server.stats["client_aborts"] == 1)
                await eventually(lambda: len(server._inbound) == 1)
                assert server.stats["wal_records"] == 1      # the put
                assert server.stats["requests"] == 1
                assert await good.get("mine") == 1
                await good.put("mine", 2)
                assert await good.get("mine") == 2
                await good.close()
                assert server.stats["wal_records"] == 4
                assert server.stats["client_aborts"] == 1

        run(go())

    def test_a_client_that_never_reads_is_paused_not_buffered(self, tmp_path):
        """Pipelined reads of a 16 KiB value and no reading: the replica
        stops reading that connection once its write buffer passes the
        high-water mark, holds one receive buffer and that much output,
        and serves everyone else; reading the answers lets it finish."""
        big = "x" * (16 << 10)
        count = 100

        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                good = AsyncSessionClient(peer.spec, replica=0)
                await good.put("big", big)
                reader, writer = await raw_client(peer)
                writer.write(frame(codec.encode_request(
                    (1, 0, 0), [R("big")])) * count)
                await eventually(
                    lambda: any(c.paused for c in server._inbound))
                (greedy,) = [c for c in server._inbound if c.paused]
                served = server.stats["reads"]
                await asyncio.sleep(0.05)
                assert server.stats["reads"] == served < count
                high = greedy.transport.get_write_buffer_limits()[1]
                assert (greedy.transport.get_write_buffer_size()
                        <= high + len(big) + 64)
                assert len(greedy.frames.view) == greedy.frames.size
                # other sessions are still served
                assert await good.get("big") == big
                await good.put("small", 1)
                for _ in range(count):
                    body = await asyncio.wait_for(read_frame(reader), 10)
                    assert body[0] == FRAME_RESPONSE
                    assert codec.decode_response(body)[1] == [(OP_READ, big)]
                assert not greedy.paused
                writer.close()
                await good.close()
                assert server.stats["client_aborts"] == 0

        run(go())
