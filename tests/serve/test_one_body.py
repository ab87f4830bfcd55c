"""An update is encoded once: the same bytes on both peer links, in the
retransmission buffer, in the snapshot and in the receivers' WAL -- and
a peer connection decodes each body on its own, holding no table.

In-process replicas on one event loop, real UDS sockets and real frames
(as in test_session.py); the hostile-peer tests dial a listening
replica by hand.
"""

import asyncio

import pytest

import repro.serve.server as server_mod
from repro import durability as dur
from repro.core.base import ControlMessage, UpdateMessage
from repro.model.operations import WriteId
from repro.protocols import PROTOCOLS
from repro.serve import codec
from repro.serve.client import AsyncSessionClient
from repro.serve.codec import (
    FRAME_HELLO,
    FRAME_MSG_BATCH,
    FRAME_PEER_WELCOME,
    ROLE_PEER,
    VarReader,
    frame,
    read_frame,
    write_frame,
)
from repro.serve.server import ReplicaServer, _Inbound
from repro.serve.shard import ClusterSpec, parse_endpoint
from repro.sim.node import Node
from repro.sim.trace import NullTrace

from tests.serve.fakes import Duplex, FakeLoop, FakeTransport, deliver
from tests.serve.test_session import Group, run

#: bytes of a WAL record before its payload: kind + a tagged float time
_BATCH_HEADER = 1 + 1 + 8
#: every wait below is bounded: a regression fails, it does not hang
_PATIENCE = 10.0


async def eventually(condition) -> None:
    async def poll():
        while not condition():
            await asyncio.sleep(0.005)
    await asyncio.wait_for(poll(), _PATIENCE)


async def closed_by_server(reader) -> bool:
    """Whether the replica closes the connection; what it wrote before
    (a peer link's resync) is skipped."""
    await asyncio.wait_for(reader.read(), _PATIENCE)
    return reader.at_eof()


def split_batch(payload: bytes) -> list:
    """The message bodies of one MSG_BATCH frame, as the byte slices."""
    r = VarReader(payload)
    assert r.u8() == FRAME_MSG_BATCH
    bodies = []
    for _ in range(r.uvarint()):
        start = r.pos
        codec.decode_message_from(r)
        bodies.append(payload[start:r.pos])
    assert r.done()
    return bodies


def journaled_frames(wal_path) -> list:
    """The peer frames a replica journaled, each as the MSG_BATCH body
    it arrived as."""
    return [body[_BATCH_HEADER:] for body in dur.read_wal(wal_path).bodies
            if body[0] == dur.KIND_BATCH]


class TestOneBody:
    def test_links_buffer_snapshot_and_wal_hold_the_same_bytes(
            self, tmp_path, monkeypatch):
        sent_frames = []     # (transport, payload) of every frame written

        def spy(transport, body):
            sent_frames.append((transport, body))
            write_frame(transport, body)

        monkeypatch.setattr(server_mod, "write_frame", spy)
        encodes = []         # every message encoded, by any of the replicas
        encode_into = codec.encode_message_into

        def counting(w, message, *intern):
            encodes.append(message.wid)
            encode_into(w, message, *intern)

        monkeypatch.setattr(codec, "encode_message_into", counting)
        wal = tmp_path / "wal"
        writes = [(f"k{i % 3}", f"value-{i}") for i in range(7)]

        async def go():
            group = Group(tmp_path)
            group.servers = [
                ReplicaServer(group.spec, 0, i, rundir=tmp_path, wal_dir=wal,
                              snapshot_every=3)
                for i in range(3)]
            async with group:
                origin = group.servers[0]
                client = AsyncSessionClient(group.spec, replica=0)
                for variable, value in writes:
                    await client.put(variable, value)
                await client.close()
                await eventually(lambda: all(
                    s.applied[0] == len(writes) for s in group.servers))
                by_link = {link.transport: dest
                           for dest, link in origin._links.items()}
                return origin, by_link

        origin, by_link = run(go())
        sent = origin._sent
        assert len(sent) == len(writes)
        # one encode per write in the whole group, snapshots included (it
        # was two at the origin, one more in each receiver's journal and
        # all of ``_sent`` again at every snapshot)
        assert encodes == [WriteId(0, k + 1) for k in range(len(writes))]
        # (b) the buffer holds (e) the canonical encoding of each write
        for k, (body, (variable, value)) in enumerate(zip(sent, writes)):
            assert type(body) is bytes
            message = codec.decode_message(body)
            assert (message.sender, message.wid) == (0, WriteId(0, k + 1))
            assert (message.variable, message.value) == (variable, value)
            assert codec.encode_message(message) == body
        # (a) each peer link sent exactly those slices, in order
        frames_to = {1: [], 2: []}
        for transport, payload in sent_frames:
            if transport in by_link and payload[0] == FRAME_MSG_BATCH:
                frames_to[by_link[transport]].append(payload)
        on_wire = {dest: [body for payload in frames
                          for body in split_batch(payload)]
                   for dest, frames in frames_to.items()}
        assert on_wire == {1: sent, 2: sent}
        # (c) the snapshot stores them as they are
        doc = dur.decode_snapshot(dur.read_framed_file(wal / "node-g0n0.snap"))
        assert len(doc["sent"]) >= 3
        assert doc["sent"] == sent[:len(doc["sent"])]
        # (d) and each receiver journaled the bytes it was sent: every
        # frame, whole, one record each
        for peer in (1, 2):
            assert journaled_frames(wal / f"node-g0n{peer}.wal") \
                == frames_to[peer]

    def test_resync_resends_the_stored_suffix(self, tmp_path, monkeypatch):
        """Each end of one peer connection says in the handshake how many
        of the other's writes it holds -- the dialer in HELLO, the
        acceptor in WELCOME -- and is sent the rest of the other's
        ``_sent``, byte for byte, with nothing encoded again."""
        spec = ClusterSpec.local_uds(tmp_path, "optp", 1, 2)
        low, high = (ReplicaServer(spec, 0, i) for i in range(2))
        for i in range(5):
            low.node.do_write("x", f"v{i}")          # no link yet: only _sent
        for i in range(3):
            high.node.do_write("y", f"w{i}")
        high._receive_batch(0, codec.encode_batch(low._sent[:2]))
        low._receive_batch(1, codec.encode_batch(high._sent[:1]))
        encodes = []
        monkeypatch.setattr(codec, "encode_message_into",
                            lambda *args: encodes.append(args))

        wire = Duplex(high, low, FakeLoop())
        wire.pump()

        def sent_on(conn):
            handshake, *batches = conn.transport.written
            return handshake[4:], [split_batch(data[4:]) for data in batches]

        # the dialer: HELLO "I hold 2 of yours", then, as one frame, the
        # suffix the WELCOME asks for; the acceptor: the mirror image
        assert sent_on(wire.dialed) == (peer_hello(1, 2), [high._sent[1:]])
        assert sent_on(wire.accepted) == (
            bytes([FRAME_PEER_WELCOME, 1]), [low._sent[2:]])
        assert encodes == []
        assert low.applied[1] == 3 and high.applied[0] == 5
        assert low.node.buffered_count == high.node.buffered_count == 0


def peer_hello(identity: int, acked: int = 0) -> bytes:
    """A peer's HELLO: who it is, and how many of the receiver's writes
    it holds."""
    w = codec.VarWriter()
    w.u8(FRAME_HELLO)
    w.u8(ROLE_PEER)
    w.uvarint(identity)
    w.uvarint(acked)
    return w.getvalue()


class FakePeer:
    """The other processes of a group (of 2 unless said), driven by hand:
    their real OptP updates, and raw access to the bytes they put on a
    peer connection to the served ``replica`` (0 unless said)."""

    def __init__(self, tmp_path, group_size=2, replica=0):
        self.spec = ClusterSpec.local_uds(tmp_path, "optp", 1, group_size)
        self.replica = replica
        self.server = ReplicaServer(self.spec, 0, replica, rundir=tmp_path,
                                    wal_dir=tmp_path / "wal")
        #: each process's canonical bodies, in issue order
        self.sent = {p: [] for p in range(group_size)}
        self._sent = self.sent[1]
        self._nodes = {
            p: Node(PROTOCOLS["optp"](p, group_size), NullTrace(group_size),
                    clock=lambda: 0.0,
                    dispatch=lambda _, outs, sent=self.sent[p]: sent.extend(
                        codec.encode_message(o.message) for o in outs))
            for p in range(group_size)}

    def updates(self, count: int, process: int = 1) -> list:
        """Canonical bodies of ``process``'s next ``count`` writes, one
        fresh variable name each (``name-i``, ``p<process>-name-i``
        beyond process 1)."""
        sent = self.sent[process]
        prefix = "" if process == 1 else f"p{process}-"
        start = len(sent)
        for i in range(start, start + count):
            self._nodes[process].do_write(f"{prefix}name-{i}", i)
        return sent[start:]

    async def __aenter__(self):
        self.server._loop = asyncio.get_running_loop()
        await self.server._listen()
        return self

    async def __aexit__(self, *exc):
        await self.server._teardown()

    async def connect(self, hello: bytes):
        """Open a connection to the replica and say ``hello`` on it."""
        _, path = parse_endpoint(self.spec.endpoint(0, self.replica))
        reader, writer = await asyncio.open_unix_connection(path)
        write_frame(writer, hello)
        return reader, writer

    async def hello(self, identity: int):
        """Open a peer connection claiming to be ``identity``."""
        return await self.connect(peer_hello(identity))

    async def dial(self, identity: int = 1):
        reader, writer = await self.hello(identity)
        assert (await read_frame(reader))[0] == FRAME_PEER_WELCOME
        return reader, writer

    @staticmethod
    def batch(bodies) -> bytes:
        return bytes([FRAME_MSG_BATCH, len(bodies)]) + b"".join(bodies)

    async def applied(self, count: int, process: int = 1) -> None:
        await eventually(lambda: self.server.applied[process] == count)


def referencing_update(seq: int) -> bytes:
    """An update whose variable is "entry 0 of this connection's table":
    what an interning sender wrote for a name it had already spelled."""
    return bytes([0, 1, 1, seq, 2, 0, 0])


class TestStatelessPeerPlane:
    def test_spelled_out_names_build_no_table(self, tmp_path):
        """300 updates with 300 distinct names over one connection, then
        a reference to "the first name": there is no first name, because
        nothing was kept -- the old per-connection decoder appended every
        spelled-out name to a list for the life of the connection."""
        async def go():
            async with FakePeer(tmp_path) as peer:
                reader, writer = await peer.dial()
                bodies = peer.updates(300)
                for i in range(0, 300, 100):
                    write_frame(writer, peer.batch(bodies[i:i + 100]))
                await peer.applied(300)
                write_frame(writer, peer.batch([referencing_update(45)]))
                assert await closed_by_server(reader)
                server = peer.server
                assert server.stats["client_aborts"] == 1
                assert server.stats["wal_records"] == 3     # one per frame
                assert server.applied == [0, 300]

        run(go())

    def test_table_reference_drops_only_that_connection(self, tmp_path):
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                _, good = await peer.dial()
                bad_reader, bad = await peer.dial(2)
                first, second = peer.updates(2)
                write_frame(bad, peer.batch([referencing_update(1)]))
                assert await closed_by_server(bad_reader)
                assert server.stats["client_aborts"] == 1
                assert server.stats["wal_records"] == 0      # nothing journaled
                assert server.applied == [0, 0, 0]
                # the other connection never noticed
                write_frame(good, peer.batch([first, second]))
                await peer.applied(2)
                assert server.stats["wal_records"] == 1      # the frame
                assert server.stats["client_aborts"] == 1
            # and what was journaled replays with no connection at all
            path = tmp_path / "wal" / "node-g0n0.wal"
            assert journaled_frames(path) == [peer.batch([first, second])]
            wal = dur.read_wal(path)
            node = Node(PROTOCOLS["optp"](0, 3), NullTrace(3),
                        clock=lambda: 0.0,
                        dispatch=lambda sender, outgoing: None, dedup=True)
            dur.recover_node(node, None, wal.bodies, [])
            assert node.do_read("name-1") == 1

        run(go())


def _update(sender=1, wid=WriteId(1, 1), write_co=(0, 1, 0), **payload):
    if write_co is not None:
        payload["write_co"] = write_co
    return UpdateMessage(sender=sender, wid=wid, variable="k", value="v",
                         payload=payload)


#: (what is wrong, the message): each arrives on a connection that said
#: HELLO as peer 1 of a 3-group, at replica 0.
MALFORMED = [
    ("no Write_co at all", _update(write_co=None)),
    ("Write_co shorter than the group", _update(write_co=(0, 1))),
    ("Write_co longer than the group", _update(write_co=(0, 1, 0, 0))),
    ("a component that is not an integer", _update(write_co=(0, 1, "0"))),
    ("Write_co that is not a vector", _update(write_co=7)),
    ("Write_co that is a mapping", _update(write_co={0: 0, 1: 1, 2: 0})),
    ("Write_co that is a mutable list", _update(write_co=[0, 1, 0])),
    ("sender outside the group", _update(sender=3, wid=WriteId(3, 1))),
    ("sender is the receiver itself",
     _update(sender=0, wid=WriteId(0, 1), write_co=(1, 0, 0))),
    ("sender is another peer than the link's",
     _update(sender=2, wid=WriteId(2, 1), write_co=(0, 0, 1))),
    ("write id of another process", _update(wid=WriteId(2, 1))),
    ("a control message",
     ControlMessage(sender=1, kind="token", payload={})),
]


#: (why, the replica dialed, the HELLO it is sent): each is refused
#: before any WELCOME, in a 3-group
REFUSED_HELLOS = [
    ("beyond-the-group", 0, peer_hello(3)),
    ("the-receiver-itself", 0, peer_hello(0)),
    ("huge", 0, peer_hello(1 << 40)),
    ("lower-than-the-receiver", 1, peer_hello(0)),   # it should be dialed
    ("trailing-byte", 0, peer_hello(1) + b"\x00"),
    ("no-ack", 0, peer_hello(1)[:-1]),               # an older build's
]


class TestMalformedPeerUpdates:
    """Nothing the protocol cannot evaluate reaches the journal: a WAL
    record is replayed on every later start, so one malformed update
    journaled is a replica that never boots again."""

    @pytest.mark.parametrize("message", [m for _, m in MALFORMED],
                             ids=[why for why, _ in MALFORMED])
    def test_rejected_at_the_door(self, tmp_path, message):
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                reader, writer = await peer.dial()
                write_frame(writer,
                            peer.batch([codec.encode_message(message)]))
                assert await closed_by_server(reader)
                assert server.stats["client_aborts"] == 1
                assert server.stats["wal_records"] == 0   # nothing journaled
                assert server.applied == [0, 0, 0]
                assert server.node.buffered_count == 0
                # other connections keep serving: a well-formed update
                # on a fresh link, and a client
                _, good = await peer.dial()
                write_frame(good, peer.batch(peer.updates(1)))
                await peer.applied(1)
                client = AsyncSessionClient(peer.spec, replica=0)
                await client.put("mine", 1)
                assert await client.get("mine") == 1
                assert await client.get("name-0") == 0
                await client.close()
                assert server.stats["client_aborts"] == 1
            # and the replica restarts cleanly from what it did journal
            again = ReplicaServer(peer.spec, 0, 0, rundir=tmp_path,
                                  wal_dir=tmp_path / "wal")
            assert again.stats["recovered"] == 1
            assert again.applied == [1, 1, 0]
            assert again.node.do_read("mine") == 1

        run(go())

    @pytest.mark.parametrize("replica, hello",
                             [case[1:] for case in REFUSED_HELLOS],
                             ids=[case[0] for case in REFUSED_HELLOS])
    def test_hello_from_no_group_peer(self, tmp_path, replica, hello):
        async def go():
            async with FakePeer(tmp_path, group_size=3,
                                replica=replica) as peer:
                reader, _ = await peer.connect(hello)
                # closed, and nothing written first: no WELCOME
                assert await asyncio.wait_for(reader.read(),
                                              _PATIENCE) == b""
                assert peer.server.stats["client_aborts"] == 1
                _, good = await peer.dial(2)
                write_frame(good, peer.batch(peer.updates(1, process=2)))
                await peer.applied(1, process=2)

        run(go())

    def test_welcome_with_trailing_bytes(self, tmp_path):
        """The dialing end refuses a WELCOME with bytes after its ack,
        as the accepting end refuses such a HELLO."""
        server = ReplicaServer(
            ClusterSpec.local_uds(tmp_path, "optp", 1, 2), 0, 1)
        server._loop = FakeLoop()
        conn = _Inbound(server, dial=0)
        conn.connection_made(FakeTransport())
        deliver(conn, frame(bytes([FRAME_PEER_WELCOME, 0, 0])))
        assert conn.transport.closed
        assert server.stats["client_aborts"] == 1
        assert server._links == {} and server.stats["peer_dials"] == 0

    def test_a_redial_replaces_the_link(self, tmp_path):
        """Peer 1 dials again before replica 0 has seen its old
        connection go, as a restart faster than the EOF would: the old
        connection is closed first and the WELCOME counts only what was
        applied, so what the old one still carried is sent again, and
        what arrives twice is dropped by dedup."""
        async def go():
            async with FakePeer(tmp_path) as peer:
                server = peer.server
                client = AsyncSessionClient(peer.spec, replica=0)
                await client.put("mine", 1)
                old_reader, old = await peer.dial()
                first, second, third = peer.updates(3)
                write_frame(old, peer.batch([first]))
                data = frame(peer.batch([second, third]))
                old.write(data[:-3])                 # never completed
                await old.drain()
                await peer.applied(1)
                reader, new = await peer.hello(1)
                assert await read_frame(reader) == bytes(
                    [FRAME_PEER_WELCOME, 1])
                assert await closed_by_server(old_reader)
                # the replica's own write, resent on the new link
                assert split_batch(await read_frame(reader)) == server._sent
                write_frame(new, peer.batch([second, third]))
                write_frame(new, peer.batch([first, second, third]))
                await eventually(lambda: server.stats["frames_in"] == 3)
                assert server.applied == [1, 3]
                assert server.node.buffered_count == 0
                assert list(server._links) == [1]
                assert not server._links[1].transport.is_closing()
                assert await client.get("name-2") == 2
                await client.close()
            again = ReplicaServer(peer.spec, 0, 0, rundir=tmp_path,
                                  wal_dir=tmp_path / "wal")
            assert again.applied == [1, 3]

        run(go())

    def test_a_bad_update_rejects_its_whole_frame(self, tmp_path):
        """A batch is journaled as one record, so it is admitted whole or
        not at all: an update that fails the door after good ones leaves
        nothing of its frame journaled or applied."""
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                server = peer.server
                reader, writer = await peer.dial()
                first, second = peer.updates(2)
                poison = codec.encode_message(_update(write_co=None))
                write_frame(writer, peer.batch([first, poison, second]))
                assert await closed_by_server(reader)
                assert server.applied == [0, 0, 0]
                assert server.stats["wal_records"] == 0
                assert server.node.buffered_count == 0
                # the good updates, resent on a fresh link, all apply
                _, good = await peer.dial()
                write_frame(good, peer.batch([first, second]))
                await peer.applied(2)
                assert server.stats["wal_records"] == 1

        run(go())
