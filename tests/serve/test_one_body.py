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
    read_frame,
    write_frame,
)
from repro.serve.server import ReplicaServer
from repro.serve.shard import ClusterSpec, parse_endpoint
from repro.sim.node import Node
from repro.sim.trace import NullTrace

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
    return await asyncio.wait_for(reader.read(), _PATIENCE) == b""


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
        sent_frames = []     # (writer, payload) of every frame server 0 wrote

        def spy(writer, body):
            sent_frames.append((writer, body))
            write_frame(writer, body)

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
                by_link = {link.writer: dest
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
        for writer, payload in sent_frames:
            if writer in by_link and payload[0] == FRAME_MSG_BATCH:
                frames_to[by_link[writer]].append(payload)
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

    def test_resync_resends_the_stored_suffix(self, tmp_path):
        """A peer that acknowledges K writes in its WELCOME is sent
        ``_sent[K:]``, byte for byte, with nothing encoded again."""
        spec = ClusterSpec.local_uds(tmp_path, "optp", 1, 2)
        origin = ReplicaServer(spec, 0, 0, rundir=tmp_path)
        for i in range(5):
            origin.node.do_write("x", f"v{i}")       # no link yet: only _sent
        received = []

        async def stale_peer(reader, writer):
            assert (await read_frame(reader))[0] == FRAME_HELLO
            welcome = codec.VarWriter()
            welcome.u8(FRAME_PEER_WELCOME)
            welcome.uvarint(2)                       # "I applied two of yours"
            write_frame(writer, welcome.getvalue())
            received.extend(split_batch(await read_frame(reader)))
            writer.close()

        async def go():
            origin._loop = asyncio.get_running_loop()
            _, path = parse_endpoint(spec.endpoint(0, 1))
            listener = await asyncio.start_unix_server(stale_peer, path=path)
            supervisor = asyncio.ensure_future(origin._peer_supervisor(1))
            await eventually(lambda: len(received) == 3)
            origin._stop.set()
            await asyncio.wait_for(supervisor, _PATIENCE)
            listener.close()
            await listener.wait_closed()

        run(go())
        assert received == origin._sent[2:]


class FakePeer:
    """Process 1 of a group (of 2 unless said), driven by hand: its real
    OptP updates, and raw access to the bytes it puts on a peer
    connection to replica 0."""

    def __init__(self, tmp_path, group_size=2):
        self.spec = ClusterSpec.local_uds(tmp_path, "optp", 1, group_size)
        self.server = ReplicaServer(self.spec, 0, 0, rundir=tmp_path,
                                    wal_dir=tmp_path / "wal")
        self._sent = []
        self._node = Node(
            PROTOCOLS["optp"](1, group_size), NullTrace(group_size),
            clock=lambda: 0.0,
            dispatch=lambda _, outs: self._sent.extend(
                codec.encode_message(o.message) for o in outs))

    def updates(self, count: int) -> list:
        """Canonical bodies of its next ``count`` writes, one fresh
        variable name each."""
        start = len(self._sent)
        for i in range(start, start + count):
            self._node.do_write(f"name-{i}", i)
        return self._sent[start:]

    async def __aenter__(self):
        self.server._loop = asyncio.get_running_loop()
        await self.server._listen()
        return self

    async def __aexit__(self, *exc):
        await self.server._teardown()

    async def hello(self, identity: int):
        """Open a peer connection claiming to be ``identity``."""
        _, path = parse_endpoint(self.spec.endpoint(0, 0))
        reader, writer = await asyncio.open_unix_connection(path)
        hello = codec.VarWriter()
        hello.u8(FRAME_HELLO)
        hello.u8(ROLE_PEER)
        hello.uvarint(identity)
        write_frame(writer, hello.getvalue())
        return reader, writer

    async def dial(self):
        reader, writer = await self.hello(1)
        assert (await read_frame(reader))[0] == FRAME_PEER_WELCOME
        return reader, writer

    @staticmethod
    def batch(bodies) -> bytes:
        return bytes([FRAME_MSG_BATCH, len(bodies)]) + b"".join(bodies)

    async def applied(self, count: int) -> None:
        await eventually(lambda: self.server.applied[1] == count)


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
            async with FakePeer(tmp_path) as peer:
                server = peer.server
                _, good = await peer.dial()
                bad_reader, bad = await peer.dial()
                first, second = peer.updates(2)
                write_frame(bad, peer.batch([referencing_update(1)]))
                assert await closed_by_server(bad_reader)
                assert server.stats["client_aborts"] == 1
                assert server.stats["wal_records"] == 0      # nothing journaled
                assert server.applied == [0, 0]
                # the other connection never noticed
                write_frame(good, peer.batch([first, second]))
                await peer.applied(2)
                assert server.stats["wal_records"] == 1      # the frame
                assert server.stats["client_aborts"] == 1
            # and what was journaled replays with no connection at all
            path = tmp_path / "wal" / "node-g0n0.wal"
            assert journaled_frames(path) == [peer.batch([first, second])]
            wal = dur.read_wal(path)
            node = dur.rebuild_node(PROTOCOLS["optp"], 0, 2, None,
                                    wal.bodies, dedup=True)
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

    @pytest.mark.parametrize("identity", [3, 0, 1 << 40],
                             ids=["beyond-the-group", "the-receiver-itself",
                                  "huge"])
    def test_hello_from_no_group_peer(self, tmp_path, identity):
        async def go():
            async with FakePeer(tmp_path, group_size=3) as peer:
                reader, _ = await peer.hello(identity)
                assert await closed_by_server(reader)   # no WELCOME
                assert peer.server.stats["client_aborts"] == 1
                _, good = await peer.dial()
                write_frame(good, peer.batch(peer.updates(1)))
                await peer.applied(1)

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
