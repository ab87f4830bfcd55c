"""How ``node-g0n0.wal``, ``node-g0n0.snap`` and ``expected.bin`` were made.

Run once against the commit that made a WAL record of each inbound frame::

    PYTHONPATH=<that checkout>/src python make_fixture.py <output dir>

It serves one durable replica of a 3-group in process, on stand-in
transports: peer frames of one and two updates (one out of order, so it
waits in the buffer; one a duplicate), and client requests of several
ops.  One request parks at a read its replica cannot serve yet, so it is
journaled as two runs of the same frame, and the snapshot is taken while
it is parked and the out-of-order update is buffered.  A WAL tail follows
the snapshot.  ``expected.bin`` is the state that commit recovered from
the two files.
"""

import sys
from pathlib import Path

from repro import durability as dur
from repro.protocols import PROTOCOLS
from repro.serve import codec
from repro.serve.codec import OP_READ, OP_WRITE, ROLE_CLIENT, ROLE_PEER, frame
from repro.serve.server import ReplicaServer, _Inbound
from repro.serve.shard import ClusterSpec
from repro.sim.node import Node
from repro.sim.trace import NullTrace


class Transport:
    """Takes what the replica writes; always reading, never closing."""

    def write(self, data):
        pass

    def is_closing(self):
        return False

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def connect(server: ReplicaServer, role: int, identity: int = 0) -> _Inbound:
    conn = _Inbound(server)
    conn.connection_made(Transport())
    send(conn, frame(bytes([codec.FRAME_HELLO, role, identity])))
    return conn


def send(conn: _Inbound, data: bytes) -> None:
    conn.get_buffer(-1)[:len(data)] = data
    conn.buffer_updated(len(data))


def peer_updates(process: int, count: int) -> list:
    """The canonical bodies ``process`` broadcasts for ``count`` writes."""
    sent = []
    node = Node(PROTOCOLS["optp"](process, 3), NullTrace(3),
                clock=lambda: 0.0,
                dispatch=lambda _, outs: sent.extend(
                    codec.encode_message(o.message) for o in outs))
    for i in range(count):
        node.do_write(f"p{process}k{i % 2}", f"p{process}v{i}")
    return sent


def server(root: Path) -> ReplicaServer:
    spec = ClusterSpec.local_uds(root, "optp", n_shards=1, group_size=3)
    return ReplicaServer(spec, 0, 0, rundir=root, record=False,
                         wal_dir=root / "wal", snapshot_every=7)


def main(out: Path) -> None:
    first = server(out)
    client = connect(first, ROLE_CLIENT)
    p1_link = connect(first, ROLE_PEER, 1)
    p2_link = connect(first, ROLE_PEER, 2)
    p1, p2 = peer_updates(1, 4), peer_updates(2, 2)

    def request(session, *ops):
        send(client, frame(codec.encode_request(session, list(ops))))

    def batch(link, *bodies):
        send(link, frame(codec.encode_batch(list(bodies))))

    request((0, 0, 0), (OP_WRITE, "a", "a0"), (OP_READ, "a", None))
    batch(p1_link, p1[0], p1[2])                 # p1[2] ahead of p1[1]
    # parks at the read: needs two of peer 1's writes, one is applied
    request((0, 2, 0), (OP_WRITE, "b", "b0"), (OP_READ, "p1k1", None),
            (OP_WRITE, "a", "a1"))
    assert first._parked == [client] and first.node.buffered_count == 1
    batch(p2_link, p2[0], p2[1])                 # 7th input: snapshot
    assert first.stats["snapshots"] == 1 and first._parked == [client]
    batch(p1_link, p1[1], p1[0])                 # resumes it; a duplicate
    assert first._parked == [] and first.node.buffered_count == 0
    batch(p1_link, p1[3])
    request((3, 4, 2), (OP_READ, "p2k1", None))
    first._wal.close()
    assert first.stats["snapshots"] == 1
    kinds = [dur.decode_record(body)[0]
             for body in dur.read_wal(out / "wal" / "node-g0n0.wal").bodies]
    assert set(kinds) == {dur.KIND_OPS, dur.KIND_BATCH}

    second = server(out)
    assert second.stats["recovered"] == 1
    assert second.applied == first.applied
    expected = {"applied": second.applied,
                "node": dur.snapshot_node(second.node),
                "sent": second._sent}
    second._wal.close()
    for name in ("node-g0n0.wal", "node-g0n0.snap"):
        (out / name).write_bytes((out / "wal" / name).read_bytes())
    (out / "expected.bin").write_bytes(dur.encode_snapshot(expected))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
