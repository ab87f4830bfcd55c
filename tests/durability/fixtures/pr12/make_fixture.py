"""How ``node-g0n0.wal``, ``node-g0n0.snap`` and ``expected.bin`` were made.

Run once against a checkout of the commit *before* update bodies became
canonical everywhere (PR 12, 9fb6600)::

    PYTHONPATH=<that checkout>/src python make_fixture.py <output dir>

It drives one durable replica of a 3-group in process: own writes, reads,
and receipts from peers 1 and 2 -- one of them out of order, so the
snapshot (taken while it is buffered) holds a pending message and a gap
in the dedup guard -- then a WAL tail past the snapshot.  ``expected.bin``
is the state that commit itself recovered from the two files.
"""

import sys
from pathlib import Path

from repro import durability as dur
from repro.protocols import PROTOCOLS
from repro.serve.codec import encode_message
from repro.serve.server import ReplicaServer
from repro.serve.shard import ClusterSpec
from repro.sim.node import Node
from repro.sim.trace import NullTrace


def peer_updates(process: int, count: int) -> list:
    """The updates ``process`` broadcasts for ``count`` writes of its own."""
    sent = []
    node = Node(PROTOCOLS["optp"](process, 3), NullTrace(3),
                clock=lambda: 0.0,
                dispatch=lambda _, outs: sent.extend(o.message for o in outs))
    for i in range(count):
        node.do_write(f"p{process}k{i % 2}", f"p{process}v{i}")
    return sent


def server(root: Path) -> ReplicaServer:
    spec = ClusterSpec.local_uds(root, "optp", n_shards=1, group_size=3)
    return ReplicaServer(spec, 0, 0, rundir=root, record=False,
                         wal_dir=root / "wal", snapshot_every=9)


def main(out: Path) -> None:
    first = server(out)
    p1, p2 = peer_updates(1, 4), peer_updates(2, 2)
    steps = [("w", "a", "a0"), ("recv", p1[0]), ("r", "p1k0"),
             ("w", "b", "b0"), ("recv", p1[2]),      # ahead of p1[1]: buffered
             ("recv", p2[0]), ("w", "a", "a1"), ("recv", p1[0]),   # duplicate
             ("r", "a"),                             # 9th record: snapshot
             ("recv", p1[1]), ("recv", p1[3]), ("w", "c", "c0"),
             ("recv", p2[1]), ("r", "p2k1")]
    for step in steps:
        t = first._now()
        if step[0] == "w":
            first._wal_append(dur.encode_write_record(t, step[1], step[2]))
            wid = first.node.do_write(step[1], step[2])
            first.applied[0] = wid.seq
        elif step[0] == "r":
            first._wal_append(dur.encode_read_record(t, step[1]))
            first.node.do_read(step[1])
        else:
            first._wal_append(dur.encode_recv_record(t, step[1]))
            first.node.receive(step[1])
        first._maybe_snapshot()
    first._wal.close()
    assert first.stats["snapshots"] == 1

    second = server(out)
    assert second.stats["recovered"] == 1
    assert second.applied == first.applied
    expected = {"applied": second.applied,
                "node": dur.snapshot_node(second.node),
                "sent": [encode_message(m) for m in second._sent]}
    second._wal.close()
    for name in ("node-g0n0.wal", "node-g0n0.snap"):
        (out / name).write_bytes((out / "wal" / name).read_bytes())
    (out / "expected.bin").write_bytes(dur.encode_snapshot(expected))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
