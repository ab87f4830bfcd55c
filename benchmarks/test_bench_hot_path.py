"""The interpreter work one served op pays, counted, not timed.

Three :class:`~repro.serve.server.ReplicaServer` instances run on the
fake loop and transports of ``tests/serve/fakes.py`` (no sockets, no
clock), fully meshed by three :class:`~tests.serve.fakes.Duplex`
connections.  Two client connections feed them the REQUEST frames of a
``kv-update-heavy`` plan from ``bench/workloads.py``; after each frame
every connection is pumped until nothing moves, so every write is
decoded, journaled nowhere (no WAL) and applied on both peers before
the next frame.

``sys.setprofile`` counts the Python ``call`` events whose code lives in
``src/repro`` -- or was generated for it: a dataclass's ``__init__``,
``__eq__`` and ``__hash__`` are compiled from source text and report the
file ``<string>`` -- while the measured segments run.  The calls per op
are a deterministic function of the code, so a regression on the hot
path fails here on any machine, without a timing run.  The drive is also a
byte gate: every replica's ``stats`` (``peer_bytes`` included) and the
RESPONSE bytes are pinned, so a change that saves calls by changing the
wire fails too.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_hot_path.py -q
"""

import hashlib
import sys
from pathlib import Path

import repro
from repro.serve import codec
from repro.serve.codec import FRAME_RESPONSE, OP_READ, ROLE_CLIENT
from repro.serve.server import ReplicaServer, _Inbound
from repro.serve.shard import ClusterSpec

from bench.workloads import WORKLOADS, build_plan
from tests.serve.fakes import Duplex, FakeLoop, FakeTransport, deliver

#: Python calls in ``src/repro`` per served op, the ceiling: this
#: code's own count, 32.1 on Python 3.11, plus 10 %.  3.12 was not
#: measured; it inlines comprehensions, which only removes calls.  The
#: code before the one-pass codec read 82.2.
CALLS_PER_OP_CEILING = 32.1 * 1.10

#: What the drive must leave behind, byte for byte: every replica's
#: ``stats``, and a digest of every RESPONSE.
_QUIET = {"read_waits": 0, "client_aborts": 0, "wal_records": 0,
          "snapshots": 0, "recovered": 0, "recovery_us": 0,
          "peer_flush_window": 0, "peer_flush_cap": 0}
_SERVING = {"writes": 1296, "reads": 784, "requests": 57,
            "peer_batches": 114, "peer_msgs": 2592, "frames_in": 57,
            "client_conns": 1, "peer_flush_idle": 114, **_QUIET}
EXPECTED_STATS = [
    {**_SERVING, "peer_bytes": 242582, "peer_dials": 0},
    {**_SERVING, "peer_bytes": 242588, "peer_dials": 1},
    {"writes": 0, "reads": 0, "requests": 0, "peer_batches": 0,
     "peer_msgs": 0, "peer_bytes": 0, "frames_in": 114, "client_conns": 0,
     "peer_dials": 2, "peer_flush_idle": 0, **_QUIET},
]
EXPECTED_RESPONSES = (
    "908a095bed925bf283a36fead2edb463b3bdcec2c08b49bb609fc7db4f56fd2f")

SEED = 0
N = 3
SRC = str(Path(repro.__file__).resolve().parent)


class Drive:
    """Three replicas, three peer connections, two client connections."""

    def __init__(self) -> None:
        spec = ClusterSpec.local_uds(Path("unused"), "optp", 1, N)
        self.loop = FakeLoop()
        # batch_window 0: every flush is an end-of-tick ``idle`` flush,
        # so the fake clock never has to move
        self.servers = [ReplicaServer(spec, 0, i, batch_window=0.0)
                        for i in range(N)]
        self.links = [Duplex(self.servers[hi], self.servers[lo], self.loop)
                      for lo in range(N) for hi in range(lo + 1, N)]
        self.settle()
        self.clients = []
        for srv in self.servers[:2]:
            conn = _Inbound(srv)
            conn.connection_made(FakeTransport())
            deliver(conn, codec.frame(codec.encode_hello(ROLE_CLIENT)))
            self.clients.append(conn)
        self.sessions = [(0,) * N, (0,) * N]
        self.answered = [0, 0]
        self.digest = hashlib.sha256()

    def settle(self) -> None:
        """Pump every connection until none moves and the loop is idle."""
        while True:
            before = sum(sum(d.carried.values()) for d in self.links)
            for link in self.links:
                link.pump()
            after = sum(sum(d.carried.values()) for d in self.links)
            if after == before and not self.loop.soon:
                return

    def encode(self, frames):
        """The REQUEST bodies of ``frames``, framed, each with the session
        its lane holds now; encoding is the client's work, not counted."""
        return [(f.replica, f.ops, f.expect,
                 codec.frame(codec.encode_request(self.sessions[f.replica],
                                                  f.ops)))
                for f in frames]

    def send(self, replica: int, blob: bytes) -> None:
        deliver(self.clients[replica], blob)
        self.settle()

    def answers(self, replica: int, ops, expect) -> None:
        """Check the one RESPONSE a frame got and fold its progress."""
        written = self.clients[replica].transport.written
        (blob,) = written[self.answered[replica]:]
        self.answered[replica] = len(written)
        self.digest.update(blob)
        progress, results = codec.decode_response(blob[4:])
        assert blob[4] == FRAME_RESPONSE and len(results) == len(ops)
        for (kind, _, _), (_, got), want in zip(ops, results, expect):
            if kind == OP_READ and want is not None:
                assert got == want
        self.sessions[replica] = tuple(
            max(a, b) for a, b in zip(self.sessions[replica], progress))


def count_calls(run) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and (frame.f_code.co_filename.startswith(SRC)
                                or frame.f_code.co_filename == "<string>"):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def drive():
    """Run the plan; return (calls per measured op, the drive)."""
    wl = WORKLOADS["kv-update-heavy"]
    plan = build_plan(wl, SEED, pipelined_ops=1, single_ops=1)
    d = Drive()
    for lane in plan.preload:
        for replica, ops, expect, blob in d.encode(lane):
            d.send(replica, blob)
            d.answers(replica, ops, expect)
    ops = 0
    calls = 0
    for segment in plan.segments:
        # one frame per lane per segment: send each, pipelined lanes
        # interleaved, with the session the previous answer left
        for lane in segment:
            for frame in lane:
                ((replica, fops, expect, blob),) = d.encode([frame])
                calls += count_calls(lambda: d.send(replica, blob))
                ops += len(fops)
                d.answers(replica, fops, expect)
    return calls / ops, d


def test_calls_per_op_stay_under_the_ceiling():
    per_op, d = drive()
    stats = [srv.stats for srv in d.servers]
    print(f"\n{per_op:.1f} Python calls per op "
          f"(ceiling {CALLS_PER_OP_CEILING:.1f}); stats {stats}; "
          f"responses {d.digest.hexdigest()}")
    assert [srv.node.buffered_count for srv in d.servers] == [0] * N
    assert stats == EXPECTED_STATS
    assert d.digest.hexdigest() == EXPECTED_RESPONSES
    assert per_op <= CALLS_PER_OP_CEILING
