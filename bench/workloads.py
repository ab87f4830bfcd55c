"""The four workloads and the deterministic op streams they generate.

Everything the load driver sends is generated here, before the
deployment boots, from ``random.Random(seed)``: the same seed gives the
same frames byte for byte (:meth:`Plan.digest`), so the program under
test only ever sees generated inputs.

Every key has exactly one writer *in causal order*: on the pinned
workloads key ``k<i>`` is written only by session ``i mod 2``; on
``kv-session-hop`` the one logical session reads every key it wrote at
the other replica before anybody writes that key again.  That is what
makes the expected value of a read computable here, and what makes the
three replicas converge (causal memory promises nothing about
concurrent writes to one key).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.serve.codec import OP_READ, OP_WRITE

KEYS = 1024
VALUE_BYTES = 64
LANES = 2             #: client connections (= sessions on the pinned workloads)
SEGMENTS = 48         #: measured segments of the pipelined phase (K)
RUN_SECONDS = 10      #: the ``--seconds`` the frozen op counts are sized for
PRELOAD_BATCH = 64

Op = Tuple[int, str, Optional[str]]


def key(index: int) -> str:
    return f"k{index}"


def value(session: int, seq: int) -> str:
    """64 bytes carrying ``(session, seq)``; zero-padded so that string
    order is write order and the monotonic-read check needs no parsing."""
    head = f"{session}:{seq:012d}:"
    return head + "x" * (VALUE_BYTES - len(head))


class Frame(NamedTuple):
    """One REQUEST frame: where it goes, its ops, and per op the exact
    value a read must return (None: a write, or a read of a key another
    session owns, which is checked for monotonicity instead)."""

    replica: int
    ops: List[Op]
    expect: List[Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    read_share: float      #: exact share of reads (unused when ``hop``)
    batch: int             #: B, ops per pipelined REQUEST frame
    pipelined_ops: int     #: N, measured ops of the pipelined phase
    single_ops: int        #: N1, ops of the single phase
    traced_pipelined_ops: int
    traced_single_ops: int
    durable: bool = False
    hop: bool = False
    #: End-to-end metrics that measure a timer, not CPU work, and are
    #: therefore not scaled by the host's speed.
    timer_bound: Tuple[str, ...] = ()

    @property
    def lanes(self) -> int:
        return 1 if self.hop else LANES


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "kv-read-heavy",
        "95/5 pinned: the client plane does nearly all the work, so a "
        "peer-plane or WAL change must show no change here",
        0.95, 32, 768_000, 48_000, 76_800, 6_000),
    Workload(
        "kv-update-heavy",
        "50/50 pinned: every write is encoded twice and decoded, checked "
        "and applied on two peers, so the peer plane and micro-batching "
        "dominate",
        0.5, 32, 384_000, 32_000, 38_400, 4_000),
    Workload(
        "kv-durable",
        "kv-update-heavy with a WAL, then SIGKILL and restart of replica "
        "1: append, fsync and snapshot dominate and reads are journaled "
        "too",
        0.5, 32, 92_160, 8_000, 30_720, 2_000, durable=True),
    Workload(
        "kv-session-hop",
        "one session hopping between two replicas: every read waits for "
        "a causal dependency, so read latency is visibility latency and "
        "batching shows its cost",
        0.5, 16, 69_120, 6_000, 9_216, 1_000, hop=True,
        # a hop waits for the peer's batch window, whatever the CPU does
        timer_bound=("ops_per_s", "read_p50_ms", "read_p90_ms")),
)}


class _Session:
    """Generator state of one logical session."""

    def __init__(self, sid: int, rng: random.Random, keys: int) -> None:
        self.sid = sid
        self.rng = rng
        self.keys = keys
        self.seq = 0
        self.last: Dict[int, str] = {}   #: key index -> last value written
        self.writes_at = [0, 0, 0]       #: writes acknowledged per replica
        self.hops = 0                    #: requests issued (hop parity)
        self.prev: List[int] = []        #: keys the previous hop wrote

    def write(self, index: int, replica: int) -> Op:
        self.seq += 1
        val = value(self.sid, self.seq)
        self.last[index] = val
        self.writes_at[replica] += 1
        return (OP_WRITE, key(index), val)

    def read(self, index: int) -> Tuple[Op, Optional[str]]:
        return (OP_READ, key(index), None), self.last.get(index)


def _preload(sess: _Session, indices: List[int], replica: int) -> List[Frame]:
    frames = []
    for start in range(0, len(indices), PRELOAD_BATCH):
        chunk = indices[start:start + PRELOAD_BATCH]
        frames.append(Frame(replica, [sess.write(i, replica) for i in chunk],
                            [None] * len(chunk)))
    return frames


def _pinned_frames(sess: _Session, ops: int, read_share: float,
                   batch: int) -> List[Frame]:
    """``ops`` ops for one pinned session: exactly ``round(ops *
    read_share)`` reads of any key, the rest writes of own keys."""
    reads = round(ops * read_share)
    kinds = [OP_READ] * reads + [OP_WRITE] * (ops - reads)
    sess.rng.shuffle(kinds)
    frames = []
    for start in range(0, ops, batch):
        fops: List[Op] = []
        expect: List[Optional[str]] = []
        for kind in kinds[start:start + batch]:
            if kind == OP_WRITE:
                own = LANES * sess.rng.randrange(sess.keys // LANES) + sess.sid
                fops.append(sess.write(own, sess.sid))
                expect.append(None)
            else:
                op, want = sess.read(sess.rng.randrange(sess.keys))
                fops.append(op)
                expect.append(want)
        frames.append(Frame(sess.sid, fops, expect))
    return frames


def _hop_read_prev(sess: _Session) -> Tuple[List[Op], List[Optional[str]]]:
    pairs = [sess.read(i) for i in sess.prev]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _hop_frames(sess: _Session, ops: int, batch: int) -> List[Frame]:
    """Request k goes to replica ``k mod 2``, reads what request k-1
    wrote at the other replica and writes ``batch / 2`` other keys."""
    width = batch // 2
    frames = []
    for _ in range(ops // batch):
        replica = sess.hops % 2
        sess.hops += 1
        fops, expect = _hop_read_prev(sess)
        fresh = sess.rng.sample(range(sess.keys), width)
        fops += [sess.write(i, replica) for i in fresh]
        expect += [None] * width
        sess.prev = fresh
        frames.append(Frame(replica, fops, expect))
    return frames


def _hop_single(sess: _Session, ops: int) -> List[Frame]:
    """``put`` at one replica, then ``get`` of that key at the other.

    Starts with one read-only bridge request so that the last pipelined
    writes are read at the other replica before any of their keys can be
    written again (keeps all writes of a key causally ordered)."""
    replica = sess.hops % 2
    sess.hops += 1
    fops, expect = _hop_read_prev(sess)
    sess.prev = []
    frames = [Frame(replica, fops, expect)]
    for _ in range(ops // 2):
        replica = sess.hops % 2
        sess.hops += 1
        index = sess.rng.randrange(sess.keys)
        frames.append(Frame(replica, [sess.write(index, replica)], [None]))
        op, want = sess.read(index)
        frames.append(Frame(1 - replica, [op], [want]))
    return frames


@dataclass
class Plan:
    """Every frame of one run, per lane."""

    preload: List[List[Frame]]
    #: ``segments[s][lane]``; segment 0 is the discarded warm-up.
    segments: List[List[List[Frame]]]
    single: List[List[Frame]]
    final: Dict[str, str] = field(default_factory=dict)
    writes_at: List[int] = field(default_factory=lambda: [0, 0, 0])

    @property
    def segment_ops(self) -> int:
        return sum(len(f.ops) for lane in self.segments[1] for f in lane)

    @property
    def pipelined_ops(self) -> int:
        """N: the ops of the measured segments."""
        return self.segment_ops * (len(self.segments) - 1)

    @property
    def single_ops(self) -> int:
        return sum(len(f.ops) for lane in self.single for f in lane
                   if len(f.ops) == 1)

    def frames(self):
        for lanes in [self.preload, *self.segments, self.single]:
            for lane in lanes:
                yield from lane

    def digest(self) -> str:
        h = hashlib.sha256()
        for frame in self.frames():
            h.update(repr(tuple(frame)).encode())
        return h.hexdigest()


def scaled_counts(wl: Workload, seconds: float,
                  traced: bool = False) -> Tuple[int, int]:
    """(N, N1) for a run of ``seconds``: the frozen counts scale with the
    requested run length, they never depend on how fast the build is."""
    scale = seconds / RUN_SECONDS
    if traced:
        return (int(wl.traced_pipelined_ops * scale),
                int(wl.traced_single_ops * scale))
    return int(wl.pipelined_ops * scale), int(wl.single_ops * scale)


def build_plan(wl: Workload, seed: int, pipelined_ops: int,
               single_ops: int, *, keys: int = KEYS,
               segments: int = SEGMENTS) -> Plan:
    """Generate the run: ``pipelined_ops`` over ``segments`` measured
    segments (plus one warm-up segment of the same size).  Counts are
    rounded down to whole frames per lane and segment (at least one)."""
    lanes = wl.lanes
    seg_ops = max(1, pipelined_ops // (segments * lanes * wl.batch)) * wl.batch
    lane_single = max(2, single_ops // lanes // 2 * 2)
    sessions = [_Session(sid, random.Random(f"{wl.name}/{seed}/{sid}"), keys)
                for sid in range(lanes)]
    preload: List[List[Frame]] = []
    segs: List[List[List[Frame]]] = [[] for _ in range(segments + 1)]
    single: List[List[Frame]] = []
    for sess in sessions:
        if wl.hop:
            # one session owns every key; it preloads each half at the
            # replica whose pinned session would own it
            lane = []
            for replica in range(LANES):
                lane += _preload(sess, list(range(replica, keys, LANES)),
                                 replica)
            sess.prev = sess.rng.sample(range(keys), wl.batch // 2)
        else:
            lane = _preload(sess, list(range(sess.sid, keys, LANES)),
                            sess.sid)
        preload.append(lane)
        for seg in segs:
            seg.append(_hop_frames(sess, seg_ops, wl.batch) if wl.hop else
                       _pinned_frames(sess, seg_ops, wl.read_share, wl.batch))
        single.append(_hop_single(sess, lane_single) if wl.hop else
                      _pinned_frames(sess, lane_single, wl.read_share, 1))
    plan = Plan(preload, segs, single)
    for sess in sessions:
        plan.final.update({key(i): v for i, v in sess.last.items()})
        plan.writes_at = [a + b for a, b in zip(plan.writes_at, sess.writes_at)]
    return plan

