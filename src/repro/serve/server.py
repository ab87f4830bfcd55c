"""One replica as a standalone asyncio server.

A :class:`ReplicaServer` hosts exactly the simulator's substrate -- a
:class:`repro.sim.node.Node` wrapping one registry protocol instance --
behind real sockets:

- **peer plane**: one connection per pair of group peers, dialed by the
  higher id, carries :data:`~repro.serve.codec.FRAME_MSG_BATCH` frames
  both ways.  Broadcasts are *micro-batched* by a self-clocked link: an
  update is appended to the per-peer buffer, and a link quiet for
  ``batch_window`` ships at the end of the current event-loop tick
  (after the WAL sync and the client's response; no timer), while a
  link that flushed inside the window waits out the remainder of it --
  so the window bounds the frame rate under load and costs an idle
  link nothing; the message/byte caps flush at once.  An update is
  encoded **once**, to its canonical body
  (:func:`~repro.serve.codec.encode_message`): every peer link, the
  retransmission buffer and the snapshot hold those same bytes, and a
  receiver journals the frame they arrived in.
- **client plane**: pipelined REQUEST/RESPONSE frames.  A request
  carries the client session vector; writes execute immediately, reads
  first need local dominance of that vector (read-your-writes +
  monotonic reads, Section "session guarantees" of docs/serving.md)
  and responses return the server's applied vector for the client to
  fold into its session.
- **admin plane**: quiesce polling and two-phase shutdown, so a parent
  can drain the deployment before asking nodes to dump their event
  logs (which keeps the Theorem-5 liveness check meaningful).

Every connection, accepted or dialed, is a :class:`asyncio.BufferedProtocol`
that serves each frame synchronously as it arrives (:class:`_Inbound`).

Everything protocol-visible reuses the existing substrate unchanged:
buffering goes through the same counting scheduler the simulator and
the model checker run, events land in a real
:class:`~repro.sim.trace.Trace` (or a no-op trace when not recording),
and the recorded log replays through every checker via
:mod:`repro.serve.merge` / :mod:`repro.serve.conformance`.

With ``wal_dir`` set the replica is *durable* (crash-recovery model,
``docs/fault-tolerance.md``): every client write, client read (OptP
reads mutate ``Write_co``, Figure 5 line 1) and peer receipt is
journaled to a CRC-framed write-ahead log as the frame that carried it
-- one record per peer MSG_BATCH, one per run of a client REQUEST --
before any op of that frame executes, the log is fsynced before any
effect externalizes (peer flush or client response -- group commit),
and the log is periodically folded into an atomic snapshot.  The node
clock is read once per frame, so every event of a frame carries the
time its record does, live and replayed alike.  A restarted replica
rebuilds its exact pre-crash state by snapshot restore + WAL replay,
tells each peer in the handshake (HELLO to a lower id, WELCOME to a
higher one) how many of its writes it holds, and is sent the suffix it
missed; the higher id of a pair redials, and both ends resync alike.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.base import BROADCAST, Outgoing, UpdateMessage
from repro.obs.spans import NULL_OBS, Obs
from repro.serve import codec
from repro.serve.codec import (
    FRAME_HELLO,
    FRAME_PEER_WELCOME,
    FRAME_STOP,
    FRAME_STOPPED,
    OP_READ,
    OP_WRITE,
    ROLE_ADMIN,
    ROLE_CLIENT,
    ROLE_PEER,
    CodecError,
    VarReader,
    VarWriter,
    read_frame,  # noqa: F401 -- unused, but bench/tracing.py wraps it here
    write_frame,
)
from repro.serve.merge import dump_node_log
from repro.serve.shard import ClusterSpec, parse_endpoint
from repro.serve.timebase import monotonic
from repro.sim.node import Node
from repro.sim.trace import NullTrace, Trace

__all__ = ["NullTrace", "ReplicaServer", "SERVABLE_PROTOCOLS"]

#: Protocols the serving layer supports: immediate local apply, pure
#: update-broadcast propagation, no timers or control traffic.  (The
#: sequencer defers local applies behind a round trip and the token /
#: gossip baselines need timers; they stay simulator-only.)
SERVABLE_PROTOCOLS = ("optp", "anbkh")

#: STOP modes (admin plane).
STOP_QUERY = 0     #: report queue depth + applied vector, keep serving
STOP_SHUTDOWN = 1  #: flush, dump, acknowledge, exit

_PEER_CONNECT_TIMEOUT = 15.0


class _ServedNode(Node):
    """A :class:`Node` that reports each remote apply's message, so the
    server can maintain its applied vector (the session/progress
    vector) without touching protocol internals."""

    def __init__(self, *args, on_apply_msg=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._on_apply_msg = on_apply_msg

    def _apply(self, msg):
        super()._apply(msg)
        if self._on_apply_msg is not None:
            self._on_apply_msg(msg)


class _PeerLink:
    """The send policy of one peer connection, over its transport.

    A link that has been quiet for ``batch_window`` ships what it holds
    at the end of the event-loop tick that enqueued it (``call_soon``:
    all of one request, or one resync, is still one frame, written after
    the client's response); a link that flushed inside the window waits
    out the *rest* of it on a timer, so a busy link sends at most one
    frame per window plus the cap flushes.  Every flush counts its cause
    in ``stats`` (``peer_flush_idle`` / ``_window`` / ``_cap``; a flush
    forced by the admin plane is in ``peer_batches`` only).
    """

    __slots__ = ("dest", "transport", "bodies", "pending_bytes",
                 "flush_handle", "flushed_at", "server")

    def __init__(self, server: "ReplicaServer", dest: int, transport) -> None:
        self.server = server
        self.dest = dest
        self.transport = transport
        self.bodies: List[bytes] = []
        self.pending_bytes = 0
        self.flush_handle: Optional[asyncio.Handle] = None
        self.flushed_at = float("-inf")

    def enqueue(self, body: bytes) -> None:
        """Queue one canonical message body."""
        self.bodies.append(body)
        self.pending_bytes += len(body)
        srv = self.server
        if (len(self.bodies) >= srv.batch_max_msgs
                or self.pending_bytes >= srv.batch_max_bytes):
            self.flush("peer_flush_cap")
        elif self.flush_handle is None:
            loop = srv._loop
            wait = self.flushed_at + srv.batch_window - loop.time()
            if wait <= 0:
                self.flush_handle = loop.call_soon(self.flush,
                                                   "peer_flush_idle")
            else:
                self.flush_handle = loop.call_later(wait, self.flush,
                                                    "peer_flush_window")

    def flush(self, cause: Optional[str] = None) -> None:
        if self.flush_handle is not None:
            self.flush_handle.cancel()
            self.flush_handle = None
        if not self.bodies:
            return
        srv = self.server
        # Group commit: never externalize an update whose WAL record is
        # not yet durable -- a crashed-and-recovered replica must never
        # reissue a write-id a peer has already applied.
        if srv._wal is not None:
            srv._wal.sync()
        payload = codec.encode_batch(self.bodies)
        write_frame(self.transport, payload)
        self.flushed_at = srv._loop.time()
        srv.stats["peer_batches"] += 1
        srv.stats["peer_msgs"] += len(self.bodies)
        srv.stats["peer_bytes"] += len(payload) + 4
        if cause is not None:
            srv.stats[cause] += 1
        if srv._obs.enabled:
            srv._m_batches.inc()
            srv._m_batch_msgs.inc(len(self.bodies))
        self.bodies.clear()
        self.pending_bytes = 0

    def close(self) -> None:
        if self.flush_handle is not None:
            self.flush_handle.cancel()
            self.flush_handle = None
        self.bodies.clear()  # a flush that comes late finds nothing
        self.pending_bytes = 0
        self.transport.close()


class _Inbound(asyncio.BufferedProtocol):
    """One connection, served frame by frame out of a reused receive
    buffer inside ``buffer_updated``: an accepted one's HELLO picks the
    handler of every later frame (peer MSG_BATCH, client REQUEST or admin
    STOP); one dialed to the lower-id peer ``dial`` says HELLO itself and
    waits for WELCOME.  Both ends of a peer link are this class.

    A request whose read finds its session vector ahead of ``applied``
    *parks*: the connection stops reading, its later frames wait
    unparsed in ``frames``, and :meth:`ReplicaServer._unpark` finishes it
    after the peer frame that dominates the vector.  A full write buffer
    (a client not reading its answers) stops reading the same way; a
    peer's never does: two replicas could each wait for the other.

    A :class:`CodecError` closes this connection only and is counted in
    ``client_aborts``, as is a connection lost with an error, mid-frame
    or with a request parked.
    """

    __slots__ = ("server", "transport", "frames", "on_frame", "peer",
                 "parked", "paused", "lost")

    def __init__(self, server: "ReplicaServer",
                 dial: Optional[int] = None) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.frames = codec.FrameBuffer()
        self.on_frame = self._hello if dial is None else self._welcome
        self.peer: Optional[int] = dial    # or set by a peer's HELLO
        #: (session, ops, index of the waiting read, results so far,
        #: the REQUEST body the resumed run journals)
        self.parked: Optional[tuple] = None
        self.paused = False                # the write buffer is full
        #: set once a dialed connection is lost (``_redial`` waits on it)
        self.lost = None if dial is None else asyncio.Event()

    def connection_made(self, transport) -> None:
        self.transport = transport
        srv = self.server
        srv._inbound.append(self)
        if self.lost is not None:          # dialed: HELLO, with our ack
            write_frame(transport, codec.encode_hello(
                ROLE_PEER, srv.node_id, srv.applied[self.peer]))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.frames.writable()

    def buffer_updated(self, nbytes: int) -> None:
        self.frames.wrote(nbytes)
        self._serve_frames()

    def _serve_frames(self) -> None:
        frames = self.frames
        transport = self.transport
        try:
            while (self.parked is None and not self.paused
                   and not transport.is_closing()
                   and (body := frames.next_frame()) is not None):
                self.on_frame(body)
        except CodecError:
            frames.take_rest()
            self.server.stats["client_aborts"] += 1
            transport.close()

    def _go_on(self) -> None:
        """Serve the frames that waited, then read again unless held."""
        self._serve_frames()
        if self.parked is None and not self.paused:
            self.transport.resume_reading()

    def pause_writing(self) -> None:
        if self.peer is None:
            self.paused = True
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self._go_on()

    def park(self, state: tuple) -> None:
        self.parked = state
        self.server._parked.append(self)
        self.transport.pause_reading()

    def resume(self) -> None:
        session, ops, at, results, body = self.parked
        self.parked = None
        self.server._serve_request(self, session, ops, at, results, body)
        self._go_on()

    def connection_lost(self, exc) -> None:
        srv = self.server
        if self.parked is not None:
            srv._parked.remove(self)
        if self.frames.take_rest() or exc is not None or self.parked:
            srv.stats["client_aborts"] += 1
        srv._inbound.remove(self)
        srv._unlink(self)
        if self.lost is not None:
            self.lost.set()
        self.on_frame = self.parked = None  # on_frame: break the cycle

    def _hello(self, body: bytes) -> None:
        srv = self.server
        r = VarReader(body)
        if r.u8() != FRAME_HELLO:
            raise CodecError("expected HELLO")
        role = r.u8()
        sender = r.uvarint()
        acked = r.uvarint() if role == ROLE_PEER else 0
        if not r.done():
            raise CodecError("trailing bytes after HELLO")
        if role == ROLE_PEER:
            # the higher id of a pair dials: a lower one should not
            if not srv.node_id < sender < srv.n:
                raise CodecError(
                    f"HELLO from peer {sender}: not a higher group peer")
            old = srv._links.get(sender)
            if old is not None:
                # a redial beat the old connection's EOF: what that one
                # still carried is outside the ack below, so resent
                old.close()
            self.peer = sender
            self.on_frame = self._batch
            w = VarWriter()
            w.u8(FRAME_PEER_WELCOME)
            w.uvarint(srv.applied[sender])
            write_frame(self.transport, w.getvalue())
            srv._link(self, acked)
        elif role == ROLE_CLIENT:
            srv.stats["client_conns"] += 1
            self.on_frame = self._request
        elif role == ROLE_ADMIN:
            self.on_frame = self._admin
        else:
            raise CodecError(f"unknown role {role}")

    def _welcome(self, body: bytes) -> None:
        r = VarReader(body)
        if r.u8() != FRAME_PEER_WELCOME:
            raise CodecError("expected PEER_WELCOME")
        acked = r.uvarint()
        if not r.done():
            raise CodecError("trailing bytes after PEER_WELCOME")
        self.on_frame = self._batch
        self.server._link(self, acked)
        self.server.stats["peer_dials"] += 1

    def _batch(self, body: bytes) -> None:
        srv = self.server
        srv._receive_batch(self.peer, body)
        if srv._parked:
            srv._unpark()

    def _request(self, body: bytes) -> None:
        srv = self.server
        session, ops = codec.decode_request(body)
        if len(session) != srv.n:
            raise CodecError(f"session vector has {len(session)} "
                             f"components, group size is {srv.n}")
        srv.stats["requests"] += 1
        srv._serve_request(self, session, ops, 0, [], body)

    def _admin(self, body: bytes) -> None:
        srv = self.server
        r = VarReader(body)
        if r.u8() != FRAME_STOP:
            raise CodecError("expected STOP on admin plane")
        mode = r.u8()
        if mode not in (STOP_QUERY, STOP_SHUTDOWN):
            raise CodecError(f"unknown STOP mode {mode}")
        srv._flush_links()
        if mode == STOP_SHUTDOWN:
            srv._dump()
        write_frame(self.transport, srv._stopped_frame())
        if mode == STOP_SHUTDOWN:
            srv._stop.set()
            self.transport.close()


class ReplicaServer:
    """One group-replica process: protocol node + sockets + sessions."""

    def __init__(
        self,
        spec: ClusterSpec,
        group: int,
        node_id: int,
        *,
        record: bool = False,
        rundir: Optional[Path] = None,
        wal_dir: Optional[Path] = None,
        fsync_every: int = 256,
        snapshot_every: int = 4096,
        batch_window: float = 0.0005,
        batch_max_msgs: int = 256,
        batch_max_bytes: int = 64 << 10,
        obs: Obs = NULL_OBS,
    ):
        if spec.protocol not in SERVABLE_PROTOCOLS:
            raise ValueError(
                f"protocol {spec.protocol!r} is not servable "
                f"(supported: {', '.join(SERVABLE_PROTOCOLS)})"
            )
        from repro.sim.cluster import _resolve_factory

        self.spec = spec
        self.group = group
        self.node_id = node_id
        self.n = spec.group_size
        self.record = record
        self.rundir = Path(rundir) if rundir is not None else None
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None
        self.fsync_every = fsync_every
        self.snapshot_every = snapshot_every
        self.batch_window = batch_window
        self.batch_max_msgs = batch_max_msgs
        self.batch_max_bytes = batch_max_bytes
        self._obs = obs

        self._t0 = monotonic()
        factory = _resolve_factory(spec.protocol)
        self.trace: Trace = Trace(self.n) if record else NullTrace(self.n)
        self.node = _ServedNode(
            factory(node_id, self.n),
            self.trace,
            clock=self._now,
            dispatch=self._dispatch,
            on_apply_msg=self._count_remote_apply,
            # Links redial on EOF and retransmit the unacked suffix;
            # the ack only covers *applied* updates, so a retransmitted
            # update may race its buffered twin -- the at-least-once
            # guard drops it before it can double-apply.
            dedup=True,
        )
        #: applied[j] = writes issued by group-peer j applied locally;
        #: grows monotonically, so ``tuple(applied)`` is the progress
        #: vector clients fold into their session vectors.
        self.applied: List[int] = [0] * self.n
        #: the types of a well-formed requirement row (see :meth:`_admit`)
        self._int_row = (int,) * self.n
        #: own broadcast updates in issue order, as canonical bodies:
        #: ``_sent[k]`` is write k+1's update, so a peer whose WELCOME
        #: acknowledged K applied writes needs exactly the suffix
        #: ``_sent[K:]`` -- and the snapshot stores the list as it is.
        self._sent: List[bytes] = []
        self._replaying = False
        #: the time every event of the frame being served carries (the
        #: clock is read once per frame); None between frames
        self._pinned: Optional[float] = None
        self._wal = None
        self._wal_total = 0         # records in the WAL file
        self._unsnapped = 0         # inputs journaled since the snapshot
        self._snap_path: Optional[Path] = None
        self._dur = None
        self._links: Dict[int, _PeerLink] = {}
        self._link_up: Dict[int, asyncio.Event] = {
            dest: asyncio.Event()
            for dest in range(self.n) if dest != node_id
        }
        self._redials: List[asyncio.Task] = []
        self._parked: List[_Inbound] = []   # in the order they parked
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        #: every open connection, accepted or dialed
        self._inbound: List[_Inbound] = []
        self.stats: Dict[str, int] = {
            "writes": 0, "reads": 0, "read_waits": 0, "requests": 0,
            "peer_batches": 0, "peer_msgs": 0, "peer_bytes": 0,
            "frames_in": 0, "client_conns": 0, "client_aborts": 0,
            "peer_dials": 0, "wal_records": 0, "snapshots": 0,
            "recovered": 0, "recovery_us": 0,
            "peer_flush_idle": 0, "peer_flush_window": 0,
            "peer_flush_cap": 0,
        }
        if obs.enabled:
            reg = obs.registry
            label = dict(group=group, node=node_id)
            self._m_writes = reg.counter("serve.writes", **label)
            self._m_reads = reg.counter("serve.reads", **label)
            self._m_waits = reg.counter("serve.read_waits", **label)
            self._m_batches = reg.counter("serve.peer_batches", **label)
            self._m_batch_msgs = reg.counter("serve.peer_msgs", **label)
            self._m_wal = reg.counter("serve.wal_records", **label)
            self._h_recovery = reg.histogram("serve.recovery_seconds",
                                             **label)
        if self.wal_dir is not None:
            self._open_durable()

    # -- clock / progress ---------------------------------------------------

    def _now(self) -> float:
        t = self._pinned
        if t is None:
            return monotonic() - self._t0
        return t

    def _pin(self) -> float:
        """Read the clock for a whole frame: its record and every event
        of it carry this time until the caller resets ``_pinned``."""
        self._pinned = t = self._now()
        return t

    def _count_remote_apply(self, msg) -> None:
        self.applied[msg.sender] += 1

    def _dominates(self, session: Sequence[int]) -> bool:
        applied = self.applied
        for j, wanted in enumerate(session):
            if applied[j] < wanted:
                return False
        return True

    def _unpark(self) -> None:
        """Finish, in park order, every parked request whose session
        vector ``applied`` now dominates -- after a whole peer frame,
        never inside ``Node.receive``, so the node is between ops."""
        parked = self._parked
        i = 0
        while i < len(parked):
            conn = parked[i]
            if self._dominates(conn.parked[0]):
                del parked[i]
                conn.resume()
            else:
                i += 1

    # -- durability ---------------------------------------------------------

    def _open_durable(self) -> None:
        """Recover from ``wal_dir``'s snapshot + WAL, then arm the WAL.

        :mod:`repro.durability` is imported lazily: it depends on the
        serve codec, so a module-level import here would dereference a
        partially initialized package when durability is imported
        first.
        """
        from repro import durability as dur
        self._dur = dur
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        stem = self.wal_dir / f"node-g{self.group}n{self.node_id}"
        wal_path = stem.with_suffix(".wal")
        self._snap_path = stem.with_suffix(".snap")
        t_start = monotonic()
        # In record mode the full trace must be rebuilt with original
        # timestamps, so the snapshot is ignored (the WAL is never
        # compacted; full replay is always possible) and no further
        # snapshots are taken.
        raw_snap = (None if self.record
                    else dur.read_framed_file(self._snap_path))
        res = dur.read_wal(wal_path)
        if raw_snap is not None or res.bodies:
            self._replay(dur, raw_snap, res)
            self.stats["recovered"] = 1
            self.stats["recovery_us"] = int((monotonic() - t_start) * 1e6)
            if self._obs.enabled:
                self._h_recovery.observe(monotonic() - t_start)
        if res.tail_bytes:
            # appending after a torn tail would wedge every later
            # record behind an unreadable prefix
            os.truncate(wal_path, res.valid_bytes)
        self._wal_total = len(res.bodies)
        self._wal = dur.WalWriter(wal_path, fsync_every=self.fsync_every)

    def _replay(self, dur, raw_snap: Optional[bytes], res) -> None:
        """Rebuild pre-crash state through the *live* node: replayed
        events land on the real trace (record mode) and replayed
        receipts advance ``applied`` via the normal apply hook, while
        ``_replaying`` suppresses re-externalization in
        :meth:`_dispatch` (broadcasts still append to ``_sent``, which
        is how the retransmission buffer is rebuilt).  Each record's
        events carry the record's time, as they did live."""
        skip = 0
        last_t = 0.0
        self._replaying = True
        try:
            if raw_snap is not None:
                doc = dur.decode_snapshot(raw_snap)
                dur.restore_node(self.node, doc["node"])
                self.applied = [int(x) for x in doc["applied"]]
                self._sent = doc["sent"]
                skip = int(doc["wal_records"])
                last_t = float(doc["t"])
            for body in res.bodies[skip:]:
                rec = dur.decode_record(body)
                last_t = self._pinned = rec[1]
                dur.apply_record(self.node, rec)
            self.applied[self.node_id] = self.node.protocol.writes_issued
        except dur.RecoveryError:
            raise
        except Exception as exc:
            raise dur.RecoveryError(
                "serving-layer recovery failed",
                snapshot_seq=skip, wal_records=len(res.bodies),
                wal_tail_bytes=res.tail_bytes, detail=repr(exc)) from exc
        finally:
            self._replaying = False
            self._pinned = None
        # resume the timebase where the journal left off so the
        # replica's post-recovery timestamps stay monotone
        self._t0 = monotonic() - last_t

    def _wal_append(self, body: bytes, inputs: int = 1) -> None:
        """Journal one record holding ``inputs`` ops or receipts."""
        self._wal.append(body)
        self._wal_total += 1
        self._unsnapped += inputs
        self.stats["wal_records"] += 1
        if self._obs.enabled:
            self._m_wal.inc()

    def _maybe_snapshot(self) -> None:
        """Fold the WAL into a fresh snapshot once ``snapshot_every``
        inputs (ops and receipts, not records) have been journaled.

        Callers invoke this only *between* frames -- a WAL record is
        appended before any op of its frame executes, so mid-frame the
        node lags the log and a snapshot taken there would silently
        drop the rest of the frame on recovery.
        """
        if (self._wal is None or self.record or not self.snapshot_every
                or self._unsnapped < self.snapshot_every):
            return
        dur = self._dur
        doc = {
            "node": dur.snapshot_node(self.node),
            "applied": list(self.applied),
            "t": self._now(),
            "sent": self._sent,
            "wal_records": self._wal_total,
        }
        self._wal.sync()
        dur.write_framed_file(self._snap_path, dur.encode_snapshot(doc))
        self._unsnapped = 0
        self.stats["snapshots"] += 1

    # -- protocol plumbing --------------------------------------------------

    def _dispatch(self, sender: int, outgoing: Sequence[Outgoing]) -> None:
        for out in outgoing:
            if out.dest == BROADCAST:
                body = codec.encode_message(out.message)
                self._sent.append(body)
                if self._replaying:
                    continue
                for dest in range(self.n):
                    if dest != sender:
                        link = self._links.get(dest)
                        if link is not None:
                            link.enqueue(body)
            else:
                if self._replaying:
                    continue
                link = self._links.get(out.dest)
                if link is not None:
                    link.enqueue(codec.encode_message(out.message))

    # -- lifecycle ----------------------------------------------------------

    async def run(self, *, ready_path: Optional[Path] = None) -> None:
        """Listen, link up with peers, serve until shutdown.

        ``ready_path`` is touched once the listener is bound AND every
        peer link is up -- a client arriving after the ready file
        exists can never catch the replica without its broadcast
        links.  (Every replica listens before dialing, so gating ready
        on the links cannot deadlock.)
        """
        self._loop = asyncio.get_running_loop()
        await self._listen()
        await self._connect_peers()
        self.node.start()
        if ready_path is not None:
            Path(ready_path).write_text("ready\n")
        await self._stop.wait()
        await self._teardown()

    async def _listen(self) -> None:
        scheme, addr = parse_endpoint(self.spec.endpoint(self.group,
                                                         self.node_id))
        if scheme == "unix":
            # a restarted replica inherits its predecessor's socket path
            try:
                os.unlink(addr)
            except OSError:
                pass
            self._server = await self._loop.create_unix_server(
                lambda: _Inbound(self), path=addr)
        else:
            host, port = addr
            self._server = await self._loop.create_server(
                lambda: _Inbound(self), host=host, port=port)

    async def _connect_peers(self) -> None:
        for dest in range(self.node_id):
            self._redials.append(self._loop.create_task(self._redial(dest)))
        deadline = monotonic() + _PEER_CONNECT_TIMEOUT
        for dest in sorted(self._link_up):
            try:
                await asyncio.wait_for(
                    self._link_up[dest].wait(),
                    timeout=max(0.01, deadline - monotonic()))
            except asyncio.TimeoutError:
                raise TimeoutError(
                    f"g{self.group}n{self.node_id}: peer {dest} "
                    f"unreachable within {_PEER_CONNECT_TIMEOUT}s"
                ) from None

    async def _redial(self, dest: int) -> None:
        """Keep one connection to the lower-id peer ``dest``: dial, and
        dial again a pause after the connection is lost."""
        scheme, addr = parse_endpoint(self.spec.endpoint(self.group, dest))
        loop = self._loop
        while True:
            try:
                if scheme == "unix":
                    _, conn = await loop.create_unix_connection(
                        lambda: _Inbound(self, dial=dest), addr)
                else:
                    _, conn = await loop.create_connection(
                        lambda: _Inbound(self, dial=dest), *addr)
            except OSError:
                pass                    # not listening (yet, or again)
            else:
                await conn.lost.wait()
            await asyncio.sleep(0.05)

    def _link(self, conn: _Inbound, acked: int) -> None:
        """Make ``conn`` the link to its peer and queue ``_sent[acked:]``.
        No ``await`` separates the two: a broadcast dispatched during the
        handshake missed the link but is in ``_sent``, so the acked
        suffix covers it exactly once."""
        dest = conn.peer
        link = self._links[dest] = _PeerLink(self, dest, conn.transport)
        for body in self._sent[acked:]:
            link.enqueue(body)
        self._link_up[dest].set()

    def _unlink(self, conn: _Inbound) -> None:
        """Drop a lost connection's link, unless a redial replaced it."""
        link = self._links.get(conn.peer)
        if link is not None and link.transport is conn.transport:
            del self._links[conn.peer]
            self._link_up[conn.peer].clear()
            link.close()

    async def _teardown(self) -> None:
        for task in self._redials:
            task.cancel()
        await asyncio.gather(*self._redials, return_exceptions=True)
        for dest in sorted(self._links):
            self._links[dest].close()
        self._links.clear()
        if self._server is not None:
            self._server.close()
        for conn in list(self._inbound):
            conn.transport.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._wal is not None:
            self._wal.sync()
            self._wal.close()

    # -- connection handling ------------------------------------------------

    def _admit(self, message, peer: int) -> None:
        """Validate one peer update at the door, before the journal.

        What is journaled is replayed on every later start, so nothing
        the protocol cannot evaluate may reach the WAL: the update must
        come from the link's own peer and its requirement row
        (:meth:`~repro.core.base.Protocol.requirement`) must be a tuple
        of exactly one integer per group member.  Anything else is a
        :class:`CodecError` on this connection only.
        """
        if (type(message) is not UpdateMessage or message.sender != peer
                or message.wid.process != peer):
            raise CodecError(
                f"peer {peer} sent a message that is not its own update")
        try:
            row, _ = self.node.protocol.requirement(message)
        except KeyError:
            row = None
        if type(row) is not tuple or tuple(map(type, row)) != self._int_row:
            raise CodecError(
                f"update {message.wid} from peer {peer} carries no "
                f"requirement of {self.n} integer components")

    def _receive_batch(self, sender: int, body: bytes) -> None:
        """One frame off ``sender``'s connection, start to finish: every
        update is decoded and admitted before the frame is journaled, the
        one record precedes every receipt, no ``await`` separates them,
        and the snapshot check runs between frames."""
        self.stats["frames_in"] += 1
        # stateless: each body decodes on its own, so the frame
        # journaled below replays without this connection
        messages = codec.decode_batch(body)
        for message in messages:
            self._admit(message, sender)
        if messages:
            t = self._pin()
            try:
                if self._wal is not None:
                    # duplicates are journaled too: replay routes them
                    # through the same dedup guard, so the rebuilt state
                    # cannot depend on when dedup happened
                    self._wal_append(self._dur.encode_batch_record(t, body),
                                     len(messages))
                receive = self.node.receive
                for message in messages:
                    receive(message)
            finally:
                self._pinned = None
        self._maybe_snapshot()

    def _run_end(self, session: Tuple[int, ...],
                 ops: List[Tuple[int, Any, Any]], at: int) -> int:
        """Where the run of ``ops`` from ``at`` stops: the first read
        whose session vector ``applied`` will not dominate when its turn
        comes, or ``len(ops)``.  Within a run only this replica's own
        component moves, by one per write."""
        applied = self.applied
        me = self.node_id
        owed = 0                    # own writes the session is ahead by
        for j, wanted in enumerate(session):
            if applied[j] < wanted:
                if j != me:         # a peer's write: more than any
                    owed = len(ops)     # run of ops can make up
                    break
                owed = wanted - applied[j]
        for i in range(at, len(ops)):
            if ops[i][0] == OP_WRITE:
                owed -= 1
            elif owed > 0:
                return i
        return len(ops)

    def _serve_request(self, conn: _Inbound, session: Tuple[int, ...],
                       ops: List[Tuple[int, Any, Any]], at: int,
                       results: List[Tuple[int, Any]], body: bytes) -> None:
        """Run ``ops[at:]`` of the client REQUEST ``body`` and answer it
        -- or, at a read whose session vector ``applied`` does not
        dominate yet, park it on ``conn`` for :meth:`_unpark` to run the
        rest as a second run."""
        stop = self._run_end(session, ops, at)
        obs_on = self._obs.enabled
        if stop > at:
            node = self.node
            t = self._pin()
            try:
                if self._wal is not None:
                    # the whole run, before its first op: a write may
                    # cap-flush a peer link (sync + send) inside
                    # do_write.  Reads are in it because OptP's Figure 5
                    # line 1 folds LastWriteOn into Write_co -- a read
                    # changes the causal past of later writes
                    self._wal_append(
                        self._dur.encode_ops_record(t, at, stop, body),
                        stop - at)
                for i in range(at, stop):
                    kind, variable, value = ops[i]
                    if kind == OP_WRITE:
                        wid = node.do_write(variable, value)
                        self.applied[self.node_id] = wid.seq
                        self.stats["writes"] += 1
                        if obs_on:
                            self._m_writes.inc()
                        results.append((OP_WRITE, wid.seq))
                    else:
                        results.append((OP_READ, node.do_read(variable)))
                        self.stats["reads"] += 1
                        if obs_on:
                            self._m_reads.inc()
            finally:
                self._pinned = None
        if stop < len(ops):
            self.stats["read_waits"] += 1
            if obs_on:
                self._m_waits.inc()
            conn.park((session, ops, stop, results, body))
            return
        if self._wal is not None:
            # group commit: the response acknowledges these ops
            self._wal.sync()
        write_frame(conn.transport,
                    codec.encode_response(tuple(self.applied), results))
        self._maybe_snapshot()

    # -- admin helpers ------------------------------------------------------

    def _flush_links(self) -> None:
        for dest in sorted(self._links):
            self._links[dest].flush()

    def _status(self) -> Dict[str, Any]:
        stats = dict(self.stats)
        if self._wal is not None:
            stats["wal_bytes"] = self._wal.bytes_written
            stats["wal_fsyncs"] = self._wal.fsyncs
        return {
            "group": self.group,
            "node": self.node_id,
            "applied": tuple(self.applied),
            "buffered": self.node.buffered_count,
            "writes_issued": self.node.protocol.writes_issued,
            "stats": stats,
        }

    def _stopped_frame(self) -> bytes:
        w = VarWriter()
        w.u8(FRAME_STOPPED)
        codec.encode_value(w, self._status())
        return w.getvalue()

    def _dump(self) -> None:
        if self.rundir is None:
            return
        stem = self.rundir / f"node-g{self.group}n{self.node_id}"
        if self.record:
            stem.with_suffix(".log.jsonl").write_text(
                dump_node_log(self.trace, self.node_id, self.spec.protocol)
            )
        stem.with_suffix(".stats.json").write_text(
            json.dumps(self._status(), indent=2, sort_keys=True, default=str)
        )
