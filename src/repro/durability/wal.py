"""Write-ahead log and snapshot files for crash-durable replicas.

Two layers, deliberately separated:

**Record bodies** are the logical unit: the frame that carried a
replica's externally-visible inputs -- client writes, client reads
(OptP reads *mutate* ``Write_co`` via the ``LastWriteOn`` merge of
Figure 5 line 1, so they must be journaled too) and protocol messages
received from peers.  A served replica writes one :data:`KIND_BATCH`
record per peer MSG_BATCH frame and one :data:`KIND_OPS` record per run
of a client REQUEST frame (a request parked at a waiting read runs, and
is journaled, in two pieces); both hold the frame body as it arrived and
replay it through the serving codec's own decoders
(:func:`~repro.serve.codec.decode_batch`,
:func:`~repro.serve.codec.decode_request`), so everything a protocol
can put on the wire can also be replayed from disk, byte-for-byte.  The
one-input kinds (:data:`KIND_WRITE`, :data:`KIND_READ`,
:data:`KIND_RECV`) are what earlier builds wrote; they stay readable.

**Disk framing** wraps each body as::

    u32 body_len | u32 crc32(body) | body

in big-endian, mirroring the serving plane's length-prefixed frames.
The CRC makes torn tails detectable: a crash mid-``write(2)`` leaves a
partial length word, a partial body, or a body that fails its checksum,
and :func:`read_wal` stops at the last valid prefix instead of
propagating garbage into recovery.  This is the classic
ARIES/LevelLog discipline -- the tail of a write-ahead log is untrusted
by construction.

Durability is batched: :class:`WalWriter` fsyncs every ``fsync_every``
records and on explicit :meth:`WalWriter.sync` (the serving layer calls
it at externalization points -- before a write response leaves for the
client and before a peer batch is flushed -- which is group commit).

Snapshot files use the same CRC framing over a single
:func:`repro.serve.codec.encode_value` document and are written
atomically (tmp + fsync + rename), so a crash during snapshotting
leaves the previous snapshot intact.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Tuple

from repro.serve.codec import (
    MAX_DEPTH,
    MAX_FRAME,
    CodecError,
    VarReader,
    VarWriter,
    decode_batch,
    decode_message_from,
    decode_request,
    decode_value,
    encode_value,
)

__all__ = [
    "KIND_BATCH",
    "KIND_OPS",
    "KIND_READ",
    "KIND_RECV",
    "KIND_WRITE",
    "MAX_RECORD",
    "WalError",
    "WalReadResult",
    "WalWriter",
    "decode_record",
    "decode_snapshot",
    "encode_batch_record",
    "encode_ops_record",
    "encode_read_record",
    "encode_recv_record",
    "encode_snapshot",
    "encode_write_record",
    "frame_record",
    "read_framed_file",
    "read_wal",
    "write_framed_file",
]


class WalError(ValueError):
    """Structurally invalid durability data (outside the torn-tail
    tolerance: a *framed* record whose body cannot be decoded, or a
    snapshot file that fails its checksum)."""


# -- record bodies ----------------------------------------------------------

KIND_WRITE = 1  #: client write: ``(t, variable, value)``; value None = fresh
KIND_READ = 2   #: client read: ``(t, variable)``
KIND_RECV = 3   #: peer message receipt: ``(t, canonical message body)``
KIND_OPS = 4    #: a run of a client request: ``(t, at, stop, REQUEST body)``
KIND_BATCH = 5  #: a peer frame: ``(t, MSG_BATCH body)``

_FRAME = struct.Struct(">II")

#: Upper bound on a single framed record: a whole wire frame plus the
#: most a record puts in front of it (kind, tagged float time and two
#: op indices: 18 bytes).  A record the server can write is never read
#: back as a torn tail.
MAX_RECORD = MAX_FRAME + 64


def encode_write_record(t: float, variable: Hashable, value: Any) -> bytes:
    """Body for a local write.  ``value`` may be None: replay calls
    ``do_write(variable, None)`` and the deterministic
    ``fresh_value(WriteId(...))`` regenerates the original value."""
    w = VarWriter()
    w.u8(KIND_WRITE)
    encode_value(w, t)
    encode_value(w, variable)
    encode_value(w, value)
    return w.getvalue()


def encode_read_record(t: float, variable: Hashable) -> bytes:
    w = VarWriter()
    w.u8(KIND_READ)
    encode_value(w, t)
    encode_value(w, variable)
    return w.getvalue()


def encode_recv_record(t: float, message_body: bytes) -> bytes:
    """Body for a received peer message.  ``message_body`` is its
    canonical encoding (:func:`repro.serve.codec.encode_message`), which
    is also its peer-plane form: a server journals the slice of the
    frame it has just decoded, nothing is encoded a second time."""
    w = VarWriter()
    w.u8(KIND_RECV)
    encode_value(w, t)
    w.raw(message_body)
    return w.getvalue()


def encode_ops_record(t: float, at: int, stop: int,
                      request_body: bytes) -> bytes:
    """Body for the run of ops ``at .. stop-1`` of one client REQUEST,
    journaled before the first of them executes.  ``request_body`` is
    the frame body as it arrived; it is not encoded again."""
    w = VarWriter()
    w.u8(KIND_OPS)
    encode_value(w, t)
    w.uvarint(at)
    w.uvarint(stop)
    w.raw(request_body)
    return w.getvalue()


def encode_batch_record(t: float, batch_body: bytes) -> bytes:
    """Body for one peer MSG_BATCH frame, every update of it received at
    ``t``; ``batch_body`` is the frame body as it arrived."""
    w = VarWriter()
    w.u8(KIND_BATCH)
    encode_value(w, t)
    w.raw(batch_body)
    return w.getvalue()


def decode_record(body: bytes) -> Tuple[Any, ...]:
    """Decode one record body.

    Returns ``(KIND_WRITE, t, variable, value)``,
    ``(KIND_READ, t, variable)``, ``(KIND_RECV, t, message)``,
    ``(KIND_OPS, t, ops)`` with the run's ``(op kind, variable, value)``
    triples, or ``(KIND_BATCH, t, messages)``.
    Raises :class:`WalError` on anything else -- a framed record that
    fails here is corruption *inside* the checksummed region, which the
    torn-tail tolerance deliberately does not excuse.
    """
    try:
        r = VarReader(body)
        kind = r.u8()
        t = decode_value(r)
        if kind == KIND_OPS:
            at = r.uvarint()
            stop = r.uvarint()
            _, ops = decode_request(body[r.pos:])
            if not at < stop <= len(ops):
                raise WalError(f"run {at}..{stop} outside a request of "
                               f"{len(ops)} ops")
            return (KIND_OPS, t, ops[at:stop])
        if kind == KIND_BATCH:
            return (KIND_BATCH, t, decode_batch(body[r.pos:]))
        if kind == KIND_WRITE:
            variable = decode_value(r)
            value = decode_value(r)
            rec: Tuple[Any, ...] = (KIND_WRITE, t, variable, value)
        elif kind == KIND_READ:
            rec = (KIND_READ, t, decode_value(r))
        elif kind == KIND_RECV:
            rec = (KIND_RECV, t, decode_message_from(r))
        else:
            raise WalError(f"unknown WAL record kind {kind}")
        if not r.done():
            raise WalError("trailing bytes after WAL record")
        return rec
    except WalError:
        raise
    except (CodecError, IndexError, ValueError, struct.error) as exc:
        raise WalError(f"undecodable WAL record: {exc}") from exc


# -- disk framing -----------------------------------------------------------

def frame_record(body: bytes) -> bytes:
    """``u32 len | u32 crc32 | body`` for one record."""
    if len(body) > MAX_RECORD:
        raise WalError(f"WAL record of {len(body)} bytes exceeds MAX_RECORD")
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


class WalWriter:
    """Appender with batched fsync.

    ``fsync_every=N`` syncs after every N appended records;
    :meth:`sync` forces one at externalization points (group commit).
    ``fsync_every=0`` disables the periodic sync entirely -- durability
    then rests on the explicit barriers alone.
    """

    __slots__ = ("path", "fsync_every", "records", "bytes_written",
                 "fsyncs", "_fh", "_dirty", "_since_sync")

    def __init__(self, path: str, *, fsync_every: int = 256):
        self.path = path
        self.fsync_every = fsync_every
        self.records = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self._fh = open(path, "ab")
        self._dirty = False
        self._since_sync = 0

    def append(self, body: bytes) -> None:
        framed = frame_record(body)
        self._fh.write(framed)
        self.records += 1
        self.bytes_written += len(framed)
        self._dirty = True
        self._since_sync += 1
        if self.fsync_every and self._since_sync >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Flush userspace buffers and fsync -- the durability barrier."""
        if not self._dirty:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._dirty = False
        self._since_sync = 0

    def close(self) -> None:
        if self._fh.closed:
            return
        self.sync()
        self._fh.close()


@dataclass
class WalReadResult:
    """Outcome of a tolerant WAL scan."""

    bodies: List[bytes]   #: record bodies of the valid prefix, in order
    valid_bytes: int      #: file offset where the valid prefix ends
    tail_bytes: int       #: bytes past the valid prefix (torn/corrupt)

    @property
    def truncated(self) -> bool:
        return self.tail_bytes > 0


def read_wal(path: str) -> WalReadResult:
    """Scan a WAL, returning the longest valid record prefix.

    Tolerated (scan stops, ``tail_bytes > 0``): a partial frame header,
    a body shorter than its declared length, a CRC mismatch, or a
    declared length over :data:`MAX_RECORD` (a torn length word can
    claim anything).  These are exactly the states an interrupted
    append can leave behind; everything before them is trusted.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return WalReadResult(bodies=[], valid_bytes=0, tail_bytes=0)
    bodies: List[bytes] = []
    off = 0
    size = len(data)
    while True:
        if off + _FRAME.size > size:
            break
        body_len, crc = _FRAME.unpack_from(data, off)
        if body_len > MAX_RECORD:
            break
        end = off + _FRAME.size + body_len
        if end > size:
            break
        body = data[off + _FRAME.size:end]
        if zlib.crc32(body) != crc:
            break
        bodies.append(body)
        off = end
    return WalReadResult(bodies=bodies, valid_bytes=off,
                         tail_bytes=size - off)


# -- snapshot files ---------------------------------------------------------

#: A snapshot wraps the values clients wrote in levels of its own (server
#: document -> node -> protocol -> store -> entry: five today), so its
#: decoder allows that much more nesting than a frame from outside.
_SNAPSHOT_ENVELOPE = 8


def encode_snapshot(doc: Any) -> bytes:
    """One codec value document as bytes (no framing)."""
    w = VarWriter()
    encode_value(w, doc)
    return w.getvalue()


def decode_snapshot(data: bytes) -> Any:
    try:
        r = VarReader(data)
        doc = decode_value(r, MAX_DEPTH + _SNAPSHOT_ENVELOPE)
        if not r.done():
            raise WalError("trailing bytes after snapshot document")
        return doc
    except WalError:
        raise
    except (CodecError, IndexError, ValueError, struct.error) as exc:
        raise WalError(f"undecodable snapshot: {exc}") from exc


def write_framed_file(path: str, body: bytes) -> None:
    """Atomically replace ``path`` with one CRC-framed body.

    tmp + fsync + rename: a crash at any point leaves either the old
    file or the new one, never a mix -- the snapshot/WAL pair stays
    recoverable through a crash *during* snapshotting.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(frame_record(body))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_framed_file(path: str) -> Optional[bytes]:
    """Read one CRC-framed body; None if the file does not exist.

    Unlike the WAL tail, a snapshot file is written atomically, so any
    damage here is *not* an expected crash state: raise
    :class:`WalError` rather than silently falling back.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    if len(data) < _FRAME.size:
        raise WalError(f"snapshot file {path} shorter than its header")
    body_len, crc = _FRAME.unpack_from(data, 0)
    body = data[_FRAME.size:]
    if body_len != len(body) or zlib.crc32(body) != crc:
        raise WalError(f"snapshot file {path} fails its checksum")
    return body
