"""Length-prefixed binary wire codec for the serving layer.

The sim's :func:`repro.sim.network.estimate_size` guessed message
sizes; the serving layer actually puts bytes on a socket, so the codec
is the single source of truth for both: live connections frame with
it, and the simulator's overhead metrics call :func:`encoded_size` to
charge *exact* wire bytes per message (falling back to the old
heuristic only for payload values the codec cannot express).

Wire format (``docs/serving.md`` has the full tables):

- **Frame**: ``u32 big-endian body length`` + body.  The first body
  byte is the frame type (:data:`FRAME_HELLO` ...).
- **Varints**: unsigned LEB128; signed integers are zigzag-mapped
  first.  Vector clocks are a count + one varint per component, so an
  n=3 OptP ``Write_co`` costs 4 bytes instead of JSON's ~12.
- **Values**: one tag byte + tag-specific body.  Tuples of
  non-negative ints (the vector-clock shape every registry protocol
  piggybacks) take the dedicated :data:`TAG_VEC` fast path;
  :class:`~repro.model.operations.WriteId` and ``BOTTOM`` have native
  tags, so protocol payloads round-trip without pickle.
- **Update bodies**: an update has one encoding, the *canonical* one
  of :func:`encode_message` -- self-contained, so the same bytes serve
  as the peer-plane body, the retransmission buffer entry, the
  snapshot's ``sent`` entry and, inside the MSG_BATCH frame that
  carried it (:func:`encode_batch`), the receiver's WAL payload.  The
  variable is spelled out in every body; :class:`InternEncoder` /
  :class:`InternDecoder` implement the per-stream table form of the
  same grammar (a name costs one varint after its first use) for
  callers that own both ends of a stream -- the server does not use
  it, and a stateless decode rejects a table reference.
- **Hostile input**: every decoder raises :class:`CodecError` and
  nothing else on malformed bytes -- truncation, invalid UTF-8,
  unhashable dict keys, impossible write ids, and containers nested
  more than :data:`MAX_DEPTH` deep.
- **One pass per hot body shape**: the bodies every served op crosses
  -- an update (:func:`encode_message_into` /
  :func:`decode_message_from`), a REQUEST (:func:`decode_request`) and
  a RESPONSE (:func:`encode_response`) -- are each walked once by one
  function, which reads one-byte varints (and writes any varint),
  ``str`` names and values and ``_T_VEC`` vectors in place.  Everything
  else -- a longer varint on decode, other values, the intern table,
  the cold frames -- goes through the generic helpers
  (:class:`VarReader`, :func:`write_uvarint`, :func:`encode_value`,
  :func:`decode_value`).  The bytes are the same either way, which
  ``tests/serve/test_codec.py`` checks against a reference encoder
  built from the helpers alone.

Nothing here performs I/O; framing against asyncio streams lives in
:func:`read_frame` / :func:`write_frame` which only touch the stream
APIs, and :class:`FrameBuffer` is the same framing for a receiver that
has no stream (an ``asyncio.BufferedProtocol``).  The module is a
reprolint hot path (RL006) and determinism zone (RL001/RL002): no
clocks, no set iteration, no instrumentation.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.core.base import ControlMessage, Message, UpdateMessage
from repro.model.operations import BOTTOM, WriteId

__all__ = [
    "CodecError",
    "FrameBuffer",
    "FRAME_HELLO",
    "FRAME_MSG_BATCH",
    "FRAME_PEER_WELCOME",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "FRAME_STOP",
    "FRAME_STOPPED",
    "MAX_DEPTH",
    "MAX_FRAME",
    "OP_READ",
    "OP_WRITE",
    "VarReader",
    "VarWriter",
    "decode_batch",
    "decode_message",
    "decode_request",
    "decode_response",
    "encode_batch",
    "encode_hello",
    "encode_message",
    "encode_request",
    "encode_response",
    "encoded_size",
    "read_frame",
    "write_frame",
]


class CodecError(ValueError):
    """Malformed or unsupported wire data."""


# -- frame types ------------------------------------------------------------

FRAME_HELLO = 0x01      #: role + sender id (+ a peer's ack), first frame
FRAME_MSG_BATCH = 0x02  #: peer->peer: n protocol messages (micro-batch)
FRAME_REQUEST = 0x03    #: client->server: session vector + n ops
FRAME_RESPONSE = 0x04   #: server->client: progress vector + n results
FRAME_STOP = 0x05       #: admin->server: flush, dump, shut down
FRAME_STOPPED = 0x06    #: server->admin: shutdown acknowledged
FRAME_PEER_WELCOME = 0x07  #: peer HELLO reply: applied count for the dialer

#: Connection roles carried by HELLO.
ROLE_CLIENT = 0
ROLE_PEER = 1
ROLE_ADMIN = 2

#: Client op kinds inside a REQUEST frame.
OP_READ = 0
OP_WRITE = 1

#: Hard ceiling on one frame body; a longer length prefix means a
#: corrupt or hostile stream, not a big message.
MAX_FRAME = 16 << 20

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")

# -- value tags -------------------------------------------------------------

_T_NONE = 0
_T_BOTTOM = 1
_T_FALSE = 2
_T_TRUE = 3
_T_INT = 4
_T_FLOAT = 5
_T_STR = 6
_T_BYTES = 7
_T_TUPLE = 8
_T_LIST = 9
_T_DICT = 10
_T_WID = 11
_T_VEC = 12     #: tuple of non-negative ints (vector clocks)

_M_UPDATE = 0
_M_CONTROL = 1


# -- varints ----------------------------------------------------------------

def write_uvarint(buf: bytearray, value: int) -> None:
    if 0 <= value <= 0x7F:      # nearly every id, count and length
        buf.append(value)
        return
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative {value}")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


class VarReader:
    """Cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def u8(self) -> int:
        try:
            b = self.data[self.pos]
        except IndexError:
            raise CodecError("truncated frame") from None
        self.pos += 1
        return b

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        try:
            b = data[pos]
            if b < 0x80:            # single byte: no loop, no u8() call
                self.pos = pos + 1
                return b
            out = b & 0x7F
            shift = 7
            while True:
                pos += 1
                b = data[pos]
                out |= (b & 0x7F) << shift
                if b < 0x80:
                    self.pos = pos + 1
                    return out
                shift += 7
                if shift > 70:
                    raise CodecError("varint too long")
        except IndexError:
            raise CodecError("truncated frame") from None

    def svarint(self) -> int:
        z = self.uvarint()
        return (z >> 1) if not z & 1 else -((z + 1) >> 1)

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError("truncated frame")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def text(self) -> str:
        """One length-prefixed UTF-8 string."""
        try:
            return str(self.take(self.uvarint()), "utf-8")
        except UnicodeDecodeError:
            raise CodecError("invalid UTF-8 in string") from None

    def done(self) -> bool:
        return self.pos >= len(self.data)


class VarWriter:
    """Append-only body builder (a thin bytearray facade)."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        self.buf.append(value)

    def uvarint(self, value: int) -> None:
        if 0 <= value <= 0x7F:
            self.buf.append(value)
        else:
            write_uvarint(self.buf, value)

    def svarint(self, value: int) -> None:
        write_uvarint(self.buf, _zigzag(value))

    def raw(self, data: bytes) -> None:
        self.buf += data

    def getvalue(self) -> bytes:
        return bytes(self.buf)


# -- values -----------------------------------------------------------------

#: Containers (tuple, list, dict) in a value arriving from a client or a
#: peer nest at most this deep; deeper is a hostile frame, not data
#: (unbounded, a few kilobytes of nested tuple headers exhaust the
#: interpreter stack).  Documents this program writes itself may wrap
#: such values in a few levels of their own: their decoders say how many.
MAX_DEPTH = 32


def _is_vec(value: tuple) -> bool:
    for item in value:
        if type(item) is not int or item < 0:
            return False
    return True


def encode_value(w: VarWriter, value: Any) -> None:
    # Exact-type tests, most frequent first; the tag a value gets does
    # not depend on the order they are tried in.
    buf = w.buf
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        buf.append(_T_STR)
        write_uvarint(buf, len(data))
        buf += data
    elif kind is int:
        buf.append(_T_INT)
        write_uvarint(buf, _zigzag(value))
    elif kind is tuple:
        if value and _is_vec(value):
            buf.append(_T_VEC)
            write_uvarint(buf, len(value))
            for item in value:
                write_uvarint(buf, item)
        else:
            buf.append(_T_TUPLE)
            write_uvarint(buf, len(value))
            for item in value:
                encode_value(w, item)
    elif kind is bytes:
        buf.append(_T_BYTES)
        write_uvarint(buf, len(value))
        buf += value
    elif kind is float:
        buf.append(_T_FLOAT)
        buf += _F64.pack(value)
    elif kind is list:
        buf.append(_T_LIST)
        write_uvarint(buf, len(value))
        for item in value:
            encode_value(w, item)
    elif kind is dict:
        buf.append(_T_DICT)
        write_uvarint(buf, len(value))
        for key, item in value.items():
            encode_value(w, key)
            encode_value(w, item)
    elif kind is WriteId:
        buf.append(_T_WID)
        write_uvarint(buf, value.process)
        write_uvarint(buf, value.seq)
    elif value is None:
        buf.append(_T_NONE)
    elif value is BOTTOM:
        buf.append(_T_BOTTOM)
    elif value is False:
        buf.append(_T_FALSE)
    elif value is True:
        buf.append(_T_TRUE)
    else:
        raise CodecError(f"unencodable value of type {type(value).__name__}")


def read_wid(r: VarReader) -> WriteId:
    process = r.uvarint()
    seq = r.uvarint()
    if seq < 1:
        raise CodecError("write id sequence numbers are 1-based")
    return WriteId(process, seq)


def decode_value(r: VarReader, room: int = MAX_DEPTH) -> Any:
    """One tagged value.  ``room`` is how many more container levels may
    open below this point (:data:`MAX_DEPTH` for outside input)."""
    pos = r.pos     # r.u8(), inlined: this runs once per value
    try:
        tag = r.data[pos]
    except IndexError:
        raise CodecError("truncated frame") from None
    r.pos = pos + 1
    if tag == _T_STR:
        return r.text()
    if tag == _T_INT:
        return r.svarint()
    if tag == _T_VEC:
        return tuple([r.uvarint() for _ in range(r.uvarint())])
    if tag == _T_NONE:
        return None
    if tag == _T_BOTTOM:
        return BOTTOM
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_BYTES:
        return r.take(r.uvarint())
    if tag == _T_WID:
        return read_wid(r)
    if tag not in (_T_TUPLE, _T_LIST, _T_DICT):
        raise CodecError(f"unknown value tag {tag}")
    if room <= 0:
        raise CodecError("containers nested too deep")
    room -= 1
    n = r.uvarint()
    if tag == _T_TUPLE:
        return tuple([decode_value(r, room) for _ in range(n)])
    if tag == _T_LIST:
        return [decode_value(r, room) for _ in range(n)]
    out = {}
    for _ in range(n):
        key = decode_value(r, room)
        item = decode_value(r, room)
        try:
            out[key] = item
        except TypeError:
            raise CodecError("unhashable dict key") from None
    return out


def _hashable(value: Any) -> Any:
    """``value`` as a variable name (nodes key their stores by it)."""
    try:
        hash(value)
    except TypeError:
        raise CodecError("unhashable variable name") from None
    return value


def write_vec(w: VarWriter, vec: Tuple[int, ...]) -> None:
    w.uvarint(len(vec))
    for item in vec:
        w.uvarint(item)


def read_vec(r: VarReader) -> Tuple[int, ...]:
    return tuple([r.uvarint() for _ in range(r.uvarint())])


# -- variables --------------------------------------------------------------
#
# An update names its variable with a code: 0 = a string, spelled out;
# 1 = any other value (tests use ints/tuples), generic value encoding;
# k >= 2 = entry k-2 of the stream's table (InternEncoder/InternDecoder
# only -- the canonical form never uses it).

def _write_variable(w: VarWriter, variable: Any) -> None:
    if type(variable) is str:
        data = variable.encode("utf-8")
        buf = w.buf
        buf.append(0)
        write_uvarint(buf, len(data))
        buf += data
    else:
        w.u8(1)
        encode_value(w, variable)


def _read_variable(r: VarReader, code: int) -> Any:
    return r.text() if code == 0 else _hashable(decode_value(r))


class InternEncoder:
    """Sender-side variable table: a name costs its UTF-8 spelling the
    first time it crosses a stream, one varint afterwards."""

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}

    def write(self, w: VarWriter, variable: Any) -> None:
        if type(variable) is str:
            known = self._ids.get(variable)
            if known is not None:
                w.uvarint(known + 2)
                return
            self._ids[variable] = len(self._ids)
        _write_variable(w, variable)


class InternDecoder:
    """Receiver-side mirror of :class:`InternEncoder`.  The table grows
    with every distinct name, so it belongs on streams whose sender is
    trusted to reuse names; the server's peer plane decodes statelessly."""

    __slots__ = ("_names",)

    def __init__(self) -> None:
        self._names: List[str] = []

    def read(self, r: VarReader) -> Any:
        code = r.uvarint()
        if code >= 2:
            try:
                return self._names[code - 2]
            except IndexError:
                raise CodecError(
                    f"undefined interned variable id {code - 2}") from None
        name = _read_variable(r, code)
        if code == 0:
            self._names.append(name)
        return name


# -- protocol messages ------------------------------------------------------

def encode_message_into(w: VarWriter, message: Message,
                        intern: Optional[InternEncoder] = None) -> None:
    """Append one message body; ``intern=None`` gives the canonical
    (self-contained) form.

    One pass over an update, with no helper call for what an update
    nearly always holds: ids, counts, lengths and the sequence number
    are written in place, and so are a ``str`` name or value and a
    ``_T_VEC`` payload entry.  Anything else goes through
    :func:`write_uvarint` / :func:`encode_value`, which write the same
    bytes.
    """
    buf = w.buf
    if isinstance(message, UpdateMessage):
        sender = message.sender
        wid = message.wid
        process = wid.process
        buf.append(_M_UPDATE)
        if 0 <= sender < 0x80 and 0 <= process < 0x80:
            buf.append(sender)
            buf.append(process)
        else:
            write_uvarint(buf, sender)
            write_uvarint(buf, process)
        seq = wid.seq                   # >= 1: a WriteId checks it
        while seq > 0x7F:
            buf.append((seq & 0x7F) | 0x80)
            seq >>= 7
        buf.append(seq)
        variable = message.variable
        if intern is not None:
            intern.write(w, variable)
        elif type(variable) is str:
            data = variable.encode("utf-8")
            buf.append(0)
            if len(data) < 0x80:
                buf.append(len(data))
            else:
                write_uvarint(buf, len(data))
            buf += data
        else:
            buf.append(1)
            encode_value(w, variable)
        value = message.value
        if type(value) is str:
            data = value.encode("utf-8")
            buf.append(_T_STR)
            if len(data) < 0x80:
                buf.append(len(data))
            else:
                write_uvarint(buf, len(data))
            buf += data
        else:
            encode_value(w, value)
        payload = message.payload
        if len(payload) < 0x80:
            buf.append(len(payload))
        else:
            write_uvarint(buf, len(payload))
        for key, value in payload.items():
            if type(key) is not str:
                raise CodecError(f"non-string payload key {key!r}")
            data = key.encode("utf-8")
            if len(data) < 0x80:
                buf.append(len(data))
            else:
                write_uvarint(buf, len(data))
            buf += data
            if type(value) is tuple and 0 < len(value) < 0x80:
                for item in value:
                    if type(item) is not int or item < 0:
                        break
                else:           # a vector clock: _T_VEC, in place
                    buf.append(_T_VEC)
                    buf.append(len(value))
                    for item in value:
                        while item > 0x7F:
                            buf.append((item & 0x7F) | 0x80)
                            item >>= 7
                        buf.append(item)
                    continue
            encode_value(w, value)
    elif isinstance(message, ControlMessage):
        buf.append(_M_CONTROL)
        write_uvarint(buf, message.sender)
        data = message.kind.encode("utf-8")
        write_uvarint(buf, len(data))
        buf += data
        encode_value(w, dict(message.payload))
    else:
        raise CodecError(f"unknown message type {type(message).__name__}")


def decode_message_from(r: VarReader,
                        intern: Optional[InternDecoder] = None) -> Message:
    """Read one message body.  With ``intern=None`` the decode is
    stateless: the body must be self-contained, and a table reference
    is a :class:`CodecError`.

    One pass over an update, the mirror of :func:`encode_message_into`:
    a varint that fits one byte, a ``str`` name or value and a
    ``_T_VEC`` payload entry are read in place.  A longer varint, any
    other name or value, and the intern table go through the
    :class:`VarReader` helpers.
    """
    data = r.data
    pos = r.pos
    try:
        tag = data[pos]
        if tag != _M_UPDATE:
            r.pos = pos + 1
            if tag == _M_CONTROL:
                return _decode_control(r)
            raise CodecError(f"unknown message tag {tag}")
        sender = data[pos + 1]
        pos += 2
        if sender > 0x7F:
            r.pos = pos - 1
            sender = r.uvarint()
            pos = r.pos
        process = data[pos]
        pos += 1
        if process > 0x7F:
            r.pos = pos - 1
            process = r.uvarint()
            pos = r.pos
        seq = data[pos]
        pos += 1
        if seq > 0x7F:
            r.pos = pos - 1
            seq = r.uvarint()
            pos = r.pos
        if seq < 1:
            raise CodecError("write id sequence numbers are 1-based")
        code = data[pos]
        if intern is not None:
            r.pos = pos
            variable = intern.read(r)
            pos = r.pos
        elif code == 0 and data[pos + 1] < 0x80:
            end = pos + 2 + data[pos + 1]
            if end > len(data):
                raise CodecError("truncated frame")
            variable = str(data[pos + 2:end], "utf-8")
            pos = end
        else:
            r.pos = pos
            code = r.uvarint()
            if code >= 2:
                raise CodecError(
                    f"interned variable id {code - 2} in a stateless decode")
            variable = _read_variable(r, code)
            pos = r.pos
        if data[pos] == _T_STR and data[pos + 1] < 0x80:
            end = pos + 2 + data[pos + 1]
            if end > len(data):
                raise CodecError("truncated frame")
            value = str(data[pos + 2:end], "utf-8")
            pos = end
        else:
            r.pos = pos
            value = decode_value(r)
            pos = r.pos
        count = data[pos]
        pos += 1
        if count > 0x7F:
            r.pos = pos - 1
            count = r.uvarint()
            pos = r.pos
        payload = {}
        for _ in range(count):
            n = data[pos]
            pos += 1
            if n > 0x7F:
                r.pos = pos - 1
                n = r.uvarint()
                pos = r.pos
            end = pos + n
            if end > len(data):
                raise CodecError("truncated frame")
            key = str(data[pos:end], "utf-8")
            pos = end
            if data[pos] != _T_VEC or data[pos + 1] > 0x7F:
                r.pos = pos
                payload[key] = decode_value(r)
                pos = r.pos
                continue
            n = data[pos + 1]
            pos += 2
            vec = []
            for _ in range(n):
                item = data[pos]
                pos += 1
                if item > 0x7F:
                    r.pos = pos - 1
                    item = r.uvarint()
                    pos = r.pos
                vec.append(item)
            payload[key] = tuple(vec)
    except IndexError:
        raise CodecError("truncated frame") from None
    except UnicodeDecodeError:
        raise CodecError("invalid UTF-8 in string") from None
    r.pos = pos
    return UpdateMessage(sender, WriteId(process, seq), variable, value,
                         payload)


def _decode_control(r: VarReader) -> ControlMessage:
    sender = r.uvarint()
    kind = r.text()
    payload = decode_value(r)
    if type(payload) is not dict:
        raise CodecError("control payload must decode to a dict")
    return ControlMessage(sender=sender, kind=kind, payload=payload)


def encode_message(message: Message) -> bytes:
    """The canonical encoding of one message: deterministic and
    self-contained.  It is the form an update has everywhere outside a
    node -- peer-plane body, retransmission buffer, snapshot, WAL --
    and the size oracle for :func:`repro.sim.network.estimate_size`."""
    w = VarWriter()
    encode_message_into(w, message)
    return w.getvalue()


def decode_message(data: bytes) -> Message:
    r = VarReader(data)
    message = decode_message_from(r)
    if not r.done():
        raise CodecError("trailing bytes after message")
    return message


def encode_hello(role: int, sender: int = 0, acked: int = 0) -> bytes:
    """Body of the HELLO that opens a connection; a peer's also says how
    many of the receiver's writes it has applied (``acked``)."""
    w = VarWriter()
    w.u8(FRAME_HELLO)
    w.u8(role)
    w.uvarint(sender)
    if role == ROLE_PEER:
        w.uvarint(acked)
    return w.getvalue()


def encode_batch(bodies: List[bytes]) -> bytes:
    """Body of one MSG_BATCH frame: canonical message ``bodies``, as
    they are, behind the frame type and their count."""
    header = bytearray((FRAME_MSG_BATCH,))
    write_uvarint(header, len(bodies))
    return b"".join([header, *bodies])


def decode_batch(data: bytes) -> List[Message]:
    """The messages of one MSG_BATCH frame, each decoded statelessly.

    A frame is journaled whole and decoded again at every restart, so
    bytes after the last declared message are refused here, not skipped.
    """
    r = VarReader(data)
    if r.u8() != FRAME_MSG_BATCH:
        raise CodecError("expected MSG_BATCH on peer plane")
    messages = [decode_message_from(r) for _ in range(r.uvarint())]
    if not r.done():
        raise CodecError("trailing bytes after the last message of a batch")
    return messages


def encoded_size(message: Message) -> Optional[int]:
    """Exact canonical wire size in bytes, or None when some payload
    value falls outside the codec's vocabulary (the caller falls back
    to the heuristic estimate)."""
    try:
        return len(encode_message(message))
    except CodecError:
        return None


# -- client request / response ----------------------------------------------

def encode_request(session: Tuple[int, ...],
                   ops: List[Tuple[int, Any, Any]]) -> bytes:
    """Body of one REQUEST frame.

    ``ops`` is ``[(OP_READ, variable, None) | (OP_WRITE, variable,
    value), ...]``; results come back positionally in the matching
    RESPONSE frame, so there are no per-op request ids on the wire.
    """
    w = VarWriter()
    w.u8(FRAME_REQUEST)
    write_vec(w, session)
    w.uvarint(len(ops))
    for kind, variable, value in ops:
        w.u8(kind)
        encode_value(w, variable)
        if kind == OP_WRITE:
            encode_value(w, value)
    return w.getvalue()


def decode_request(data: bytes) -> Tuple[Tuple[int, ...],
                                         List[Tuple[int, Any, Any]]]:
    """One pass over a REQUEST body, with the in-place reads of
    :func:`decode_message_from`: every op's kind, a one-byte count, and
    a ``str`` variable or value."""
    r = VarReader(data)
    try:
        if data[0] != FRAME_REQUEST:
            raise CodecError("not a REQUEST frame")
        r.pos = 1
        session = read_vec(r)
        pos = r.pos
        count = data[pos]
        pos += 1
        if count > 0x7F:
            r.pos = pos - 1
            count = r.uvarint()
            pos = r.pos
        ops = []
        for _ in range(count):
            kind = data[pos]
            pos += 1
            if data[pos] == _T_STR and data[pos + 1] < 0x80:
                end = pos + 2 + data[pos + 1]
                if end > len(data):
                    raise CodecError("truncated frame")
                variable = str(data[pos + 2:end], "utf-8")
                pos = end
            else:
                r.pos = pos
                variable = _hashable(decode_value(r))
                pos = r.pos
            if kind == OP_READ:
                ops.append((kind, variable, None))
                continue
            if kind != OP_WRITE:
                raise CodecError(f"unknown op kind {kind}")
            if data[pos] == _T_STR and data[pos + 1] < 0x80:
                end = pos + 2 + data[pos + 1]
                if end > len(data):
                    raise CodecError("truncated frame")
                value = str(data[pos + 2:end], "utf-8")
                pos = end
            else:
                r.pos = pos
                value = decode_value(r)
                pos = r.pos
            ops.append((kind, variable, value))
    except IndexError:
        raise CodecError("truncated frame") from None
    except UnicodeDecodeError:
        raise CodecError("invalid UTF-8 in string") from None
    return session, ops


def encode_response(progress: Tuple[int, ...],
                    results: List[Tuple[int, Any]]) -> bytes:
    """Body of one RESPONSE frame.

    ``results`` mirrors the request's ops: ``(OP_WRITE, seq)`` acks a
    write with the issued :class:`WriteId` sequence number,
    ``(OP_READ, value)`` carries the read value.  ``progress`` is the
    server's applied vector *after* the batch -- the client folds it
    into its session vector (max per component).

    One pass, with the in-place writes of :func:`encode_message_into`:
    a one-byte write ack and a ``str`` read value.
    """
    w = VarWriter()
    buf = w.buf
    buf.append(FRAME_RESPONSE)
    write_vec(w, progress)
    write_uvarint(buf, len(results))
    for kind, value in results:
        buf.append(kind)
        if kind == OP_WRITE:
            if 0 <= value < 0x80:
                buf.append(value)
            else:
                write_uvarint(buf, value)
        elif type(value) is str:
            data = value.encode("utf-8")
            buf.append(_T_STR)
            if len(data) < 0x80:
                buf.append(len(data))
            else:
                write_uvarint(buf, len(data))
            buf += data
        else:
            encode_value(w, value)
    return bytes(buf)


def decode_response(data: bytes) -> Tuple[Tuple[int, ...],
                                          List[Tuple[int, Any]]]:
    r = VarReader(data)
    if r.u8() != FRAME_RESPONSE:
        raise CodecError("not a RESPONSE frame")
    progress = read_vec(r)
    results = []
    for _ in range(r.uvarint()):
        kind = r.u8()
        if kind == OP_WRITE:
            results.append((kind, r.uvarint()))
        elif kind == OP_READ:
            results.append((kind, decode_value(r)))
        else:
            raise CodecError(f"unknown result kind {kind}")
    return progress, results


# -- framing ----------------------------------------------------------------

def frame(body: bytes) -> bytes:
    """Length-prefix one frame body for the wire."""
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame body of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


def write_frame(writer, body: bytes) -> None:
    """Queue one frame on an asyncio StreamWriter (no drain)."""
    writer.write(frame(body))


async def read_frame(reader) -> Optional[bytes]:
    """Read one frame body; None on clean EOF at a frame boundary.

    ``asyncio.IncompleteReadError`` subclasses ``EOFError``, so both a
    polite close and a reset land in the same branches.
    """
    try:
        header = await reader.readexactly(4)
    except (EOFError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise CodecError(f"frame length {length} exceeds MAX_FRAME")
    try:
        return await reader.readexactly(length)
    except (EOFError, ConnectionError):
        raise CodecError("connection closed mid-frame") from None


class FrameBuffer:
    """The receive side of the framing without a reader object.

    The transport fills :meth:`writable` (``recv_into``) and reports the
    count to :meth:`wrote`; :meth:`next_frame` then hands out each
    complete body.  One ``bytearray`` serves the whole connection: a
    parsed frame is dropped by moving a cursor, and an unfinished one is
    moved to the front only when the rest of it would not fit behind it.
    The buffer grows to hold one frame (never more than
    :data:`MAX_FRAME` + 4 bytes) and returns to ``size`` once drained.
    """

    __slots__ = ("size", "view", "start", "end")

    def __init__(self, size: int = 256 << 10):  # one ``recv`` at most
        self.size = size
        self.view = memoryview(bytearray(size))
        self.start = self.end = 0

    def writable(self) -> memoryview:
        """Where the next ``recv_into`` goes; never empty."""
        return self.view[self.end:]

    def wrote(self, nbytes: int) -> None:
        self.end += nbytes

    def next_frame(self) -> Optional[bytes]:
        """The next complete frame body, or None once only an unfinished
        frame (or nothing) is left -- room for its rest is made then."""
        start = self.start
        have = self.end - start
        need = 4
        if have >= 4:
            (length,) = _LEN.unpack_from(self.view, start)
            if length > MAX_FRAME:
                raise CodecError(f"frame length {length} exceeds MAX_FRAME")
            need += length
            if have >= need:
                self.start = start + need
                return bytes(self.view[start + 4:start + need])
        if not have:
            self.start = self.end = 0
            if len(self.view) > self.size:
                self.view = memoryview(bytearray(self.size))
        elif start + need > len(self.view):
            rest = self.take_rest()
            if need > len(self.view):
                self.view = memoryview(bytearray(need))
            self.view[:have] = rest
            self.end = have
        return None

    def take_rest(self) -> bytes:
        """Remove and return the bytes no frame has claimed yet."""
        rest = bytes(self.view[self.start:self.end])
        self.start = self.end = 0
        return rest
