"""Wire-codec round-trip tests.

Two layers: hypothesis property tests over the tagged value universe,
and an end-to-end capture -- every message every registry protocol
actually emits on a random workload must round-trip byte-for-byte
through the codec (this is what makes ``sim.network.estimate_size``'s
exact sizing sound for all protocols).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.network as network_mod
from repro.core.base import ControlMessage, UpdateMessage
from repro.model.operations import WriteId
from repro.protocols import PROTOCOLS
from repro.serve.codec import (
    MAX_DEPTH,
    MAX_FRAME,
    CodecError,
    InternDecoder,
    InternEncoder,
    VarReader,
    VarWriter,
    decode_batch,
    decode_message,
    decode_message_from,
    decode_request,
    decode_response,
    decode_value,
    encode_batch,
    encode_message,
    encode_message_into,
    encode_request,
    encode_response,
    encode_value,
    encoded_size,
    frame,
    write_uvarint,
)
from repro.sim import SeededLatency, run_schedule
from repro.workloads import WorkloadConfig, random_schedule

# -- value universe ----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.builds(WriteId, st.integers(0, 100), st.integers(1, 2**31)),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), inner, max_size=5),
    ),
    max_leaves=20,
)


def _update(sender, seq, vec, variable="k7", value="v" * 64):
    return UpdateMessage(sender=sender, wid=WriteId(sender, seq),
                         variable=variable, value=value,
                         payload={"write_co": vec})


#: Canonical bodies of every shape a decoder is fed, with ids, sequence
#: numbers and vector components of one, two and three varint bytes.
_UPDATES = [
    _update(0, 1, (1, 0, 0)),
    _update(1, 200, (127, 200, 128)),
    _update(2, 20000, (16384, 16383, 20000), variable=("k", 9),
            value=b"raw"),
    _update(300, 2**40, (2**40, 0) * 3, variable="ключ",
            value="значение"),
]
CANONICAL_BODIES = [
    *(encode_message(m) for m in _UPDATES),
    encode_message(ControlMessage(sender=1, kind="token",
                                  payload={"round": 16384})),
    encode_batch([encode_message(m) for m in _UPDATES]),
    encode_request((200, 0, 16384), [(1, "k1", "v" * 200), (0, "k2", None),
                                     (1, 7, (1, 2)), (0, ("k", 3), None)]),
    encode_response((200, 0, 16384), [(1, 1), (1, 20000), (0, "v" * 200),
                                      (0, None), (0, (1, 2))]),
]
DECODE_BY_TYPE = {2: decode_batch, 3: decode_request, 4: decode_response}
DECODERS = (lambda data: decode_value(VarReader(data)), decode_message,
            *DECODE_BY_TYPE.values())


def roundtrip_value(value):
    w = VarWriter()
    encode_value(w, value)
    r = VarReader(w.getvalue())
    out = decode_value(r)
    assert r.done()
    return out


class TestValueRoundtrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_identity(self, value):
        assert roundtrip_value(value) == value

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_types_preserved(self, value):
        # bool vs int, tuple vs list, bytes vs str must not collapse
        out = roundtrip_value(value)
        assert type(out) is type(value)

    def test_vector_fast_path(self):
        for vec in [(0,), (1, 2, 3), (2**40, 0, 5)]:
            assert roundtrip_value(vec) == vec

    def test_bottom_sentinel(self):
        from repro.core.base import BOTTOM

        assert roundtrip_value(BOTTOM) is BOTTOM

    def test_unencodable_rejected(self):
        w = VarWriter()
        with pytest.raises(CodecError):
            encode_value(w, object())

    @given(st.binary(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_garbage_never_crashes(self, blob):
        # decoding attacker-controlled bytes must raise CodecError (or
        # succeed), never IndexError/KeyError/MemoryError -- in every
        # decoder a peer or a client reaches, each one behind its
        # frame-type byte as well as bare
        for data in (blob, *(bytes([kind]) + blob for kind in (2, 3, 4))):
            for decode in DECODERS:
                try:
                    decode(data)
                except CodecError:
                    pass

    @given(st.sampled_from(range(len(CANONICAL_BODIES))), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cut_and_flipped_bodies_never_crash(self, index, data):
        """Real bodies -- ids, sequence numbers and vector components
        past one and two varint bytes -- cut short, or with bytes
        flipped: only a CodecError may come out of any decoder."""
        body = bytearray(CANONICAL_BODIES[index])
        if data.draw(st.booleans()):
            body = body[:data.draw(st.integers(0, len(body) - 1))]
        else:
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(body) - 1))
                body[at] ^= data.draw(st.integers(1, 255))
        body = bytes(body)
        for decode in DECODERS:
            try:
                decode(body)
            except CodecError:
                pass
        # ... and the one-pass decoders answer as the plain helpers do:
        # the same result, or the same error first
        for decode, ref in ((decode_message, ref_decode_message),
                            (decode_batch, ref_decode_batch),
                            (decode_request, ref_decode_request)):
            assert outcome(decode, body) == outcome(ref, body)

    def test_every_cut_of_a_body_is_truncated(self):
        for body in CANONICAL_BODIES:
            decode = DECODE_BY_TYPE.get(body[0], decode_message)
            for end in range(len(body)):
                with pytest.raises(CodecError):
                    decode(body[:end])

    # Hostile frames that 200 random blobs never produced: each used to
    # leave the decoder as something other than CodecError, past the
    # server's ``except (CodecError, ConnectionError)``.
    BAD_UTF8 = bytes([2, 0xFF, 0xFE])            # length 2, not UTF-8
    UPDATE_HEAD = bytes([0, 0, 0, 1])            # update, sender 0, w[p0#1]

    @pytest.mark.parametrize("decode, blob", [
        # the frame the issue reported: a read of a variable named \xff\xfe
        (decode_request, bytes([3, 1, 0, 1, 0, 6]) + BAD_UTF8),
        (decode_request, bytes([3, 1, 0, 1, 1, 6, 1, 0x78, 6]) + BAD_UTF8),
        (decode_response, bytes([4, 1, 0, 1, 0, 6]) + BAD_UTF8),
        (decode_message, UPDATE_HEAD + bytes([0]) + BAD_UTF8),      # variable
        (decode_message,                                        # payload key
         UPDATE_HEAD + bytes([0, 1, 0x78, 0, 1]) + BAD_UTF8 + bytes([0])),
        (decode_message, bytes([1, 0]) + BAD_UTF8 + bytes([10, 0])),   # kind
    ], ids=["read-variable", "write-value", "response-value",
            "update-variable", "payload-key", "control-kind"])
    def test_invalid_utf8_is_a_codec_error(self, decode, blob):
        with pytest.raises(CodecError, match="UTF-8"):
            decode(blob)

    @pytest.mark.parametrize("tag", [8, 9], ids=["tuple", "list"])
    def test_nesting_is_bounded(self, tag):
        def nested(levels):
            return bytes([tag, 1]) * levels + bytes([0])    # ((...(None)...))
        value = decode_value(VarReader(nested(MAX_DEPTH)))
        for _ in range(MAX_DEPTH):
            (value,) = value
        assert value is None
        with pytest.raises(CodecError, match="nested"):
            decode_value(VarReader(nested(MAX_DEPTH + 1)))
        # far past the interpreter's recursion limit: still a CodecError
        with pytest.raises(CodecError, match="nested"):
            decode_request(bytes([3, 1, 0, 1, 1, 6, 1, 0x78])
                           + nested(50_000))

    def test_nested_dicts_are_bounded(self):
        blob = bytes([10, 1, 0]) * (MAX_DEPTH + 1) + bytes([0])   # {None: {..}}
        with pytest.raises(CodecError, match="nested"):
            decode_value(VarReader(blob))

    def test_unhashable_dict_key_is_a_codec_error(self):
        with pytest.raises(CodecError, match="unhashable"):
            decode_value(VarReader(bytes([10, 1, 9, 0, 0])))      # {[]: None}

    def test_unhashable_variable_is_a_codec_error(self):
        # a list is a value, but not a name a node can key its store by
        with pytest.raises(CodecError, match="unhashable"):
            decode_request(bytes([3, 1, 0, 1, 0, 9, 0]))
        with pytest.raises(CodecError, match="unhashable"):
            decode_message(self.UPDATE_HEAD + bytes([1, 9, 0, 0, 0]))
        session, ops = decode_request(encode_request((0,), [(0, (1, "x"), None)]))
        assert ops == [(0, (1, "x"), None)]

    def test_zero_sequence_write_id_is_a_codec_error(self):
        with pytest.raises(CodecError, match="1-based"):
            decode_value(VarReader(bytes([11, 0, 0])))
        with pytest.raises(CodecError, match="1-based"):
            decode_message(bytes([0, 0, 0, 0]))


# -- varints: the single-byte fast paths against the plain loops ---------------

def loop_write_uvarint(buf, value):
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def loop_read_uvarint(data, pos):
    """(value, next position), or None where the reader must refuse."""
    out = shift = 0
    while pos < len(data) and shift <= 70:
        b = data[pos]
        pos += 1
        out |= (b & 0x7F) << shift
        if not b & 0x80:
            return out, pos
        shift += 7
    return None


EDGES = [0, 1, 0x7F, 0x80, 2**14 - 1, 2**14, 2**63, 2**64 - 1]
uvarints = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**70))


class TestVarintFastPath:
    @given(st.lists(uvarints, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_writers_agree_with_the_loop(self, numbers):
        want, plain, w = bytearray(), bytearray(), VarWriter()
        for number in numbers:
            loop_write_uvarint(want, number)
            write_uvarint(plain, number)
            w.uvarint(number)
        assert plain == want
        assert w.getvalue() == bytes(want)
        r = VarReader(bytes(want))
        assert [r.uvarint() for _ in numbers] == numbers
        assert r.done()

    @given(st.lists(uvarints, min_size=1, max_size=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reader_agrees_with_the_loop_on_any_cut(self, numbers, data):
        blob = bytearray()
        for number in numbers:
            loop_write_uvarint(blob, number)
        blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
        r = VarReader(blob)
        pos = 0
        while pos < len(blob):
            want = loop_read_uvarint(blob, pos)
            if want is None:
                with pytest.raises(CodecError, match="truncated"):
                    r.uvarint()
                return
            assert (r.uvarint(), r.pos) == want
            pos = r.pos
        with pytest.raises(CodecError, match="truncated"):
            r.uvarint()

    @given(st.integers(-(2**66), 2**66))
    @settings(max_examples=200, deadline=None)
    def test_signed_roundtrip(self, number):
        w = VarWriter()
        w.svarint(number)
        assert VarReader(w.getvalue()).svarint() == number

    def test_overlong_varint_rejected(self):
        assert loop_read_uvarint(b"\x80" * 11 + b"\x01", 0) is None
        with pytest.raises(CodecError, match="too long"):
            VarReader(b"\x80" * 11 + b"\x01").uvarint()
        assert VarReader(b"\x80" * 10 + b"\x01").uvarint() == 1 << 70

    def test_negative_rejected(self):
        for write in (write_uvarint, lambda buf, v: VarWriter().uvarint(v)):
            with pytest.raises(CodecError, match="negative"):
                write(bytearray(), -1)


# -- interning ----------------------------------------------------------------

class TestInterning:
    def test_second_reference_is_smaller(self):
        enc = InternEncoder()
        w1 = VarWriter()
        enc.write(w1, "some-long-variable-name")
        w2 = VarWriter()
        enc.write(w2, "some-long-variable-name")
        assert len(w2.getvalue()) < len(w1.getvalue())
        dec = InternDecoder()
        assert dec.read(VarReader(w1.getvalue())) == "some-long-variable-name"
        assert dec.read(VarReader(w2.getvalue())) == "some-long-variable-name"

    def test_stateless_encoding_is_canonical(self):
        m = UpdateMessage(sender=0, wid=WriteId(0, 1), variable="x",
                          value=1, payload={"write_co": (1, 0)})
        assert encode_message(m) == encode_message(m)
        assert encoded_size(m) == len(encode_message(m))

    def test_canonical_body_is_the_first_use_form(self):
        """No table, a fresh table, and the explicit default all write
        the same bytes: the canonical body did not change when the
        server stopped interning."""
        m = UpdateMessage(sender=2, wid=WriteId(2, 300), variable="k517",
                          value="v" * 64, payload={"write_co": (7, 0, 300)})
        bodies = []
        for intern in ((), (None,), (InternEncoder(),)):
            w = VarWriter()
            encode_message_into(w, m, *intern)
            bodies.append(w.getvalue())
        assert bodies == [encode_message(m)] * 3
        assert decode_message_from(VarReader(bodies[0])) == m

    def test_stateless_decode_rejects_a_table_reference(self):
        m = UpdateMessage(sender=0, wid=WriteId(0, 2), variable="x",
                          value=1, payload={"write_co": (2, 0)})
        enc, w = InternEncoder(), VarWriter()
        encode_message_into(w, m, enc)
        first = len(w.getvalue())
        encode_message_into(w, m, enc)          # "x" is now table entry 0
        referencing = w.getvalue()[first:]
        with pytest.raises(CodecError, match="interned variable id 0"):
            decode_message(referencing)
        with pytest.raises(CodecError, match="interned variable id 0"):
            decode_message_from(VarReader(referencing))


# -- canonical bytes: the one-pass codec against the grammar ------------------
#
# A reference encoder written from the tables in docs/serving.md ("Wire
# format"), out of the generic helpers alone: whatever the one-pass
# functions inline, the bytes must be these.

def ref_text(buf, text):
    data = text.encode("utf-8")
    write_uvarint(buf, len(data))
    buf += data


def ref_message(message):
    w = VarWriter()
    buf = w.buf
    if isinstance(message, ControlMessage):
        buf.append(1)
        write_uvarint(buf, message.sender)
        ref_text(buf, message.kind)
        encode_value(w, dict(message.payload))
        return bytes(buf)
    buf.append(0)
    write_uvarint(buf, message.sender)
    write_uvarint(buf, message.wid.process)
    write_uvarint(buf, message.wid.seq)
    if type(message.variable) is str:
        buf.append(0)
        ref_text(buf, message.variable)
    else:
        buf.append(1)
        encode_value(w, message.variable)
    encode_value(w, message.value)
    write_uvarint(buf, len(message.payload))
    for key, value in message.payload.items():
        ref_text(buf, key)
        encode_value(w, value)
    return bytes(buf)


def ref_vec(buf, vec):
    write_uvarint(buf, len(vec))
    for item in vec:
        write_uvarint(buf, item)


def ref_request(session, ops):
    w = VarWriter()
    buf = w.buf
    buf.append(3)
    ref_vec(buf, session)
    write_uvarint(buf, len(ops))
    for kind, variable, value in ops:
        buf.append(kind)
        encode_value(w, variable)
        if kind == 1:
            encode_value(w, value)
    return bytes(buf)


def ref_response(progress, results):
    w = VarWriter()
    buf = w.buf
    buf.append(4)
    ref_vec(buf, progress)
    write_uvarint(buf, len(results))
    for kind, value in results:
        buf.append(kind)
        if kind == 1:
            write_uvarint(buf, value)
        else:
            encode_value(w, value)
    return bytes(buf)


# Reference decoders, the same grammar read with the VarReader helpers
# alone: the one-pass decoders must agree on every input, errors too.

def ref_name(value):
    try:
        hash(value)
    except TypeError:
        raise CodecError("unhashable variable name") from None
    return value


def ref_read_message(r):
    kind = r.u8()
    if kind == 1:
        sender, text, payload = r.uvarint(), r.text(), decode_value(r)
        if type(payload) is not dict:
            raise CodecError("control payload must decode to a dict")
        return ControlMessage(sender=sender, kind=text, payload=payload)
    if kind != 0:
        raise CodecError(f"unknown message tag {kind}")
    sender, process, seq = r.uvarint(), r.uvarint(), r.uvarint()
    if seq < 1:
        raise CodecError("write id sequence numbers are 1-based")
    code = r.uvarint()
    if code >= 2:
        raise CodecError(
            f"interned variable id {code - 2} in a stateless decode")
    variable = r.text() if code == 0 else ref_name(decode_value(r))
    value = decode_value(r)
    payload = {}
    for _ in range(r.uvarint()):
        key = r.text()
        payload[key] = decode_value(r)
    return UpdateMessage(sender=sender, wid=WriteId(process, seq),
                         variable=variable, value=value, payload=payload)


def ref_decode_message(data):
    r = VarReader(data)
    message = ref_read_message(r)
    if not r.done():
        raise CodecError("trailing bytes after message")
    return message


def ref_decode_batch(data):
    r = VarReader(data)
    if r.u8() != 2:
        raise CodecError("expected MSG_BATCH on peer plane")
    messages = [ref_read_message(r) for _ in range(r.uvarint())]
    if not r.done():
        raise CodecError("trailing bytes after the last message of a batch")
    return messages


def ref_decode_request(data):
    r = VarReader(data)
    if r.u8() != 3:
        raise CodecError("not a REQUEST frame")
    session = tuple(r.uvarint() for _ in range(r.uvarint()))
    ops = []
    for _ in range(r.uvarint()):
        kind = r.u8()
        variable = ref_name(decode_value(r))
        if kind == 1:
            ops.append((kind, variable, decode_value(r)))
        elif kind == 0:
            ops.append((kind, variable, None))
        else:
            raise CodecError(f"unknown op kind {kind}")
    return session, ops


def outcome(decode, data):
    try:
        return decode(data)
    except CodecError as exc:
        return str(exc)


#: one, two, three and more varint bytes, and the edges between them
wide = st.one_of(st.integers(0, 300), st.sampled_from(EDGES[:6]),
                 st.integers(0, 2**45))
names = st.one_of(st.text(max_size=12), st.text(min_size=120, max_size=140),
                  st.integers(-5, 2**20), st.tuples(st.text(max_size=3),
                                                    st.integers(0, 9)))
vectors = st.lists(wide, min_size=1, max_size=5).map(tuple)
payload_values = st.one_of(vectors, st.just(()), values,
                           st.tuples(st.integers(-3, 3), wide))
updates = st.builds(
    lambda sender, seq, variable, value, payload: UpdateMessage(
        sender=sender, wid=WriteId(sender, seq), variable=variable,
        value=value, payload=payload),
    wide, wide.filter(bool), names,
    st.one_of(st.text(), st.text(min_size=130, max_size=200), values),
    st.dictionaries(st.text(max_size=140), payload_values, max_size=3))
controls = st.builds(
    lambda sender, kind, payload: ControlMessage(sender=sender, kind=kind,
                                                 payload=payload),
    wide, st.text(max_size=10),
    st.dictionaries(st.one_of(st.text(max_size=5), st.integers(-9, 2**40)),
                    values, max_size=3))
ops = st.lists(st.one_of(
    st.tuples(st.just(0), names, st.none()),
    st.tuples(st.just(1), names,
              st.one_of(st.text(), st.text(min_size=130, max_size=200),
                        values))), max_size=6)
results = st.lists(st.one_of(
    st.tuples(st.just(1), wide),
    st.tuples(st.just(0), st.one_of(st.text(), values))), max_size=6)


class TestCanonicalBytes:
    @given(st.one_of(updates, controls))
    @settings(max_examples=300, deadline=None)
    def test_messages_match_the_grammar(self, message):
        body = encode_message(message)
        assert body == ref_message(message)
        back = decode_message(body)
        assert back == message and type(back) is type(message)
        assert ref_decode_message(body) == message
        assert decode_batch(encode_batch([body, body])) == [message] * 2

    @given(st.lists(st.one_of(updates, controls), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_interned_stream_roundtrips(self, messages):
        w, enc = VarWriter(), InternEncoder()
        for message in messages:
            encode_message_into(w, message, enc)
        r, dec = VarReader(w.getvalue()), InternDecoder()
        assert [decode_message_from(r, dec) for _ in messages] == messages
        assert r.done()

    @given(vectors, ops)
    @settings(max_examples=200, deadline=None)
    def test_requests_match_the_grammar(self, session, ops):
        body = encode_request(session, ops)
        assert body == ref_request(session, ops)
        assert decode_request(body) == (session, ops)

    @given(vectors, results)
    @settings(max_examples=200, deadline=None)
    def test_responses_match_the_grammar(self, progress, results):
        body = encode_response(progress, results)
        assert body == ref_response(progress, results)
        assert decode_response(body) == (progress, results)


# -- messages from every registry protocol ------------------------------------

def capture_protocol_messages(proto, monkeypatch):
    """Run a real workload and capture every message the protocol
    put on the (simulated) wire."""
    captured = []
    orig = network_mod.estimate_size

    def spy(message):
        captured.append(message)
        return orig(message)

    monkeypatch.setattr(network_mod, "estimate_size", spy)
    cfg = WorkloadConfig(n_processes=3, ops_per_process=12,
                        n_variables=3, write_fraction=0.6, seed=5)
    run_schedule(proto, 3, random_schedule(cfg),
                 latency=SeededLatency(seed=7))
    return captured


class TestProtocolMessageRoundtrip:
    @pytest.mark.parametrize("proto", sorted(PROTOCOLS))
    def test_all_emitted_messages_roundtrip(self, proto, monkeypatch):
        captured = capture_protocol_messages(proto, monkeypatch)
        assert captured, f"{proto} sent no messages?"
        for message in captured:
            blob = encode_message(message)
            back = decode_message(blob)
            assert back == message  # frozen dataclass field equality
            assert type(back) is type(message)
            assert encoded_size(message) == len(blob)

    @pytest.mark.parametrize("proto", sorted(PROTOCOLS))
    def test_streamed_interning_roundtrip(self, proto, monkeypatch):
        """Per-connection interned stream (what peers actually ship)."""
        captured = capture_protocol_messages(proto, monkeypatch)
        w = VarWriter()
        enc = InternEncoder()
        for message in captured:
            encode_message_into(w, message, enc)
        r = VarReader(w.getvalue())
        dec = InternDecoder()
        back = [decode_message_from(r, dec) for _ in captured]
        assert r.done()
        assert back == captured


# -- request / response planes ------------------------------------------------

class TestRequestResponse:
    def test_request_roundtrip(self):
        from repro.serve.codec import OP_READ, OP_WRITE

        session = (3, 0, 7)
        ops = [(OP_WRITE, "x", "hello"), (OP_READ, "y", None),
               (OP_WRITE, "z", (1, 2))]
        back_session, back_ops = decode_request(
            encode_request(session, ops))
        assert back_session == session
        assert back_ops == ops

    def test_response_roundtrip(self):
        from repro.serve.codec import OP_READ, OP_WRITE

        progress = (5, 2, 9)
        results = [(OP_WRITE, 6), (OP_READ, "v"), (OP_READ, None)]
        back_progress, back_results = decode_response(
            encode_response(progress, results))
        assert back_progress == progress
        assert back_results == results


# -- framing ------------------------------------------------------------------

class TestFraming:
    def test_frame_layout(self):
        body = b"hello"
        blob = frame(body)
        assert blob[:4] == len(body).to_bytes(4, "big")
        assert blob[4:] == body

    def test_oversize_frame_rejected(self):
        with pytest.raises(CodecError):
            frame(b"x" * (MAX_FRAME + 1))

    def test_truncated_reader_raises(self):
        r = VarReader(b"\x05")
        with pytest.raises(CodecError):
            r.take(4)

    def test_control_payload_int_keys_ok(self):
        # generic dict encoding covers non-string keys on the control
        # plane (update payload keys are the strict ones)
        m = ControlMessage(sender=0, kind="k", payload={1: (2, 3)})
        assert decode_message(encode_message(m)) == m

    def test_update_payload_keys_must_be_strings(self):
        m = UpdateMessage(sender=0, wid=WriteId(0, 1), variable="x",
                          value=1, payload={1: 2})
        w = VarWriter()
        with pytest.raises(CodecError):
            encode_message_into(w, m, InternEncoder())
        assert encoded_size(m) is None  # -> heuristic fallback
