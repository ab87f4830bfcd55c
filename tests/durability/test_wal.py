"""WAL / snapshot codec round-trips and torn-tail recovery.

Two layers: hypothesis property tests over the record vocabulary
(every encodable record must decode back identically, and *any*
corruption -- a cut at an arbitrary byte, a flipped bit -- must reduce
the log to exactly its last valid prefix, never crash, never resync
into garbage), and deliberate framing tests for the snapshot file's
all-or-nothing contract.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import ControlMessage, UpdateMessage
from repro.durability import (
    KIND_BATCH,
    KIND_OPS,
    KIND_READ,
    KIND_RECV,
    KIND_WRITE,
    WalError,
    WalWriter,
    decode_record,
    decode_snapshot,
    encode_batch_record,
    encode_ops_record,
    encode_read_record,
    encode_recv_record,
    encode_snapshot,
    encode_write_record,
    MAX_RECORD,
    frame_record,
    read_framed_file,
    read_wal,
    write_framed_file,
)
from repro.model.operations import WriteId
from repro.serve.codec import (
    MAX_DEPTH,
    MAX_FRAME,
    OP_READ,
    OP_WRITE,
    encode_batch,
    encode_message,
    encode_request,
)

# -- the value universe the WAL may carry ------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.builds(WriteId, st.integers(0, 50), st.integers(1, 2**31)),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

messages = st.one_of(
    st.builds(
        UpdateMessage,
        sender=st.integers(0, 3),
        wid=st.builds(WriteId, st.integers(0, 3), st.integers(1, 100)),
        variable=st.text(min_size=1, max_size=10),
        value=scalars,
        payload=st.fixed_dictionaries(
            {"write_co": st.tuples(st.integers(0, 9), st.integers(0, 9))}
        ),
    ),
    st.builds(
        ControlMessage,
        sender=st.integers(0, 3),
        kind=st.text(min_size=1, max_size=8),
        payload=st.dictionaries(st.text(max_size=8), scalars, max_size=3),
    ),
)

ops_lists = st.lists(st.one_of(
    st.tuples(st.just(OP_WRITE), st.text(min_size=1, max_size=12), values),
    st.tuples(st.just(OP_READ), st.text(min_size=1, max_size=12),
              st.none())), min_size=1, max_size=5)

records = st.one_of(
    st.builds(encode_write_record, times, st.text(min_size=1, max_size=12),
              values),
    st.builds(encode_read_record, times, st.text(min_size=1, max_size=12)),
    st.builds(encode_recv_record, times, messages.map(encode_message)),
    st.builds(lambda t, ops: encode_ops_record(t, 0, len(ops),
                                               encode_request((0, 0), ops)),
              times, ops_lists),
    st.builds(encode_batch_record, times,
              st.lists(messages.map(encode_message), min_size=1,
                       max_size=3).map(encode_batch)),
)


class TestRecordRoundtrip:
    @given(t=times, variable=st.text(min_size=1, max_size=12), value=values)
    @settings(max_examples=150, deadline=None)
    def test_write_record(self, t, variable, value):
        rec = decode_record(encode_write_record(t, variable, value))
        assert rec == (KIND_WRITE, t, variable, value)

    @given(t=times, variable=st.text(min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_read_record(self, t, variable):
        rec = decode_record(encode_read_record(t, variable))
        assert rec == (KIND_READ, t, variable)

    @given(t=times, message=messages)
    @settings(max_examples=150, deadline=None)
    def test_recv_record(self, t, message):
        body = encode_message(message)
        record = encode_recv_record(t, body)
        assert record.endswith(body)     # the wire bytes, not a re-encoding
        kind, back_t, back_msg = decode_record(record)
        assert kind == KIND_RECV
        assert back_t == t
        assert back_msg == message
        assert type(back_msg) is type(message)

    @given(t=times, ops=ops_lists, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_ops_record_holds_the_request_and_replays_its_run(self, t, ops,
                                                              data):
        at = data.draw(st.integers(0, len(ops) - 1))
        stop = data.draw(st.integers(at + 1, len(ops)))
        request = encode_request((3, 0, 1), ops)
        record = encode_ops_record(t, at, stop, request)
        assert record.endswith(request)  # the frame, not a re-encoding
        assert decode_record(record) == (KIND_OPS, t, ops[at:stop])

    @given(t=times, batch=st.lists(messages, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_batch_record_holds_the_frame(self, t, batch):
        frame = encode_batch([encode_message(m) for m in batch])
        record = encode_batch_record(t, frame)
        assert record.endswith(frame)
        assert decode_record(record) == (KIND_BATCH, t, batch)

    @pytest.mark.parametrize("record", [
        encode_ops_record(0.0, 1, 1, encode_request((0,), [(OP_READ, "x",
                                                              None)])),
        encode_ops_record(0.0, 0, 2, encode_request((0,), [(OP_READ, "x",
                                                              None)])),
        encode_batch_record(0.0, encode_batch([]) + b"\x00"),
    ], ids=["empty-run", "run-past-the-request", "batch-trailing-byte"])
    def test_a_record_no_server_writes_is_a_wal_error(self, record):
        with pytest.raises(WalError):
            decode_record(record)

    def test_a_record_around_a_whole_frame_fits(self, tmp_path):
        """The largest record the server writes -- a run of a MAX_FRAME
        request -- frames, and reads back as a record, not a torn tail."""
        head = encode_request((0, 0, 0), [(OP_WRITE, "k", "")])
        value = "v" * (MAX_FRAME - len(head) - 3)  # its length: 4 bytes
        request = encode_request((0, 0, 0), [(OP_WRITE, "k", value)])
        assert len(request) == MAX_FRAME
        record = encode_ops_record(1e6, 2**28 - 1, 2**28, request)
        assert len(record) <= MAX_RECORD
        path = tmp_path / "big.wal"
        path.write_bytes(frame_record(record) + frame_record(b"\x02"))
        result = read_wal(path)
        assert result.bodies == [record, b"\x02"] and not result.truncated

    @given(st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_garbage_body_never_crashes(self, blob):
        # the record body behind a *valid* CRC frame could still be
        # damaged in memory; decoding must fail loudly, not corrupt
        try:
            decode_record(blob)
        except WalError:
            pass

    @pytest.mark.parametrize("body", [
        bytes([2, 0, 6, 2, 0xFF, 0xFE]),                  # read of a non-UTF-8 name
        bytes([1, 0, 6, 1, 0x78]) + bytes([8, 1]) * 5000 + bytes([0]),
        bytes([3, 0, 0, 0, 0, 1, 2]),                     # recv: table reference
    ], ids=["invalid-utf8", "nesting", "interned-id"])
    def test_hostile_body_is_a_wal_error(self, body):
        with pytest.raises(WalError, match="undecodable"):
            decode_record(body)


class TestSnapshotRoundtrip:
    @given(doc=st.dictionaries(st.text(max_size=8), values, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, doc):
        assert decode_snapshot(encode_snapshot(doc)) == doc

    def test_trailing_bytes_rejected(self):
        blob = encode_snapshot({"a": 1}) + b"\x00"
        with pytest.raises(WalError):
            decode_snapshot(blob)

    def test_deepest_client_value_survives_its_snapshot(self):
        """A value the client plane accepts (MAX_DEPTH containers) sits a
        few levels down in the snapshot document; the snapshot decoder
        must leave room for both, or the file could be written and never
        read back."""
        value = None
        for _ in range(MAX_DEPTH):
            value = (value,)
        doc = {"node": {"protocol": {"store": [("k", value, WriteId(0, 1))]}},
               "sent": [b"\x00"]}
        assert decode_snapshot(encode_snapshot(doc)) == doc

    def test_hostile_snapshot_is_a_wal_error(self):
        with pytest.raises(WalError, match="undecodable"):
            decode_snapshot(bytes([8, 1]) * 5000 + bytes([0]))
        with pytest.raises(WalError, match="undecodable"):
            decode_snapshot(bytes([6, 2, 0xFF, 0xFE]))


class TestWalFile:
    def _write(self, path, bodies, fsync_every=2):
        writer = WalWriter(path, fsync_every=fsync_every)
        for body in bodies:
            writer.append(body)
        writer.sync()
        writer.close()

    @given(bodies=st.lists(records, min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_disk_roundtrip(self, bodies, tmp_path_factory):
        path = tmp_path_factory.mktemp("wal") / "node.wal"
        self._write(path, bodies)
        res = read_wal(path)
        assert res.bodies == bodies
        assert not res.truncated
        assert res.tail_bytes == 0

    @given(data=st.data(), bodies=st.lists(records, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cut_at_any_byte_yields_last_valid_prefix(
        self, data, bodies, tmp_path_factory
    ):
        """A crash mid-append tears the file at an arbitrary byte; the
        reader must recover exactly the records whose frames lie fully
        before the cut."""
        path = tmp_path_factory.mktemp("wal") / "node.wal"
        self._write(path, bodies)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:cut])
        sizes = [len(frame_record(b)) for b in bodies]
        expected, consumed = [], 0
        for body, size in zip(bodies, sizes):
            if consumed + size > cut:
                break
            expected.append(body)
            consumed += size
        res = read_wal(path)
        assert res.bodies == expected
        assert res.valid_bytes == consumed
        assert res.truncated == (cut != consumed)
        assert res.tail_bytes == cut - consumed

    @given(data=st.data(), bodies=st.lists(records, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_bit_flip_stops_at_damaged_record(
        self, data, bodies, tmp_path_factory
    ):
        """Flipping one bit anywhere inside record i's frame (CRC, body
        or length) must reduce the readable log to records[:i] -- the
        CRC gate refuses to resync past damage."""
        path = tmp_path_factory.mktemp("wal") / "node.wal"
        self._write(path, bodies)
        blob = bytearray(path.read_bytes())
        victim = data.draw(st.integers(0, len(bodies) - 1))
        start = sum(len(frame_record(b)) for b in bodies[:victim])
        size = len(frame_record(bodies[victim]))
        offset = start + data.draw(st.integers(0, size - 1))
        bit = data.draw(st.integers(0, 7))
        blob[offset] ^= 1 << bit
        path.write_bytes(bytes(blob))
        res = read_wal(path)
        assert res.bodies == bodies[:victim]
        assert res.truncated

    def test_missing_file_is_empty(self, tmp_path):
        res = read_wal(tmp_path / "nope.wal")
        assert res.bodies == [] and not res.truncated

    def test_append_resumes_after_reopen(self, tmp_path):
        path = tmp_path / "node.wal"
        first = encode_read_record(1.0, "x")
        second = encode_read_record(2.0, "y")
        self._write(path, [first])
        writer = WalWriter(path)
        writer.append(second)
        writer.sync()
        writer.close()
        assert read_wal(path).bodies == [first, second]

    def test_fsync_batching_counts(self, tmp_path):
        writer = WalWriter(tmp_path / "node.wal", fsync_every=3)
        for i in range(7):
            writer.append(encode_read_record(float(i), "x"))
        writer.sync()
        writer.close()
        # 7 appends at a cadence of 3 -> 2 automatic syncs + the final
        # explicit one; group commit is what keeps fsyncs << records
        assert writer.records == 7
        assert writer.fsyncs == 3


class TestFramedFile:
    def test_roundtrip_and_atomic_replace(self, tmp_path):
        path = tmp_path / "node.snap"
        write_framed_file(path, b"one")
        write_framed_file(path, b"two")
        assert read_framed_file(path) == b"two"
        assert not path.with_suffix(".snap.tmp").exists()

    def test_missing_returns_none(self, tmp_path):
        assert read_framed_file(tmp_path / "nope.snap") is None

    def test_corruption_raises_not_tolerated(self, tmp_path):
        """Snapshots are written atomically, so -- unlike the WAL tail
        -- a damaged snapshot is a real fault, not a crash artifact."""
        path = tmp_path / "node.snap"
        write_framed_file(path, b"payload")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WalError):
            read_framed_file(path)

    def test_oversize_record_rejected(self, tmp_path):
        from repro.durability import MAX_RECORD

        path = tmp_path / "node.wal"
        big_len = struct.pack(">II", MAX_RECORD + 1, 0)
        path.write_bytes(big_len + b"x" * 64)
        res = read_wal(path)
        assert res.bodies == [] and res.truncated
