"""Crash durability: write-ahead log, snapshots, and recovery replay.

The paper's system model is failure-free; this package extends the
implementation with the standard crash-stop / crash-recovery model.  A
replica journals its externally-visible inputs (client writes, client
reads -- OptP reads mutate ``Write_co`` -- and peer message receipts)
to a CRC-framed write-ahead log, periodically folds the log into a
snapshot of the protocol's Section 4.1 structures, and after a crash
rebuilds its exact pre-crash state by snapshot restore + deterministic
replay.  Every host recovers through one builder,
:func:`snapshot_document`, and one routine, :func:`recover_node`: the
serving layer journals for real (``repro.serve.server``) and the model
checker explores crash/recover as ordinary transitions over the same
bytes in memory (``repro.mck``).  ``docs/fault-tolerance.md`` walks
through the design.
"""

from repro.durability.recovery import (
    RecoveryError,
    apply_record,
    rebuild_node,
    recover_node,
    snapshot_document,
)
from repro.durability.snapshot import restore_node, snapshot_node
from repro.durability.wal import (
    KIND_BATCH,
    KIND_OPS,
    KIND_READ,
    KIND_RECV,
    KIND_WRITE,
    MAX_RECORD,
    WalError,
    WalReadResult,
    WalWriter,
    decode_record,
    decode_snapshot,
    encode_batch_record,
    encode_ops_record,
    encode_read_record,
    encode_recv_record,
    encode_snapshot,
    encode_write_record,
    frame_record,
    read_framed_file,
    read_wal,
    write_framed_file,
)

__all__ = [
    "KIND_BATCH",
    "KIND_OPS",
    "KIND_READ",
    "KIND_RECV",
    "KIND_WRITE",
    "MAX_RECORD",
    "RecoveryError",
    "WalError",
    "WalReadResult",
    "WalWriter",
    "apply_record",
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
    "rebuild_node",
    "recover_node",
    "restore_node",
    "snapshot_document",
    "snapshot_node",
    "write_framed_file",
]
