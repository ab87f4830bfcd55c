"""Recovery: rebuild a crashed node from snapshot + WAL replay.

The registry protocols are deterministic functions of their input
sequence (scripted writes/reads plus message receipts in arrival
order), so recovery is *replay*: restore the latest snapshot, then feed
the logged post-snapshot inputs back through a fresh
:class:`~repro.sim.node.Node`.  The replayed node runs against a
:class:`~repro.sim.trace.NullTrace` and a sink dispatch -- the
pre-crash events are already on the authoritative trace and the
pre-crash broadcasts are already in the channels (or in the serving
layer's retransmission buffer), so replay must re-derive *state*
without re-emitting *effects*.

Failures surface as :class:`RecoveryError`, which carries the durable
context an operator needs (snapshot sequence, WAL record/tail counts)
plus the armed flight-recorder tail, in the style of
:class:`repro.sim.engine.EngineLimitError`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import Outgoing, Protocol
from repro.durability.snapshot import restore_node
from repro.durability.wal import (
    KIND_BATCH,
    KIND_OPS,
    KIND_READ,
    KIND_RECV,
    KIND_WRITE,
    decode_record,
)
from repro.obs.spans import NULL_OBS
from repro.serve.codec import OP_WRITE
from repro.sim.node import Node
from repro.sim.trace import NullTrace

__all__ = ["DurableLog", "RecoveryError", "apply_record", "rebuild_node"]


class RecoveryError(RuntimeError):
    """A crashed replica could not be rebuilt from its durable state.

    Mirrors :class:`repro.sim.engine.EngineLimitError`: the message is
    self-contained for log grepping, and the structured fields support
    programmatic triage.  ``journal_tail`` holds the last flight-
    recorder events when the caller had a journal armed.
    """

    def __init__(self, reason: str, *,
                 snapshot_seq: Optional[int] = None,
                 wal_records: Optional[int] = None,
                 wal_tail_bytes: Optional[int] = None,
                 detail: Optional[str] = None,
                 journal_tail: Optional[List[Dict[str, Any]]] = None):
        parts = [reason]
        if snapshot_seq is not None:
            parts.append(f"snapshot covers {snapshot_seq} records")
        if wal_records is not None:
            parts.append(f"{wal_records} WAL records replayable")
        if wal_tail_bytes is not None:
            parts.append(f"{wal_tail_bytes} torn tail bytes")
        if detail:
            parts.append(detail)
        super().__init__("; ".join(parts))
        self.reason = reason
        self.snapshot_seq = snapshot_seq
        self.wal_records = wal_records
        self.wal_tail_bytes = wal_tail_bytes
        self.detail = detail
        self.journal_tail = journal_tail or []


# Module-level (deepcopy- and pickle-safe) stand-ins for the live
# callbacks: replay re-derives state, never effects.

def _zero_clock() -> float:
    return 0.0


def _sink_dispatch(sender: int, outgoing: Sequence[Outgoing]) -> None:
    return None


def apply_record(node: Node, rec: Tuple[Any, ...]) -> None:
    """Feed one decoded WAL record back through ``node``.

    Reads are replayed for their side effect alone (OptP's Figure 5
    line 1 merges ``LastWriteOn`` into ``Write_co``); the value they
    return went to a client long ago.
    """
    kind = rec[0]
    if kind == KIND_BATCH:
        for message in rec[2]:
            node.receive(message)
    elif kind == KIND_OPS:
        for op, variable, value in rec[2]:
            if op == OP_WRITE:
                node.do_write(variable, value)
            else:
                node.do_read(variable)
    elif kind == KIND_WRITE:
        node.do_write(rec[2], rec[3])
    elif kind == KIND_READ:
        node.do_read(rec[2])
    elif kind == KIND_RECV:
        node.receive(rec[2])
    else:  # pragma: no cover - decode_record already rejects these
        raise RecoveryError(f"unreplayable WAL record kind {rec[0]!r}")


def rebuild_node(factory: Callable[[int, int], Protocol],
                 process_id: int,
                 n_processes: int,
                 snapshot_doc: Optional[Dict[str, Any]],
                 bodies: Sequence[bytes],
                 *,
                 dedup: bool = False,
                 lose_tail: int = 0) -> Node:
    """Build a recovered :class:`~repro.sim.node.Node` for ``process_id``.

    ``snapshot_doc`` is a :func:`repro.durability.snapshot.snapshot_node`
    document (None = recover from an empty initial state) and
    ``bodies`` the post-snapshot WAL record bodies, oldest first.

    ``lose_tail`` drops the last N records before replay.  It exists
    for the mutation self-check (``BrokenRecovery``): a recovery path
    that silently forgets the WAL tail must be *caught* by the model
    checker, so the bug is injectable on demand.

    The returned node carries replay-only callbacks (null trace, zero
    clock, sink dispatch); the caller rebinds the live ones.
    """
    try:
        protocol = factory(process_id, n_processes)
    except Exception as exc:
        raise RecoveryError("protocol factory failed during recovery",
                            detail=repr(exc)) from exc
    if not type(protocol).supports_snapshot:
        raise RecoveryError(
            f"protocol {type(protocol).__name__} does not support snapshots")
    node = Node(protocol, NullTrace(n_processes),
                clock=_zero_clock, dispatch=_sink_dispatch,
                dedup=dedup, obs=NULL_OBS)
    replay = list(bodies)
    if lose_tail > 0:
        replay = replay[:max(0, len(replay) - lose_tail)]
    try:
        if snapshot_doc is not None:
            restore_node(node, snapshot_doc)
        for body in replay:
            apply_record(node, decode_record(body))
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError("replay failed during recovery",
                            wal_records=len(bodies),
                            detail=repr(exc)) from exc
    return node


class DurableLog:
    """In-memory durable state of one model-checked node.

    The model checker's crash transitions need the *semantics* of the
    snapshot + WAL pair without disk I/O on every explored path, so
    this mirrors the pair as bytes: record bodies exactly as
    :mod:`repro.durability.wal` would frame them, and the snapshot as
    its encoded document.  Bytes are immutable, so cloning a cluster
    shares them and only copies the list spine.

    ``snap_every=N`` folds the log into a fresh snapshot once N records
    accumulate (the caller passes the live node); 0 disables
    auto-snapshotting (pure WAL replay from the initial state).
    """

    __slots__ = ("snap_every", "snapshot", "snap_seq", "bodies")

    def __init__(self, snap_every: int = 0):
        self.snap_every = snap_every
        self.snapshot: Optional[bytes] = None
        #: number of records folded into the snapshot so far
        self.snap_seq = 0
        self.bodies: List[bytes] = []

    def append(self, body: bytes, node: Node) -> None:
        from repro.durability.snapshot import snapshot_node
        from repro.durability.wal import encode_snapshot
        self.bodies.append(body)
        if self.snap_every and len(self.bodies) >= self.snap_every:
            self.snapshot = encode_snapshot(snapshot_node(node))
            self.snap_seq += len(self.bodies)
            self.bodies.clear()

    def clone(self) -> "DurableLog":
        new = DurableLog.__new__(DurableLog)
        new.snap_every = self.snap_every
        new.snapshot = self.snapshot
        new.snap_seq = self.snap_seq
        new.bodies = list(self.bodies)
        return new

    def rebuild(self, factory: Callable[[int, int], Protocol],
                process_id: int, n_processes: int, *,
                dedup: bool = False, lose_tail: int = 0) -> Node:
        from repro.durability.wal import decode_snapshot
        doc = (decode_snapshot(self.snapshot)
               if self.snapshot is not None else None)
        return rebuild_node(factory, process_id, n_processes, doc,
                            self.bodies, dedup=dedup, lose_tail=lose_tail)
