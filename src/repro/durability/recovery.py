"""Recovery: rebuild a crashed node from snapshot + WAL replay.

The registry protocols are deterministic functions of their input
sequence (scripted writes/reads plus message receipts in arrival
order), so recovery is *replay*: restore the latest snapshot, then feed
the logged post-snapshot inputs back through a fresh
:class:`~repro.sim.node.Node`.  The pre-crash events are already on the
authoritative trace and the pre-crash broadcasts are already in the
channels (or in the serving layer's retransmission buffer), so replay
must re-derive *state* without re-emitting *effects*: the host keeps
the replayed node's dispatch from shipping anything.

Every host recovers with the same two functions:
:func:`snapshot_document` builds the snapshot a replica folds its WAL
into, and :func:`recover_node` restores one, checks it and replays the
records it does not cover.  :class:`~repro.serve.server.ReplicaServer`
calls them over its snapshot file and WAL, and the model checker's
crash mode (:class:`~repro.mck.cluster.ControlledCluster`) over the
same bytes held in memory.

Failures surface as :class:`RecoveryError`, which carries the durable
context an operator needs (snapshot sequence, WAL record/tail counts)
plus the armed flight-recorder tail, in the style of
:class:`repro.sim.engine.EngineLimitError`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import Protocol
from repro.durability.snapshot import restore_node
from repro.durability.wal import (
    KIND_BATCH,
    KIND_OPS,
    KIND_READ,
    KIND_RECV,
    KIND_WRITE,
    decode_record,
    decode_snapshot,
)
from repro.obs.spans import NULL_OBS
from repro.serve.codec import OP_WRITE
from repro.sim.node import Node
from repro.sim.trace import NullTrace

__all__ = ["RecoveryError", "apply_record", "rebuild_node", "recover_node",
           "snapshot_document"]


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




def snapshot_document(node: Node, t: float, sent: List[bytes],
                      wal_records: int) -> Dict[str, Any]:
    """The snapshot a replica folds its WAL into: the node
    (:func:`~repro.durability.snapshot.snapshot_node`), the progress
    vector it was taken at (``applied``), the clock ``t``, the node's own
    broadcast bodies in issue order (``sent``, the retransmission buffer)
    and the number of WAL records it covers (``wal_records``).  Take it
    between records only: a record is journaled before its ops run."""
    # looked up on the package, where bench/tracing.py times it
    from repro import durability
    return {
        "node": durability.snapshot_node(node),
        "applied": list(node.protocol.progress),
        "t": t,
        "sent": sent,
        "wal_records": wal_records,
    }


def recover_node(node: Node, snapshot: Optional[bytes],
                 bodies: Sequence[bytes], sent: List[bytes], *,
                 pin: Optional[Callable[[float], None]] = None,
                 tail_bytes: int = 0) -> float:
    """Rebuild the freshly built ``node`` from an encoded
    :func:`snapshot_document` (None: the initial state) and the whole
    WAL ``bodies``, oldest first; return the time of the last input
    restored (0.0 if none).

    Restoring the snapshot must reproduce its ``applied`` vector, or it
    is not one this replica wrote.  Its ``sent`` goes into ``sent``
    *before* replay, since a replayed own write appends its update there
    again through the node's dispatch.  Replay skips the ``wal_records``
    the snapshot covers and calls ``pin`` with each record's time first,
    so a host clock that honours it dates every event as it was live.
    Any failure is a :class:`RecoveryError` (``tail_bytes``: the torn
    bytes the WAL reader dropped, for the message).
    """
    skip = 0
    last_t = 0.0
    try:
        if snapshot is not None:
            doc = decode_snapshot(snapshot)
            restore_node(node, doc["node"])
            progress = node.protocol.progress
            if list(doc["applied"]) != progress:
                raise RecoveryError(
                    "snapshot applied vector disagrees with the "
                    "restored protocol progress",
                    detail=f"applied {list(doc['applied'])} != "
                           f"progress {progress}")
            sent.extend(doc["sent"])
            skip = int(doc["wal_records"])
            last_t = float(doc["t"])
        for body in bodies[skip:]:
            rec = decode_record(body)
            last_t = rec[1]
            if pin is not None:
                pin(last_t)
            apply_record(node, rec)
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(
            "replay failed during recovery",
            snapshot_seq=skip, wal_records=len(bodies),
            wal_tail_bytes=tail_bytes, detail=repr(exc)) from exc
    return last_t


def rebuild_node(factory: Callable[[int, int], Protocol],
                 process_id: int, n_processes: int,
                 snapshot: Optional[bytes], bodies: Sequence[bytes], *,
                 dedup: bool = False) -> Node:
    """A node recovered by :func:`recover_node` that records no events
    and sends nothing (``bench/ceilings.py`` times replay with it)."""
    node = Node(factory(process_id, n_processes), NullTrace(n_processes),
                clock=lambda: 0.0, dispatch=lambda sender, outgoing: None,
                dedup=dedup, obs=NULL_OBS)
    recover_node(node, snapshot, bodies, [])
    return node
