"""Whole-node snapshots over the protocol snapshot hooks.

A protocol snapshot (:meth:`repro.core.base.Protocol.snapshot_state`)
covers the paper's per-process structures; a *node* additionally owns
delivery state that must survive a crash for recovery to be exact:

- the scheduler's buffered messages (received but blocked on the
  Figure 5 wait predicate) -- volatile in the crash model, but any
  message whose receipt was WAL-logged before the crash is re-buffered
  by replay, and any message *folded into a snapshot* must travel with
  it or it is lost to both replay and retransmission;
- the at-least-once dedup guard (``_seen_updates`` /
  ``duplicates_dropped``), without which a recovered replica would
  re-apply retransmitted updates it already absorbed pre-snapshot.

Documents stay inside the codec value vocabulary
(:mod:`repro.serve.codec`), so :func:`repro.durability.wal.encode_snapshot`
round-trips them byte-stably.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.model.operations import WriteId
from repro.serve.codec import decode_message, encode_message

__all__ = ["restore_node", "snapshot_node"]


def _pack_seen(seen: Iterable[WriteId]
               ) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """The dedup guard as ``[(process, k, stragglers), ...]``: writes
    ``1..k`` of ``process`` were all seen, plus the sorted ``stragglers``
    beyond a gap.  A FIFO link delivers a process's writes in order, so
    the stragglers are empty and the document is O(processes), built in
    one pass with no comparison of write ids.  The result is a function
    of the set alone, not of its iteration order (snapshot bytes feed
    state fingerprints)."""
    by_process: Dict[int, List[int]] = defaultdict(list)
    for wid in seen:
        by_process[wid.process].append(wid.seq)
    out = []
    for process in sorted(by_process):
        seqs = by_process[process]
        prefix = len(seqs)
        stragglers: Tuple[int, ...] = ()
        if max(seqs) != prefix:   # distinct and 1-based: equal iff no gap
            have = set(seqs)
            prefix = 0
            while prefix + 1 in have:
                prefix += 1
            stragglers = tuple(sorted(q for q in seqs if q > prefix))
        out.append((process, prefix, stragglers))
    return out


def _unpack_seen(doc: list) -> Iterator[WriteId]:
    for entry in doc:
        if type(entry) is WriteId:   # snapshots written before the packing
            yield entry
            continue
        process, prefix, stragglers = entry
        for seq in range(1, prefix + 1):
            yield WriteId(process, seq)
        for seq in stragglers:
            yield WriteId(process, seq)


def snapshot_node(node) -> Dict[str, Any]:
    """Capture ``node`` (a :class:`repro.sim.node.Node`) as a document.

    Buffered messages are stored oldest-first in canonical message
    encoding; seen write-ids are packed per process (:func:`_pack_seen`).
    """
    return {
        "protocol": node.protocol.snapshot_state(),
        "pending": [encode_message(m) for m in node.pending],
        "seen": _pack_seen(node._seen_updates),
        "dups": node.duplicates_dropped,
    }


def restore_node(node, doc: Dict[str, Any]) -> None:
    """Inverse of :func:`snapshot_node`, onto a freshly built node.

    Protocol state first (parking re-evaluates the wait predicate
    against it), then the buffer, then the dedup guard.  A message that
    was buffered under the snapshotted state classifies BUFFER again
    under the restored state, so ``offer`` parks it and cannot
    spuriously report it applicable.
    """
    node.protocol.restore_state(doc["protocol"])
    for raw in doc["pending"]:
        node.scheduler.offer(decode_message(raw))
    node._seen_updates.clear()
    node._seen_updates.update(_unpack_seen(doc["seen"]))
    node.duplicates_dropped = doc["dups"]
