"""Replay a replica's WAL into its events, and the causally gated
k-way trace merge.

A recorded run is its WALs.  The registry protocols are deterministic
in their inputs, so a replica's own events (its ``E_i`` of Section 3.1)
follow from its journal: :func:`replay_wal` feeds every record -- one
per peer frame, one per run of a client request, each with the time
the live replica pinned for it -- through a fresh node on a recording
:class:`~repro.sim.trace.Trace` and gets back the events the live
replica produced, timestamps included.

Reconstructing the global trace the analyzers expect means
interleaving the per-replica traces into one total order.  Sorting by
timestamp is almost right -- on one host ``CLOCK_MONOTONIC`` is shared
across processes, so a receipt really is stamped after its send -- but
the checkers' correctness must not hinge on clock quality.  The merge
is therefore *gated*: a k-way merge by ``(time, process, local index)``
that refuses to emit any receipt-family event (RECEIPT / BUFFER /
APPLY / DISCARD of a remote write) before the issuer's WRITE event has
been emitted.  A blocked stream simply waits while others advance.

This cannot deadlock when every per-replica trace is in real-time
order: a stream only blocks on another stream's WRITE event, WRITE
events are never blocked, and a cyclic wait would need some message to
be received before it was sent.  If the traces are inconsistent (clock
jumped backwards mid-run, a lost journal), the merge raises
:class:`MergeError` with the stuck heads rather than emitting a trace
the checkers would misjudge.

The resulting trace is *exactly* what a simulator run would have
recorded -- same event vocabulary, same per-process orders -- so
``check_run``, the mck :class:`~repro.mck.invariants.InvariantTracker`,
and the JSONL serializer all replay it unchanged.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro import durability as dur
from repro.core.base import Protocol
from repro.sim.node import Node
from repro.sim.trace import EventKind, Trace, TraceEvent

__all__ = ["MergeError", "merge_node_logs", "replay_wal"]

#: Event kinds that must wait for the issuer's WRITE during the merge.
_RECEIPT_FAMILY = (EventKind.RECEIPT, EventKind.BUFFER, EventKind.APPLY,
                   EventKind.DISCARD)


class MergeError(RuntimeError):
    """Per-replica traces admit no causally consistent interleaving."""


def replay_wal(factory: Callable[[int, int], Protocol], process: int,
               n: int, wal_path: Path) -> Trace:
    """Replica ``process``'s events, rebuilt from its whole WAL.

    The node is built as a served replica builds its own (``dedup``
    on) and replays through :func:`~repro.durability.recover_node`
    from the initial state, each record at its journaled time; its
    broadcasts go nowhere.  A WAL is never truncated below its first
    record, so this holds every event, snapshots or not.
    """
    now = 0.0

    def pin(t: float) -> None:
        nonlocal now
        now = t

    trace = Trace(n)
    node = Node(factory(process, n), trace, clock=lambda: now,
                dispatch=lambda sender, outgoing: None, dedup=True)
    dur.recover_node(node, None, dur.read_wal(wal_path).bodies, [], pin=pin)
    return trace


def merge_node_logs(traces: Sequence[Trace]) -> Trace:
    """Interleave per-replica traces into one analyzable global trace.

    ``traces[p]`` holds process ``p``'s own events (:func:`replay_wal`);
    a WRITE keeps whether it was its issuer's local apply.
    """
    if not traces:
        raise MergeError("no traces to merge")
    n = traces[0].n_processes
    if any(t.n_processes != n for t in traces):
        raise MergeError("traces disagree on n_processes")
    streams: List[Sequence[TraceEvent]] = [
        t.process_events(p) for p, t in enumerate(traces)]
    streams += [()] * (n - len(streams))

    trace = Trace(n)
    heads = [0] * n
    writes_emitted: set = set()
    remaining = sum(len(s) for s in streams)

    def blocked(process: int, ev: TraceEvent) -> bool:
        return (
            ev.kind in _RECEIPT_FAMILY
            and ev.wid is not None
            and ev.wid.process != process
            and ev.wid not in writes_emitted
        )

    while remaining:
        best: Optional[Tuple[float, int]] = None
        for p in range(n):
            if heads[p] >= len(streams[p]):
                continue
            ev = streams[p][heads[p]]
            if blocked(p, ev):
                continue
            key = (ev.time, p)
            if best is None or key < best:
                best = key
        if best is None:
            stuck = [
                f"p{p}: {streams[p][heads[p]]}"
                for p in range(n)
                if heads[p] < len(streams[p])
            ]
            raise MergeError(
                "traces admit no causal interleaving (message received "
                "before it was sent?); stuck heads: " + "; ".join(stuck)
            )
        p = best[1]
        ev = streams[p][heads[p]]
        heads[p] += 1
        remaining -= 1
        trace.record(
            ev.time,
            p,
            ev.kind,
            wid=ev.wid,
            variable=ev.variable,
            value=ev.value,
            read_from=ev.read_from,
            # a WRITE is its issuer's local apply unless the protocol
            # recorded that apply as a later APPLY event
            registers_apply=(traces[p].apply_event(p, ev.wid) is ev
                             if ev.kind is EventKind.WRITE else None),
        )
        if ev.kind is EventKind.WRITE:
            writes_emitted.add(ev.wid)
    return trace
