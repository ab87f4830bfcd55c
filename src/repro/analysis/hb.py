"""Lamport's happened-before relation over a run trace (Section 3.1).

``e -> e'`` iff (i) ``e <_i e'`` at some process, (ii) ``e`` is the
send of a message and ``e'`` its receipt, or (iii) transitivity.

The analyzers need this for exactly one job: computing
:math:`\\mathcal{X}_{ANBKH}` -- ANBKH's enabling sets quantify over
``send(w') -> send(w)`` (Section 3.6), which is a statement about the
*run*, not the history.  The builder therefore indexes SEND and RECEIPT
events by :class:`WriteId` and answers reachability with the same
bitset closure as :class:`repro.model.history.CausalOrder`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.model.history import close
from repro.model.operations import WriteId
from repro.sim.trace import EventKind, Trace, TraceEvent


class HappenedBefore:
    """Reachability structure for ``->`` over a trace's events."""

    def __init__(self, trace: Trace):
        self._trace = trace
        succ: List[List[int]] = [[] for _ in trace.events]
        # (i) process order: consecutive events at each process
        for p in range(trace.n_processes):
            evs = trace.process_events(p)
            for a, b in zip(evs, evs[1:]):
                succ[a.seq].append(b.seq)
        # (ii) message edges: send(w) -> each receipt(w).  The issuer's
        # WRITE event immediately precedes its SEND at the same process,
        # so process order covers the local side.
        sends: Dict[WriteId, TraceEvent] = {}
        for ev in trace.of_kind(EventKind.SEND):
            sends[ev.wid] = ev
        for ev in trace.of_kind(EventKind.RECEIPT):
            send = sends.get(ev.wid)
            if send is not None:
                succ[send.seq].append(ev.seq)
        # every edge points to a later seq number, so descending seq is
        # a reverse topological order
        self._desc = close(succ, reversed(range(len(succ))))

    def hb(self, e1: TraceEvent, e2: TraceEvent) -> bool:
        """``e1 -> e2``?"""
        return bool(self._desc[e1.seq] & (1 << e2.seq))

    def concurrent(self, e1: TraceEvent, e2: TraceEvent) -> bool:
        """``e1 || e2`` w.r.t. ``->``."""
        if e1.seq == e2.seq:
            return False
        return not self.hb(e1, e2) and not self.hb(e2, e1)

    def send_event(self, wid: WriteId) -> Optional[TraceEvent]:
        """The SEND event of ``wid``'s message (its WRITE event for
        protocols that never broadcast, e.g. token batching)."""
        for ev in self._trace.of_kind(EventKind.SEND):
            if ev.wid == wid:
                return ev
        for ev in self._trace.of_kind(EventKind.WRITE):
            if ev.wid == wid:
                return ev
        return None

    def sends_hb(self, w1: WriteId, w2: WriteId) -> bool:
        """``send(w1) -> send(w2)``: the relation ANBKH's enabling sets
        quantify over."""
        s1, s2 = self.send_event(w1), self.send_event(w2)
        if s1 is None or s2 is None:
            raise KeyError(f"missing send event for {w1} or {w2}")
        return self.hb(s1, s2)
