"""A totally-ordered (sequencer-based) DSM baseline.

Not from the reproduced paper -- an **extension baseline** quantifying
its introduction's claim that causal memory is "a low latency
abstraction with respect to stronger consistency criteria such as
sequential and atomic consistency, as it admits more executions and,
hence, more concurrency."  This protocol applies *every* write
everywhere in one global order (a strict superset of ``->co``), so
every reordering the network produces costs a write delay; comparing
its delay counts with OptP's measures the price of total order on
identical message schedules (``benchmarks/test_bench_consistency_spectrum.py``).

Mechanism
---------

- Process 0 doubles as the **sequencer**.  A writer sends its write to
  the sequencer as a control request and does **not** apply it to the
  ordered replica yet (``WriteOutcome.local_apply=False``).  Reads
  return the globally ordered state -- except that a process always
  sees its *own* pending writes (store-buffer forwarding): without it,
  reading a variable right after writing it would return the older
  stamped value, violating Definition 1 (the own write causally
  precedes the read by program order).  Forwarding preserves causal
  consistency: same-sender stamping respects issue order, so anything
  causally derived from a forwarded read is still sequenced after it.
- The sequencer stamps requests with a global sequence number (holding
  out-of-order same-sender requests until the gap fills, so ``->po`` is
  respected even on non-FIFO channels) and broadcasts the stamped
  update; it applies the update locally at stamping time.
- Every other process -- *including the original writer* -- applies
  stamped updates in stamp order, buffering gaps (each gap is a write
  delay, Definition 3).

Class-𝒫 membership: yes -- every write is applied at every process
(liveness follows from reliable channels exactly as in Theorem 5).
Safety w.r.t. ``->co``: the stamp order is a linear extension of
``->co`` (see the argument above), so apply orders embed it.  Write
delay optimality: decidedly **not** -- the point of the baseline.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.core.base import (
    BROADCAST,
    ControlMessage,
    Disposition,
    Outgoing,
    Protocol,
    ReadOutcome,
    UpdateMessage,
    WriteOutcome,
)
from repro.model.operations import WriteId

#: Control kind for write requests travelling to the sequencer.
WREQ_KIND = "wreq"
#: Payload key of the global sequence number on stamped updates.
GSN_KEY = "gsn"
#: The process acting as sequencer.
SEQUENCER = 0


class SequencerProtocol(Protocol):
    """Totally-ordered DSM via a fixed sequencer (extension baseline)."""

    name = "sequencer"
    in_class_p = True

    def __init__(self, process_id: int, n_processes: int):
        super().__init__(process_id, n_processes)
        #: next stamp to hand out (sequencer only)
        self.next_gsn = 0
        #: one progress component, the stamp chain: the highest stamp
        #: applied locally (-1 = none yet)
        self.applied_gsn = self.progress = [-1]
        #: sequencer: per-sender next expected write seq (gap handling)
        self.expected_seq: List[int] = [1] * n_processes
        #: sequencer: out-of-order write requests, per sender by seq
        self.parked: Dict[Tuple[int, int], ControlMessage] = {}
        #: own writes not yet stamped, forwarded to local reads
        self.pending_own: Dict[Hashable, Tuple[Any, WriteId]] = {}

    @property
    def is_sequencer(self) -> bool:
        return self.process_id == SEQUENCER

    @property
    def next_apply_gsn(self) -> int:
        """The next stamp to apply locally."""
        return self.applied_gsn[0] + 1

    # -- operations -----------------------------------------------------------

    def write(self, variable: Hashable, value: Any) -> WriteOutcome:
        wid = self.next_wid()
        if self.is_sequencer:
            # Stamp own writes immediately: apply locally + broadcast.
            outgoing = self._stamp_and_broadcast(wid, variable, value)
            return WriteOutcome(wid=wid, outgoing=tuple(outgoing),
                                local_apply=True)
        req = ControlMessage(
            sender=self.process_id,
            kind=WREQ_KIND,
            payload={"wid": wid, "variable": variable, "value": value,
                     # reuse batch_seq slot for stable latency keying
                     "batch_seq": wid.seq},
        )
        self.pending_own[variable] = (value, wid)
        return WriteOutcome(
            wid=wid,
            outgoing=(Outgoing(req, SEQUENCER),),
            local_apply=False,
        )

    def read(self, variable: Hashable) -> ReadOutcome:
        pending = self.pending_own.get(variable)
        if pending is not None:
            value, wid = pending
            return ReadOutcome(value=value, read_from=wid)
        value, wid = self.store_get(variable)
        return ReadOutcome(value=value, read_from=wid)

    # -- sequencer ----------------------------------------------------------------

    def on_control(self, msg: ControlMessage) -> Sequence[Outgoing]:
        if msg.kind != WREQ_KIND:
            raise ValueError(f"unknown control kind {msg.kind!r}")
        if not self.is_sequencer:
            raise AssertionError("write request delivered to non-sequencer")
        wid: WriteId = msg.payload["wid"]
        sender = wid.process
        if wid.seq != self.expected_seq[sender]:
            # Same-sender requests can overtake each other on non-FIFO
            # channels; park until the gap fills so stamping respects ->po.
            self.parked[(sender, wid.seq)] = msg
            return ()
        out: List[Outgoing] = []
        out += self._stamp_request(msg)
        # drain any parked successors this unblocks
        while (sender, self.expected_seq[sender]) in self.parked:
            nxt = self.parked.pop((sender, self.expected_seq[sender]))
            out += self._stamp_request(nxt)
        return out

    def _stamp_request(self, msg: ControlMessage) -> List[Outgoing]:
        wid: WriteId = msg.payload["wid"]
        self.expected_seq[wid.process] += 1
        return self._stamp_and_broadcast(
            wid, msg.payload["variable"], msg.payload["value"]
        )

    def _stamp_and_broadcast(
        self, wid: WriteId, variable: Hashable, value: Any
    ) -> List[Outgoing]:
        gsn = self.next_gsn
        self.next_gsn += 1
        update = UpdateMessage(
            sender=SEQUENCER,
            wid=wid,
            variable=variable,
            value=value,
            payload={GSN_KEY: gsn},
        )
        # The sequencer's own replica applies at stamping time.
        assert gsn == self.next_apply_gsn
        self.store_put(variable, value, wid)
        self.applied_gsn[0] += 1
        if wid.process == SEQUENCER:
            # write(): the WRITE trace event covers this local apply
            pass
        else:
            self.record_apply(wid, variable, value)
        return [Outgoing(update, BROADCAST)]

    # -- receivers ------------------------------------------------------------------

    def classify(self, msg: UpdateMessage) -> Disposition:
        if msg.payload[GSN_KEY] == self.next_apply_gsn:
            return Disposition.APPLY
        return Disposition.BUFFER

    def requirement(self, msg: UpdateMessage) -> Tuple[Tuple[int], int]:
        """Stamp order is a single chain: update ``gsn`` is advance
        number ``gsn`` of the one stamp component and waits only for
        stamp ``gsn - 1``.  A stamped update at or below the applied
        stamp (a network duplicate) has overshot and can never apply."""
        return (msg.payload[GSN_KEY],), 0

    def apply_update(self, msg: UpdateMessage) -> None:
        assert msg.payload[GSN_KEY] == self.next_apply_gsn
        self.store_put(msg.variable, msg.value, msg.wid)
        self.applied_gsn[0] += 1
        pending = self.pending_own.get(msg.variable)
        if pending is not None and pending[1] == msg.wid:
            # our own write came back stamped; stop forwarding it
            del self.pending_own[msg.variable]

    # -- introspection ------------------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        return {
            "next_gsn": self.next_gsn,
            "next_apply_gsn": self.next_apply_gsn,
        }
