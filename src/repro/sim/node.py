"""A simulated process: one protocol instance + buffering + tracing.

The node implements the substrate side of the class-𝒫 contract
(Section 3.2): it turns protocol decisions into trace events and owns
the pending buffer -- the paper's "the thread is suspended till the
condition becomes true" is realized by a
:class:`~repro.sim.scheduler.DeliveryScheduler`: counting wakeups for
protocols that declare their wait predicate as a
:meth:`~repro.core.base.Protocol.requirement`, a classify re-scan for
those that cannot (see DESIGN.md, "Buffering strategy", and the
ablation in ``benchmarks/test_bench_scheduler.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.base import (
    ControlMessage,
    Disposition,
    Message,
    Outgoing,
    Protocol,
    UpdateMessage,
)
from repro.model.operations import WriteId, fresh_value
from repro.obs.spans import NULL_OBS, Obs
from repro.sim.scheduler import CountingScheduler, RescanScheduler
from repro.sim.trace import EventKind, Trace

Dispatch = Callable[[int, Sequence[Outgoing]], None]
Clock = Callable[[], float]


class Node:
    """Hosts one :class:`Protocol` instance inside the simulation."""

    def __init__(
        self,
        protocol: Protocol,
        trace: Trace,
        clock: Clock,
        dispatch: Dispatch,
        *,
        record_state: bool = False,
        dedup: bool = False,
        obs: Obs = NULL_OBS,
    ):
        self.protocol = protocol
        self.process_id = protocol.process_id
        self.trace = trace
        self.clock = clock
        self.dispatch = dispatch
        self.record_state = record_state
        #: delivery scheduler owning the pending buffer: counting
        #: wakeups iff the protocol declares a requirement.
        scheduler_cls = (
            RescanScheduler
            if type(protocol).requirement is Protocol.requirement
            else CountingScheduler
        )
        self.scheduler = scheduler_cls(protocol, obs=obs, clock=clock)
        #: observability handle; hot-path hooks are gated on
        #: ``obs.enabled`` (instrument handles resolved once, here).
        self._obs = obs
        if obs.enabled:
            pid = self.process_id
            reg = obs.registry
            self._m_writes = reg.counter("node.writes", process=pid)
            self._m_reads = reg.counter("node.reads", process=pid)
            self._m_receipts = reg.counter("node.receipts", process=pid)
            self._m_applies = reg.counter("node.applies", process=pid)
            self._m_buffers = reg.counter("node.buffers", process=pid)
            self._m_discards = reg.counter("node.discards", process=pid)
            self._m_dups_dropped = reg.counter(
                "node.duplicates_dropped", process=pid)
        #: the quiescence ledger (see :func:`settled`): writes issued
        #: here, how many of them are applied here only later (by an
        #: APPLY event), and the APPLY events recorded here.
        self.writes = 0
        self.deferred_applies = 0
        self.remote_applies = 0
        #: crash-stop flag (fault-injection extension; the paper's
        #: model is failure-free).  A crashed node ignores all traffic
        #: and refuses local operations.
        self.crashed = False
        #: at-least-once guard: remember seen update ids and drop
        #: repeats before they reach the protocol.  The paper's model
        #: assumes exactly-once channels; enable this when running over
        #: a Network with duplicate_prob > 0.
        self.dedup = dedup
        self._seen_updates: set = set()
        self.duplicates_dropped = 0
        # Out-of-band applies (token batches) land here:
        protocol.bind_recorder(self._record_oob_apply)

    @property
    def pending(self) -> List[UpdateMessage]:
        """Buffered update messages, oldest first (introspection)."""
        return self.scheduler.buffered()

    def crash(self) -> None:
        """Crash-stop this node: drop its buffer, ignore everything."""
        self.crashed = True
        self.scheduler.clear()

    # -- helpers ---------------------------------------------------------------

    def _state(self) -> Optional[Dict[str, Any]]:
        return self.protocol.debug_state() if self.record_state else None

    def start(self) -> None:
        """Run the protocol's bootstrap traffic (token injection etc.)."""
        outgoing = self.protocol.bootstrap()
        if outgoing:
            self.dispatch(self.process_id, outgoing)

    # -- operations -----------------------------------------------------------

    def do_write(self, variable: Hashable, value: Any = None) -> Optional[WriteId]:
        """Issue a local write; ``value=None`` generates a fresh value.

        Returns None (no-op) on a crashed node.
        """
        if self.crashed:
            return None
        if value is None:
            value = fresh_value(
                WriteId(self.process_id, self.protocol.writes_issued + 1)
            )
        outcome = self.protocol.write(variable, value)
        trace = self.trace
        obs_on = self._obs.enabled
        if trace.recording or obs_on:
            now = self.clock()
        if trace.recording:
            trace.record(
                now,
                self.process_id,
                EventKind.WRITE,
                wid=outcome.wid,
                variable=variable,
                value=value,
                state=self._state(),
                registers_apply=outcome.local_apply,
            )
            if outcome.outgoing:
                trace.record(
                    now,
                    self.process_id,
                    EventKind.SEND,
                    wid=outcome.wid,
                    variable=variable,
                    value=value,
                )
        if outcome.outgoing:
            self.dispatch(self.process_id, outcome.outgoing)
        if obs_on:
            self._m_writes.inc()
            self._obs.registry.counter(
                "node.writes_by_variable", variable=str(variable)).inc()
            if outcome.outgoing:
                self._obs.sink.on_send(now, self.process_id, outcome.wid,
                                       variable)
        self.writes += 1
        if not outcome.local_apply:
            self.deferred_applies += 1
        return outcome.wid

    def do_read(self, variable: Hashable) -> Any:
        """Issue a local read; returns the value (None when crashed)."""
        if self.crashed:
            return None
        outcome = self.protocol.read(variable)
        trace = self.trace
        obs_on = self._obs.enabled
        if trace.recording or obs_on:
            now = self.clock()
        if trace.recording:
            trace.record(
                now,
                self.process_id,
                EventKind.RETURN,
                variable=variable,
                value=outcome.value,
                read_from=outcome.read_from,
                state=self._state(),
            )
        if obs_on:
            self._m_reads.inc()
            self._obs.sink.on_read(now, self.process_id, variable,
                                   outcome.value)
        return outcome.value

    # -- message reception --------------------------------------------------------

    def fire_timer(self) -> None:
        """Run the protocol's periodic hook (crash-aware)."""
        if self.crashed:
            return
        outgoing = self.protocol.on_timer()
        if outgoing:
            self.dispatch(self.process_id, outgoing)

    def receive(self, message: Message) -> None:
        """Entry point for the network's delivery callback."""
        if self.crashed:
            return
        if isinstance(message, ControlMessage):
            outgoing = self.protocol.on_control(message)
            if outgoing:
                self.dispatch(self.process_id, outgoing)
            return
        self._receive_update(message)

    def _receive_update(self, msg: UpdateMessage) -> None:
        if self.dedup:
            # one hash of the id: a set that does not grow already had it
            seen = self._seen_updates
            size = len(seen)
            seen.add(msg.wid)
            if len(seen) == size:
                self.duplicates_dropped += 1
                if self._obs.enabled:
                    self._m_dups_dropped.inc()
                return
        trace = self.trace
        recording = trace.recording
        obs_on = self._obs.enabled
        if recording or obs_on:
            now = self.clock()
        # state-less events go through the trace's compact path (no
        # per-event dataclass construction until a reader looks)
        if recording:
            trace.record_compact(now, self.process_id, EventKind.RECEIPT,
                                 msg.wid, msg.variable, msg.value)
        if obs_on:
            self._m_receipts.inc()
            self._obs.sink.on_receipt(now, self.process_id, msg.wid,
                                      msg.variable, msg.sender)
        disposition = self.scheduler.offer(msg)
        if disposition is Disposition.APPLY:
            self._apply(msg)
            self.scheduler.pump(self._apply, self._discard)
        elif disposition is Disposition.BUFFER:
            # Definition 3: this write suffers a write delay here (the
            # offer parked it, and opened the span's wait interval
            # under the dependency it knows is blocking).
            if recording:
                trace.record_compact(now, self.process_id, EventKind.BUFFER,
                                     msg.wid, msg.variable)
            if obs_on:
                self._m_buffers.inc()
        else:
            self._discard(msg)

    def _apply(self, msg: UpdateMessage) -> None:
        self.protocol.apply_update(msg)
        trace = self.trace
        obs_on = self._obs.enabled
        if trace.recording or obs_on:
            now = self.clock()
        if trace.recording:
            if self.record_state:
                trace.record(
                    now,
                    self.process_id,
                    EventKind.APPLY,
                    wid=msg.wid,
                    variable=msg.variable,
                    value=msg.value,
                    state=self._state(),
                )
            else:
                trace.record_compact(now, self.process_id, EventKind.APPLY,
                                     msg.wid, msg.variable, msg.value)
        if obs_on:
            self._m_applies.inc()
            self._obs.sink.on_apply(now, self.process_id, msg.wid)
        self.scheduler.notify_applied(msg)
        self.remote_applies += 1

    def _discard(self, msg: UpdateMessage) -> None:
        self.protocol.discard_update(msg)
        trace = self.trace
        obs_on = self._obs.enabled
        if trace.recording or obs_on:
            now = self.clock()
        if trace.recording:
            trace.record(
                now,
                self.process_id,
                EventKind.DISCARD,
                wid=msg.wid,
                variable=msg.variable,
            )
        if obs_on:
            self._m_discards.inc()
            self._obs.sink.on_discard(now, self.process_id, msg.wid)

    def _record_oob_apply(self, wid: WriteId, variable: Hashable, value: Any) -> None:
        """Recorder callback for protocols that apply writes outside the
        update-message flow (token batches)."""
        trace = self.trace
        obs_on = self._obs.enabled
        if trace.recording or obs_on:
            now = self.clock()
        if trace.recording:
            trace.record(
                now,
                self.process_id,
                EventKind.APPLY,
                wid=wid,
                variable=variable,
                value=value,
                state=self._state(),
            )
        if obs_on:
            self._m_applies.inc()
            self._obs.sink.on_apply(now, self.process_id, wid)
        self.remote_applies += 1

    @property
    def buffered_count(self) -> int:
        return len(self.scheduler)


def expected_applies(nodes: Sequence[Node]) -> int:
    """APPLY events a complete run owes: every write at each of the
    other ``n - 1`` processes, plus the issuer's own apply of each write
    it did not apply at issue (:func:`settled`)."""
    n = len(nodes)
    return sum(node.writes * (n - 1) + node.deferred_applies
               for node in nodes)


def settled(nodes: Sequence[Node]) -> bool:
    """Class-𝒫 liveness (Theorem 5) as a count: every write issued so
    far has been applied at every process.

    ``writes·(n-1) + deferred_applies <= remote_applies + missing_applies``,
    each term summed over the nodes.  ``missing_applies`` credits the
    applies a protocol skips by design (writing-semantics variants,
    partial replication).  Every in-process host ends its run on this
    test.
    """
    observed = sum(node.remote_applies + node.protocol.missing_applies()
                   for node in nodes)
    return observed >= expected_applies(nodes)
