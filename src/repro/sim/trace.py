"""Run traces: the event sequences ``E_i`` of Section 3.1.

A protocol run produces, at each process ``p_i``, a totally ordered
sequence of events ``E_i`` (ordered by ``<_i``).  The paper's event
vocabulary for a write ``w``:

- ``send_i(w)``     -- the issuer starts propagating ``w``;
- ``receipt_k(w)``  -- the message carrying ``w`` arrives at ``p_k``;
- ``apply_k(w)``    -- ``p_k`` updates its copy;
- ``return_i(x,v)`` -- a read by ``p_i`` returns ``v``.

This module adds bookkeeping kinds the analyzers need:

- ``WRITE``   -- the local issue of a write (its local apply; the
  paired ``SEND`` event carries the same timestamp);
- ``BUFFER``  -- the message was *not* applicable at receipt: by
  Definition 3 this is exactly a **write delay**;
- ``DISCARD`` -- a writing-semantics protocol dropped the message
  (write overwritten; never applied here).

The :class:`Trace` preserves one global, deterministic total order
(``seq``) consistent with simulation time, plus per-process ``E_i``
views and ``E_i|_e`` prefixes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, Hashable, Iterator,
                    List, Optional, Tuple)

from repro.model.operations import BOTTOM, Read, Write, WriteId

if TYPE_CHECKING:
    from repro.model.history import History


class EventKind(enum.Enum):
    SEND = "send"
    RECEIPT = "receipt"
    APPLY = "apply"
    RETURN = "return"
    WRITE = "write"      # local issue (includes the local apply)
    BUFFER = "buffer"    # write delay (Definition 3)
    DISCARD = "discard"  # writing semantics: overwritten, dropped

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TraceEvent:
    """One event of some ``E_i``.

    ``seq`` is a run-global sequence number: events with equal
    simulation ``time`` keep their execution order.
    """

    seq: int
    time: float
    process: int
    kind: EventKind
    wid: Optional[WriteId] = None
    variable: Optional[Hashable] = None
    value: Any = None
    read_from: Optional[WriteId] = None
    #: optional protocol debug-state snapshot (Figure 6 evolutions)
    state: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        core = f"t={self.time:.3f} p{self.process} {self.kind}"
        if self.wid is not None:
            core += f" {self.wid}"
        if self.kind is EventKind.RETURN:
            core += f" {self.variable}={self.value!r}"
        return core


class Trace:
    """An append-only run trace with per-process and per-write indexes."""

    #: Whether :meth:`record` keeps anything: a :class:`Node` builds no
    #: event (and reads no clock for one) on a trace that does not.
    recording: ClassVar[bool] = True

    def __init__(self, n_processes: int):
        self.n_processes = n_processes
        self._events: List[TraceEvent] = []
        self._per_process: List[List[TraceEvent]] = [
            [] for _ in range(n_processes)
        ]
        # (process, wid) -> apply event, for O(1) safety checks
        self._apply_index: Dict[Tuple[int, WriteId], TraceEvent] = {}
        self._receipt_index: Dict[Tuple[int, WriteId], TraceEvent] = {}

    def _sync(self) -> None:
        """Materialize deferred raw records (no-op on the base trace).

        Every reader calls this first, so :class:`FlatTrace`'s compact
        append path stays invisible to the analyzers: by the time any
        view is taken, the indexes are complete and identical to what
        eager recording would have produced.
        """

    # -- recording ----------------------------------------------------------

    def record(
        self,
        time: float,
        process: int,
        kind: EventKind,
        *,
        wid: Optional[WriteId] = None,
        variable: Optional[Hashable] = None,
        value: Any = None,
        read_from: Optional[WriteId] = None,
        state: Optional[Dict[str, Any]] = None,
        registers_apply: Optional[bool] = None,
    ) -> TraceEvent:
        """Append an event.

        ``registers_apply`` overrides whether the event enters the
        apply index: a WRITE event normally doubles as the issuer's
        local apply (Figure 4, line 3), but protocols that *defer*
        their own apply (sequencer baseline) pass False and report the
        real apply later as an APPLY event.
        """
        ev = TraceEvent(
            seq=len(self._events),
            time=time,
            process=process,
            kind=kind,
            wid=wid,
            variable=variable,
            value=value,
            read_from=read_from,
            state=state,
        )
        self._events.append(ev)
        self._per_process[process].append(ev)
        if registers_apply is None:
            registers_apply = kind in (EventKind.APPLY, EventKind.WRITE)
        if registers_apply and wid is not None:
            key = (process, wid)
            if key in self._apply_index:
                raise AssertionError(f"duplicate apply of {wid} at p{process}")
            self._apply_index[key] = ev
        if kind is EventKind.RECEIPT and wid is not None:
            # keep the FIRST receipt: duplicates (gossip redundancy)
            # arrive later and are not the paper's receipt_k(w) event
            self._receipt_index.setdefault((process, wid), ev)
        return ev

    def record_compact(
        self,
        time: float,
        process: int,
        kind: EventKind,
        wid: Optional[WriteId] = None,
        variable: Optional[Hashable] = None,
        value: Any = None,
    ) -> None:
        """Record a state-less event with default apply-registration.

        The hot-path entry point of the flat backend: on the base trace
        it is plain :meth:`record`; :class:`FlatTrace` overrides it with
        a deferred raw append (no ``TraceEvent`` construction until a
        reader needs one).
        """
        self.record(time, process, kind, wid=wid, variable=variable,
                    value=value)

    # -- branching -----------------------------------------------------------

    def clone_shared(self) -> "Trace":
        """An independent trace sharing the (frozen) event objects.

        Appending to either copy leaves the other untouched; the events
        themselves are immutable, so sharing is safe.  This is the
        branch-point snapshot used by the model checker
        (:meth:`repro.mck.cluster.ControlledCluster.clone`), where a
        generic deepcopy of the trace would dominate exploration cost.
        Identity of shared events is preserved: ``apply_event`` returns
        the same object in both copies (callers use ``is`` checks to
        tell a registering WRITE from a deferred one).
        """
        self._sync()
        new = Trace.__new__(Trace)
        new.n_processes = self.n_processes
        new._events = list(self._events)
        new._per_process = [list(evs) for evs in self._per_process]
        new._apply_index = dict(self._apply_index)
        new._receipt_index = dict(self._receipt_index)
        return new

    # -- views ---------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        self._sync()
        return self._events

    def process_events(self, process: int) -> List[TraceEvent]:
        """``E_i``: the event sequence at ``process``."""
        self._sync()
        return self._per_process[process]

    def prefix_before(self, process: int, event: TraceEvent) -> List[TraceEvent]:
        """``E_i|_e``: the prefix of ``E_i`` strictly before ``event``."""
        self._sync()
        return [ev for ev in self._per_process[process] if ev.seq < event.seq]

    def of_kind(self, kind: EventKind) -> Iterator[TraceEvent]:
        self._sync()
        return (ev for ev in self._events if ev.kind is kind)

    # -- write-centric queries --------------------------------------------------

    def apply_event(self, process: int, wid: WriteId) -> Optional[TraceEvent]:
        """The apply of ``wid`` at ``process`` (the issuer's WRITE event
        doubles as its local apply), or None if never applied."""
        self._sync()
        return self._apply_index.get((process, wid))

    def receipt_event(self, process: int, wid: WriteId) -> Optional[TraceEvent]:
        self._sync()
        return self._receipt_index.get((process, wid))

    def apply_order(self, process: int) -> List[WriteId]:
        """WriteIds in the order they were applied at ``process``.

        A WRITE event counts only when it actually registered as the
        local apply (i.e. not deferred to a later APPLY event).
        """
        self._sync()
        return self._apply_order_synced(process)

    def _apply_order_synced(self, process: int) -> List[WriteId]:
        out = []
        for ev in self._per_process[process]:
            if ev.kind is EventKind.APPLY:
                out.append(ev.wid)
            elif ev.kind is EventKind.WRITE:
                if self._apply_index.get((process, ev.wid)) is ev:
                    out.append(ev.wid)
        return out

    def writes_issued(self) -> List[WriteId]:
        return [ev.wid for ev in self.of_kind(EventKind.WRITE)]

    def delayed(self, process: Optional[int] = None) -> List[TraceEvent]:
        """BUFFER events (write delays, Definition 3), optionally at one
        process."""
        self._sync()
        out = []
        for ev in self.of_kind(EventKind.BUFFER):
            if process is None or ev.process == process:
                out.append(ev)
        return out

    def discarded(self, process: Optional[int] = None) -> List[TraceEvent]:
        out = []
        for ev in self.of_kind(EventKind.DISCARD):
            if process is None or ev.process == process:
                out.append(ev)
        return out

    def delay_durations(self) -> List[float]:
        """For every delayed write that was eventually applied: the time
        between its receipt and its apply."""
        out = []
        for ev in self.of_kind(EventKind.BUFFER):
            applied = self.apply_event(ev.process, ev.wid)
            if applied is not None:
                out.append(applied.time - ev.time)
        return out

    # -- conversion ----------------------------------------------------------

    def to_history(self) -> History:
        """The observed global history: each process's own reads/writes.

        This is the :math:`\\hat H` the run *realized*; feeding it to
        :func:`repro.model.legality.check_causal_consistency` checks the
        run end-to-end.
        """
        from repro.model.history import History, LocalHistory

        self._sync()
        locals_: List[LocalHistory] = []
        for i in range(self.n_processes):
            ops = []
            for ev in self._per_process[i]:
                if ev.kind is EventKind.WRITE:
                    ops.append(
                        Write(
                            process=i,
                            index=len(ops),
                            variable=ev.variable,
                            value=ev.value,
                            wid=ev.wid,
                        )
                    )
                elif ev.kind is EventKind.RETURN:
                    ops.append(
                        Read(
                            process=i,
                            index=len(ops),
                            variable=ev.variable,
                            value=ev.value,
                            read_from=ev.read_from,
                        )
                    )
            locals_.append(LocalHistory(process=i, operations=tuple(ops)))
        return History(locals_)

    def __len__(self) -> int:
        self._sync()
        return len(self._events)

    def render(self, *, kinds: Optional[set] = None) -> str:
        """Human-readable dump (used by the paperfigs run renderers)."""
        self._sync()
        lines = []
        for ev in self._events:
            if kinds is None or ev.kind in kinds:
                lines.append(str(ev))
        return "\n".join(lines)


class NullTrace(Trace):
    """A trace that drops every event.

    Satisfies the :class:`~repro.sim.node.Node` contract at zero cost:
    ``recording`` is False, so a node builds no event for it (and reads
    no clock for one) and never calls it; the scheduler and protocol
    state are unaffected, only the event log is absent.  Used by
    non-recording replica servers and by the durability layer's recovery
    replay (where the pre-crash events are already on the authoritative
    trace and must not be re-recorded).
    """

    recording: ClassVar[bool] = False

    def record(self, *args, **kwargs):  # type: ignore[override]
        return None

    def record_compact(self, *args, **kwargs):  # type: ignore[override]
        return None


class FlatTrace(Trace):
    """A :class:`Trace` with a deferred, allocation-light append path.

    The flat backend records most events through
    :meth:`record_compact`, which appends a small plain tuple to a raw
    log instead of constructing a :class:`TraceEvent` and updating four
    indexes per event.  The first *reader* (any view or query) calls
    :meth:`_sync`, which materializes the raw log into the exact
    structures eager recording would have built -- same events, same
    ``seq`` numbers, same index contents -- so every analyzer and the
    JSONL serializer see a byte-identical trace.

    Full :meth:`record` calls (state snapshots, read events with
    ``read_from``, deferred-apply writes) interleave correctly: they
    are logged as pre-built events in the same raw stream, with ``seq``
    assigned from the combined materialized+raw length.
    """

    def __init__(self, n_processes: int):
        super().__init__(n_processes)
        #: deferred entries: ("c", time, process, kind, wid, variable,
        #: value) from record_compact, or ("f", event, registers_apply)
        #: from record.
        self._raw: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def record(
        self,
        time: float,
        process: int,
        kind: EventKind,
        *,
        wid: Optional[WriteId] = None,
        variable: Optional[Hashable] = None,
        value: Any = None,
        read_from: Optional[WriteId] = None,
        state: Optional[Dict[str, Any]] = None,
        registers_apply: Optional[bool] = None,
    ) -> TraceEvent:
        ev = TraceEvent(
            seq=len(self._events) + len(self._raw),
            time=time,
            process=process,
            kind=kind,
            wid=wid,
            variable=variable,
            value=value,
            read_from=read_from,
            state=state,
        )
        self._raw.append(("f", ev, registers_apply))
        return ev

    def record_compact(
        self,
        time: float,
        process: int,
        kind: EventKind,
        wid: Optional[WriteId] = None,
        variable: Optional[Hashable] = None,
        value: Any = None,
    ) -> None:
        self._raw.append(("c", time, process, kind, wid, variable, value))

    # -- materialization -----------------------------------------------------

    def _sync(self) -> None:
        raw = self._raw
        if not raw:
            return
        events = self._events
        per_process = self._per_process
        apply_index = self._apply_index
        receipt_index = self._receipt_index
        for entry in raw:
            if entry[0] == "c":
                _, time, process, kind, wid, variable, value = entry
                ev = TraceEvent(
                    seq=len(events),
                    time=time,
                    process=process,
                    kind=kind,
                    wid=wid,
                    variable=variable,
                    value=value,
                )
                registers = kind in (EventKind.APPLY, EventKind.WRITE)
            else:
                ev = entry[1]
                registers = entry[2]
                if registers is None:
                    registers = ev.kind in (EventKind.APPLY, EventKind.WRITE)
                process = ev.process
                kind = ev.kind
                wid = ev.wid
            events.append(ev)
            per_process[process].append(ev)
            if registers and wid is not None:
                key = (process, wid)
                if key in apply_index:
                    raise AssertionError(
                        f"duplicate apply of {wid} at p{process}"
                    )
                apply_index[key] = ev
            if kind is EventKind.RECEIPT and wid is not None:
                receipt_index.setdefault((process, wid), ev)
        raw.clear()

    # -- fast queries --------------------------------------------------------

    def apply_order(self, process: int) -> List[WriteId]:
        """Fast path: answer from the raw log without materializing.

        Benchmarks call this right after a timed drain; a full
        materialization here would bill TraceEvent construction to the
        caller even though nothing else reads the trace.  Semantics
        match the base implementation: compact WRITE/APPLY entries
        always register their apply, full entries honor their recorded
        ``registers_apply``.
        """
        out = self._apply_order_synced(process)
        for entry in self._raw:
            if entry[0] == "c":
                if entry[2] != process:
                    continue
                kind = entry[3]
                if kind is EventKind.APPLY or kind is EventKind.WRITE:
                    out.append(entry[4])
            else:
                ev = entry[1]
                if ev.process != process:
                    continue
                registers = entry[2]
                if ev.kind is EventKind.APPLY:
                    out.append(ev.wid)
                elif ev.kind is EventKind.WRITE and (
                    registers is None or registers
                ):
                    out.append(ev.wid)
        return out
