"""Message-lifecycle spans and the ``Obs`` handle threaded through the
simulator.

A write's update message goes through the paper's event vocabulary at
each receiving process ``p_k``::

    send_i(w) --> receipt_k(w) --> [buffer ...] --> apply_k(w)

A :class:`MessageSpan` follows one ``(process, wid)`` pair through that
lifecycle.  The interesting part is the *buffered* interval -- exactly
the write delay of Definition 3 -- which the span attributes to its
cause: each :class:`WaitInterval` carries the blocking ``(process,
seq)`` apply-event dependency reported by
:meth:`repro.core.base.Protocol.missing_deps` at the moment the message
was parked (or re-parked).  A message that waits on k missing
dependencies produces k consecutive wait intervals, each ending when
its dependency's apply fires locally (the scheduler wakeup).

``Obs`` is the single handle the substrate components share:

- ``obs.enabled`` gates every instrumentation call site, so a disabled
  run performs one attribute load + branch per hook and is
  trace-identical to an uninstrumented build
  (``tests/obs/test_gating.py``, ``benchmarks/test_bench_obs_overhead.py``);
- ``obs.registry`` is the :class:`~repro.obs.metrics.MetricsRegistry`;
- ``obs.sink`` receives span lifecycle callbacks -- :class:`NullSink`
  drops them, :class:`InMemorySink` materializes
  :class:`MessageSpan` objects that :class:`~repro.sim.result.RunResult`
  exposes and :mod:`repro.obs.export` renders as a Perfetto trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.model.operations import WriteId
from repro.obs.metrics import MetricsRegistry

#: A blocking dependency: the ``(component, required)`` key of
#: :meth:`repro.core.base.Protocol.missing_deps` -- a write id where the
#: component counts one process's applied writes (OptP, ANBKH), a stamp
#: or a held-write count elsewhere.  ``None`` = the protocol cannot
#: enumerate its wait predicate (legacy scheduler).
DepKey = Optional[Tuple[int, int]]


@dataclass
class WaitInterval:
    """One buffered stretch, attributed to the dependency that gated it."""

    start: float
    #: the blocking ``(process, seq)`` apply event, or None when the
    #: protocol cannot enumerate it (legacy re-scan scheduling).
    dep: DepKey = None
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start


@dataclass
class MessageSpan:
    """The lifecycle of one update message at one receiving process."""

    wid: WriteId
    sender: int
    process: int
    variable: Hashable
    receipt_time: float
    send_time: Optional[float] = None
    apply_time: Optional[float] = None
    discard_time: Optional[float] = None
    waits: List[WaitInterval] = field(default_factory=list)

    @property
    def buffered(self) -> bool:
        return bool(self.waits)

    @property
    def buffer_duration(self) -> float:
        """Total receipt->apply delay for buffered+applied messages."""
        if not self.waits or self.apply_time is None:
            return 0.0
        return self.apply_time - self.waits[0].start

    @property
    def released_by(self) -> DepKey:
        """The dependency whose apply finally released this message."""
        if not self.waits:
            return None
        return self.waits[-1].dep

    @property
    def transit_time(self) -> Optional[float]:
        if self.send_time is None:
            return None
        return self.receipt_time - self.send_time


class NullSink:
    """Default sink: drops everything.  Call sites are additionally
    gated on ``obs.enabled``, so these methods exist only for safety
    when a component is handed a bare sink directly."""

    records_spans = False

    def on_send(self, t: float, process: int, wid: WriteId,
                variable: Hashable) -> None:
        pass

    def on_receipt(self, t: float, process: int, wid: WriteId,
                   variable: Hashable, sender: int) -> None:
        pass

    def on_buffer(self, t: float, process: int, wid: WriteId,
                  dep: DepKey) -> None:
        pass

    def on_repark(self, t: float, process: int, wid: WriteId,
                  dep: DepKey) -> None:
        pass

    def on_apply(self, t: float, process: int, wid: WriteId) -> None:
        pass

    def on_discard(self, t: float, process: int, wid: WriteId) -> None:
        pass

    def on_read(self, t: float, process: int, variable: Hashable,
                value: Any) -> None:
        pass


class InMemorySink(NullSink):
    """Materializes spans for :class:`~repro.sim.result.RunResult` and
    the Perfetto exporter."""

    records_spans = True

    def __init__(self) -> None:
        #: send times by write id (recorded once, at the issuer).
        self.sends: Dict[WriteId, float] = {}
        #: spans in receipt order (the exporter's iteration order).
        self.spans: List[MessageSpan] = []
        self._open: Dict[Tuple[int, WriteId], MessageSpan] = {}

    # -- lifecycle callbacks ---------------------------------------------------

    def on_send(self, t, process, wid, variable):
        self.sends.setdefault(wid, t)

    def on_receipt(self, t, process, wid, variable, sender):
        key = (process, wid)
        if key in self._open:  # duplicate delivery: keep the first span
            return
        span = MessageSpan(
            wid=wid, sender=sender, process=process, variable=variable,
            receipt_time=t, send_time=self.sends.get(wid),
        )
        self._open[key] = span
        self.spans.append(span)

    def on_buffer(self, t, process, wid, dep):
        span = self._open.get((process, wid))
        if span is not None:
            span.waits.append(WaitInterval(start=t, dep=dep))

    def on_repark(self, t, process, wid, dep):
        span = self._open.get((process, wid))
        if span is not None and span.waits:
            span.waits[-1].end = t
            span.waits.append(WaitInterval(start=t, dep=dep))

    def on_apply(self, t, process, wid):
        span = self._open.get((process, wid))
        if span is not None:
            span.apply_time = t
            if span.waits and span.waits[-1].end is None:
                span.waits[-1].end = t

    def on_discard(self, t, process, wid):
        span = self._open.get((process, wid))
        if span is not None:
            span.discard_time = t
            if span.waits and span.waits[-1].end is None:
                span.waits[-1].end = t

    # -- queries ----------------------------------------------------------------

    def buffered_spans(self) -> List[MessageSpan]:
        return [s for s in self.spans if s.buffered]


class Obs:
    """The instrumentation handle shared by every substrate component.

    Hot paths must guard each hook with ``if obs.enabled:`` -- the
    contract that keeps disabled-observability runs inside the
    benchmarked overhead budget (see docs/observability.md).
    """

    __slots__ = ("enabled", "registry", "sink", "journal")

    def __init__(self, sink: Optional[NullSink] = None,
                 enabled: Optional[bool] = None,
                 journal: Optional["FlightRecorder"] = None) -> None:
        base = sink if sink is not None else NullSink()
        #: optional :class:`~repro.obs.journal.FlightRecorder`; when set,
        #: a tee sink records every lifecycle callback into the ring
        #: before forwarding to ``sink``.
        self.journal = journal
        if journal is not None:
            from repro.obs.journal import JournalSink

            self.sink = JournalSink(journal, base)
        else:
            self.sink = base
        self.enabled = bool(
            enabled if enabled is not None
            else (type(base) is not NullSink or journal is not None)
        )
        self.registry = MetricsRegistry()

    @classmethod
    def recording(cls, *, journal: bool = False,
                  journal_capacity: int = 4096) -> "Obs":
        """An enabled handle with an :class:`InMemorySink`; pass
        ``journal=True`` to also arm a flight recorder
        (:mod:`repro.obs.journal`)."""
        recorder = None
        if journal:
            from repro.obs.journal import FlightRecorder

            recorder = FlightRecorder(journal_capacity)
        return cls(InMemorySink(), journal=recorder)

    @property
    def spans(self) -> Optional[List[MessageSpan]]:
        """Recorded spans, or None when the sink keeps none."""
        if getattr(self.sink, "records_spans", False):
            return self.sink.spans
        return None


#: The shared disabled handle -- the default everywhere.  Never written
#: to (every write site is gated on ``enabled``), so sharing is safe.
NULL_OBS = Obs()
