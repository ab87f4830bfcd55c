"""Run results: everything the analyzers and benchmarks consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

from repro.model.operations import WriteId
from repro.obs.spans import MessageSpan
from repro.sim.trace import EventKind, Trace

if TYPE_CHECKING:
    from repro.model.history import History


@dataclass
class RunResult:
    """Outcome of one simulated (or asyncio) run.

    Attributes
    ----------
    protocol_name:
        The protocol's registry name.
    n_processes:
        Process count.
    trace:
        The full event trace (see :class:`repro.sim.trace.Trace`).
    duration:
        Final simulation time (or wall-clock seconds for the asyncio
        runtime).
    messages_sent / bytes_estimate:
        Network traffic counters.
    stores:
        Final replica snapshot per process (``variable -> (value, wid)``).
    protocol_stats:
        Per-process protocol counters (``stats()``) -- the
        backward-compatible view; :attr:`stats_total` is the
        cluster-wide rollup and the metrics registry snapshot
        (:attr:`metrics`) carries the same counters as labeled
        ``protocol.*`` gauges when observability is enabled.
    metrics:
        Metrics-registry snapshot (``MetricsRegistry.collect()``) for
        observability-enabled runs, else None.
    spans:
        Message-lifecycle spans (``send -> receipt -> [buffer] ->
        apply``, with blocking-dependency attribution) when the run
        used a span-recording sink, else None.
    """

    protocol_name: str
    n_processes: int
    trace: Trace
    duration: float
    messages_sent: int
    bytes_estimate: int
    stores: List[Dict[Hashable, Tuple[Any, Optional[WriteId]]]]
    protocol_stats: List[Dict[str, int]]
    #: whether the protocol belongs to class 𝒫 (liveness: every write
    #: applied everywhere).  Writing-semantics variants set this False.
    in_class_p: bool = True
    #: observability payloads (None unless the run enabled obs).
    metrics: Optional[Dict[str, Any]] = None
    spans: Optional[List[MessageSpan]] = None

    @cached_property
    def history(self) -> History:
        """The observed global history (each process's own ops)."""
        return self.trace.to_history()

    # -- headline metrics ------------------------------------------------------

    @property
    def write_delays(self) -> int:
        """Total write delays across all processes (Definition 3)."""
        return sum(1 for _ in self.trace.of_kind(EventKind.BUFFER))

    @property
    def writes_issued(self) -> int:
        return sum(1 for _ in self.trace.of_kind(EventKind.WRITE))

    @property
    def remote_applies(self) -> int:
        return sum(1 for _ in self.trace.of_kind(EventKind.APPLY))

    @property
    def discards(self) -> int:
        return sum(1 for _ in self.trace.of_kind(EventKind.DISCARD))

    def delays_per_process(self) -> List[int]:
        return [len(self.trace.delayed(k)) for k in range(self.n_processes)]

    def delay_durations(self) -> List[float]:
        return self.trace.delay_durations()

    @property
    def stats_total(self) -> Dict[str, int]:
        """Cluster-wide protocol-stat rollup: every ``stats()`` key
        summed across processes.  Recomputed per call -- the checker
        tests mutate ``protocol_stats`` in place to simulate liveness
        violations, so this must never cache."""
        total: Dict[str, int] = {}
        for stats in self.protocol_stats:
            for key, value in stats.items():
                total[key] = total.get(key, 0) + value
        return total

    def stat_total(self, key: str) -> int:
        """Sum a protocol stat (e.g. ``"skipped"``) across processes."""
        return sum(s.get(key, 0) for s in self.protocol_stats)

    def converged(self) -> bool:
        """Did all replicas end with identical visible values?

        For class-𝒫 protocols with quiescence this must hold for every
        variable written at least once; writing-semantics protocols
        converge too (skips apply the *final* value).
        """
        if not self.stores:
            return True
        variables = set()
        for store in self.stores:
            variables |= set(store.keys())
        for var in sorted(variables, key=repr):
            values = {store.get(var, (None, None))[1] for store in self.stores}
            if len(values) != 1:
                return False
        return True

    def summary(self) -> str:
        return (
            f"{self.protocol_name}: n={self.n_processes} "
            f"writes={self.writes_issued} delays={self.write_delays} "
            f"discards={self.discards} msgs={self.messages_sent} "
            f"t={self.duration:.3f}"
        )
